"""Command-line interface: the ``mixpbench`` entry point.

Subcommands::

    mixpbench list                         # suite inventory
    mixpbench analyze BENCH                # Typeforge TV/TC report
    mixpbench lint [TARGET...]             # static precision diagnostics
    mixpbench certify BENCH                # static error-bound certificate
    mixpbench run CONFIG.yaml              # run a YAML harness file
    mixpbench search BENCH --algorithm DD  # one ad-hoc search
    mixpbench sensitivity BENCH            # shadow-run error attribution
    mixpbench serve --state-dir DIR        # run the search service daemon
    mixpbench submit --programs ...        # queue a grid on the service
    mixpbench status [JOB]                 # inspect the service ledger
    mixpbench attach JOB                   # follow a job to completion
    mixpbench cancel JOB                   # ask the daemon to cancel a job
"""

from __future__ import annotations

import argparse
import sys

from repro.benchmarks.base import (
    application_benchmarks, get_benchmark, kernel_benchmarks,
)
from repro.core.batch import EXECUTOR_NAMES, make_executor
from repro.core.evaluator import ConfigurationEvaluator
from repro.errors import MixPBenchError
from repro.harness.reporting import (
    format_eval_stats, format_prune_stats, format_quality,
    format_screen_stats, format_shadow_stats, format_speedup, format_table,
)
from repro.harness.runner import Harness
from repro.search.registry import (
    available_strategies, make_strategy, strategy_kwargs,
)
from repro.verify.quality import QualitySpec

__all__ = ["main", "build_parser"]


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """Shared batch-execution/caching flags for search-running commands."""
    parser.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default="serial",
        help="batch backend for configuration evaluation (default: serial)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker count for the thread/process executors",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent evaluation cache",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="evaluation cache directory (default: <output>/cache)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="write a JSON-lines telemetry trace next to the results",
    )
    parser.add_argument(
        "--trial-timeout", type=float, default=None, metavar="SECONDS",
        help="per-trial wall-clock budget; slower trials are reported "
             "as runtime errors (process executor kills hung workers)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="retry transient worker failures up to N times with "
             "exponential backoff (default: 0, no retries)",
    )


def _add_order_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--order", choices=["none", "shadow"], default="none",
        help="search-location ordering: 'shadow' runs one shadow "
             "sensitivity analysis and enumerates locations "
             "most-sensitive-first (default: none)",
    )


def _add_screen_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--screen", action="store_true",
        help="skip configurations whose statically certified error "
             "lower bound already violates the threshold (sound: "
             "screening only skips, never accepts — the verified error "
             "of the result matches the unscreened search)",
    )


def _add_rounding_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rounding", choices=["nearest", "stochastic"], default="nearest",
        help="store-rounding mode for emulated e8m*/e11m* formats "
             "(consumed by the BW bit-width bisection strategy; "
             "default: nearest, i.e. round-to-nearest-even)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixpbench",
        description="HPC-MixPBench: mixed-precision analysis harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite")

    analyze = sub.add_parser("analyze", help="run the Typeforge analysis on a benchmark")
    analyze.add_argument("benchmark")
    analyze.add_argument(
        "--explain", nargs=2, metavar=("VAR_A", "VAR_B"), default=None,
        help="show the dependence chain forcing two variables into one cluster",
    )
    analyze.add_argument(
        "--prune", action="store_true",
        help="also show the statically pruned search space "
             "(frozen variables, merged clusters)",
    )

    lint = sub.add_parser(
        "lint",
        help="static precision diagnostics (MPB rule codes) over "
             "benchmarks, files or directories",
    )
    lint.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help="benchmark names, .py files, or directories of benchmark "
             "modules (default: the whole suite)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings silenced by '# mpb: ignore[...]' comments",
    )
    lint.add_argument(
        "--fail-on", choices=["error", "warning", "info", "never"],
        default="error",
        help="lowest severity that makes the exit status non-zero "
             "(default: error)",
    )

    certify = sub.add_parser(
        "certify",
        help="static rounding-error certificate: per-variable bound "
             "amplifications, calibrated against one shadow run, and "
             "the screening verdict for the uniform width ladder",
    )
    certify.add_argument("benchmark")
    certify.add_argument(
        "--threshold", type=float, default=None,
        help="error threshold the screening verdicts are judged against "
             "(default: the benchmark's)",
    )
    certify.add_argument(
        "--safety", type=float, default=None,
        help="safety divisor between the calibrated estimate and the "
             "certified lower bound (default: 128)",
    )
    certify.add_argument(
        "--trip-count", type=int, default=None, metavar="N",
        help="bound reduction loops at N iterations instead of the "
             "symbolic default (silences MPB302)",
    )
    certify.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (default: text)",
    )

    run = sub.add_parser("run", help="run a YAML harness configuration")
    run.add_argument("config")
    run.add_argument("--output-dir", default="results")
    run.add_argument(
        "--prune", action="store_true",
        help="restrict each search space with the static dataflow pruner",
    )
    _add_order_flag(run)
    _add_rounding_flag(run)
    _add_screen_flag(run)
    _add_execution_flags(run)

    search = sub.add_parser("search", help="run one mixed-precision search")
    search.add_argument("benchmark")
    search.add_argument("--algorithm", default="DD", help=f"one of {available_strategies()}")
    search.add_argument("--threshold", type=float, default=None)
    search.add_argument("--metric", default=None)
    search.add_argument("--max-evaluations", type=int, default=None)
    search.add_argument(
        "--timing", choices=["modeled", "wall"], default="modeled",
        help="runtime source: roofline model (default) or host wall clock",
    )
    search.add_argument(
        "--output-dir", default="results",
        help="root directory for cache/trace artifacts",
    )
    search.add_argument(
        "--save", default=None, metavar="PATH",
        help="also save the SearchOutcome as interchange JSON",
    )
    search.add_argument(
        "--prune", action="store_true",
        help="restrict the search space with the static dataflow pruner",
    )
    _add_order_flag(search)
    _add_rounding_flag(search)
    _add_screen_flag(search)
    _add_execution_flags(search)

    grid = sub.add_parser(
        "grid",
        help="run a (program x algorithm x threshold) grid, "
             "journaled and resumable after a crash",
    )
    grid.add_argument("--programs", nargs="+", required=True, metavar="BENCH")
    grid.add_argument(
        "--algorithms", nargs="+", required=True, metavar="ALGO",
        help=f"one or more of {available_strategies()}",
    )
    grid.add_argument("--thresholds", nargs="+", type=float, required=True)
    grid.add_argument(
        "--grid-workers", type=int, default=1,
        help="inter-job parallelism (jobs run concurrently on threads)",
    )
    grid.add_argument("--max-evaluations", type=int, default=None)
    grid.add_argument("--time-limit-hours", type=float, default=24.0)
    grid.add_argument(
        "--run-id", default=None,
        help="journal the run under <output>/runs/<run-id>/ so it can "
             "be resumed after a crash",
    )
    grid.add_argument(
        "--resume", default=None, metavar="RUN_ID",
        help="resume a journaled run: skip finished jobs, replay "
             "completed trials, continue from the cut point",
    )
    grid.add_argument(
        "--prune", action="store_true",
        help="restrict every job's search space with the static dataflow pruner",
    )
    _add_order_flag(grid)
    _add_rounding_flag(grid)
    _add_screen_flag(grid)
    grid.add_argument("--output-dir", default="results")
    _add_execution_flags(grid)

    sensitivity = sub.add_parser(
        "sensitivity",
        help="shadow-run sensitivity analysis: per-variable error "
             "attribution plus a verified recommended configuration",
    )
    sensitivity.add_argument("benchmark")
    sensitivity.add_argument("--threshold", type=float, default=None)
    sensitivity.add_argument("--metric", default=None)
    sensitivity.add_argument(
        "--half", action="store_true",
        help="also propagate fp16 shadows (fp32 is always on)",
    )
    sensitivity.add_argument(
        "--replica", action="append", default=None, metavar="FORMAT",
        help="extra shadow replica precision, e.g. an emulated format "
             "like e8m10 (repeatable; see docs/precision-formats.md)",
    )
    sensitivity.add_argument(
        "--no-recommend", action="store_true",
        help="report attribution only; skip the predict-and-verify step",
    )
    sensitivity.add_argument(
        "--save", default=None, metavar="PATH",
        help="also save the SensitivityReport as JSON",
    )

    profile = sub.add_parser(
        "profile", help="machine-model runtime breakdown of a benchmark",
    )
    profile.add_argument("benchmark")
    profile.add_argument(
        "--precision", default="double",
        help="uniform precision to profile (double/single/half)",
    )

    def _add_state_dir(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--state-dir", default="service",
            help="service state directory (ledger, shared cache, spool; "
                 "default: ./service)",
        )

    serve = sub.add_parser(
        "serve",
        help="run the search service daemon: accept grid submissions "
             "from many tenants, dedupe through one shared cache",
    )
    _add_state_dir(serve)
    serve.add_argument(
        "--service-workers", type=int, default=2, metavar="N",
        help="worker threads draining the shard queue (default: 2)",
    )
    serve.add_argument(
        "--quota", type=int, default=8, metavar="N",
        help="per-tenant ceiling on active (queued+running) jobs (default: 8)",
    )
    serve.add_argument(
        "--shard-retries", type=int, default=2, metavar="N",
        help="redispatch a crashed shard up to N times (default: 2)",
    )
    serve.add_argument(
        "--poll-seconds", type=float, default=0.1, metavar="SECONDS",
        help="spool polling interval (default: 0.1)",
    )
    serve.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="exit after this long with no active jobs and an empty "
             "spool (default: serve until <state-dir>/stop appears)",
    )

    submit = sub.add_parser(
        "submit",
        help="submit a (program x algorithm x threshold) grid to a "
             "running `mixpbench serve` daemon",
    )
    _add_state_dir(submit)
    submit.add_argument("--programs", nargs="+", required=True, metavar="BENCH")
    submit.add_argument(
        "--algorithms", nargs="+", required=True, metavar="ALGO",
        help=f"one or more of {available_strategies()}",
    )
    submit.add_argument("--thresholds", nargs="+", type=float, required=True)
    submit.add_argument("--max-evaluations", type=int, default=None)
    submit.add_argument("--time-limit-hours", type=float, default=24.0)
    submit.add_argument(
        "--tenant", default="default",
        help="tenant the job is accounted against (default: default)",
    )
    submit.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default="serial",
        help="batch backend each shard evaluates with (default: serial)",
    )
    submit.add_argument(
        "--workers", type=int, default=None,
        help="worker count for the thread/process executors",
    )
    submit.add_argument(
        "--trial-timeout", type=float, default=None, metavar="SECONDS",
        help="per-trial wall-clock budget inside each shard",
    )
    submit.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="retry transient worker failures up to N times",
    )
    submit.add_argument(
        "--prune", action="store_true",
        help="restrict every shard's search space with the static pruner",
    )
    _add_order_flag(submit)
    _add_rounding_flag(submit)
    _add_screen_flag(submit)
    submit.add_argument(
        "--ack-timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long to wait for the daemon to acknowledge (default: 30)",
    )
    submit.add_argument(
        "--attach", action="store_true",
        help="stay attached: stream progress and exit with the job's outcome",
    )

    status = sub.add_parser(
        "status",
        help="inspect the service ledger (read-only; daemon not required)",
    )
    status.add_argument("job_id", nargs="?", default=None)
    _add_state_dir(status)
    status.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (default: text)",
    )

    attach = sub.add_parser(
        "attach",
        help="follow a submitted job: stream progress, exit with its "
             "outcome (0 done, 1 failed, 3 cancelled)",
    )
    attach.add_argument("job_id")
    _add_state_dir(attach)
    attach.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up (exit 2) if the job is still live after this long",
    )
    attach.add_argument(
        "--save", default=None, metavar="PATH",
        help="also copy the job's results.json (the same payload "
             "`mixpbench grid` writes) to PATH",
    )

    cancel = sub.add_parser(
        "cancel", help="ask the serving daemon to cancel a job",
    )
    cancel.add_argument("job_id")
    _add_state_dir(cancel)

    report = sub.add_parser(
        "report", help="analyse saved search outcomes (interchange JSON)",
    )
    report.add_argument(
        "outcomes", nargs="+",
        help="outcome JSON files (e.g. results/searches/*.json)",
    )
    report.add_argument(
        "--convergence", action="store_true",
        help="also print each outcome's best-speedup-so-far curve",
    )
    return parser


def _cmd_list() -> int:
    rows = []
    for name in kernel_benchmarks():
        rows.append([name, "kernel", get_benchmark(name).description])
    for name in application_benchmarks():
        rows.append([name, "application", get_benchmark(name).description])
    print(format_table(["name", "category", "description"], rows, "HPC-MixPBench suite"))
    return 0


def _cmd_analyze(
    name: str, explain: list[str] | None = None, prune: bool = False
) -> int:
    bench = get_benchmark(name)
    report = bench.report()
    if explain is not None:
        uid_a, uid_b = explain
        chain = report.explain(uid_a, uid_b)
        if chain is None:
            print(f"{uid_a} and {uid_b} are type-independent "
                  "(changing one never forces the other)")
        elif not chain:
            print(f"{uid_a} and {uid_b} are the same entity")
        else:
            print(f"{uid_a} must share a base type with {uid_b} because:")
            for step in chain:
                print(f"  {step}")
        return 0
    print(f"{bench.name}: TV={report.total_variables} TC={report.total_clusters}")
    rows = [[c.cid, len(c), ", ".join(sorted(c.members))] for c in report.clusters]
    print(format_table(["cluster", "size", "members"], rows))
    if prune:
        from repro.typeforge.prune import prune_report

        pruned = prune_report(report)
        stats = pruned.stats(report.search_space())
        print(f"\nwith --prune: {pruned.describe(report.search_space())}")
        for uid in stats["frozen"]:
            print(f"  frozen : {uid}")
        for merged in stats["merged"]:
            print(f"  merged : {merged}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.typeforge.lint import (
        SEVERITIES, format_text, reports_to_json, resolve_targets,
    )

    reports = resolve_targets(list(args.targets))
    if args.format == "json":
        print(json.dumps(reports_to_json(reports), indent=2, sort_keys=True))
    else:
        print(format_text(reports, show_suppressed=args.show_suppressed))
    if args.fail_on == "never":
        return 0
    threshold = SEVERITIES.index(args.fail_on)
    for report in reports:
        worst = report.worst_severity()
        if worst is not None and SEVERITIES.index(worst) <= threshold:
            return 1
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    harness = Harness(
        output_dir=args.output_dir,
        executor=args.executor,
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        trace=args.trace,
        trial_timeout=args.trial_timeout,
        max_retries=args.max_retries,
        prune=args.prune,
        shadow=args.order == "shadow",
        rounding=args.rounding,
        screen=args.screen,
    )
    for report in harness.run_file(args.config):
        print(f"\n{report.name} ({report.metric} <= {report.threshold:g})")
        rows = []
        pruned = False
        shadowed = False
        screened = False
        for a in report.analyses:
            pruned = pruned or bool(a.prune)
            shadowed = shadowed or bool(a.shadow)
            screened = screened or bool(a.screen)
            rows.append([
                a.identifier, a.strategy, a.evaluations,
                f"{a.analysis_hours:.2f}h",
                "timeout" if a.timed_out else ("ok" if a.found_solution else "none"),
                format_speedup(a.speedup), format_quality(a.error_value),
                format_eval_stats(a.eval_stats),
            ])
        print(format_table(
            ["analysis", "strategy", "EV", "time", "status", "SU", "AC",
             "evaluation"], rows,
        ))
        if pruned:
            for a in report.analyses:
                if a.prune:
                    print(f"  {a.identifier}: pruned {format_prune_stats(a.prune)}")
        if shadowed:
            for a in report.analyses:
                if a.shadow:
                    print(f"  {a.identifier}: shadow {format_shadow_stats(a.shadow)}")
        if screened:
            for a in report.analyses:
                if a.screen:
                    print(f"  {a.identifier}: screen {format_screen_stats(a.screen)}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    import json

    from repro.typeforge.errorbound import DEFAULT_SAFETY, certify_benchmark

    bench = get_benchmark(args.benchmark)
    threshold = args.threshold if args.threshold is not None else bench.default_threshold
    safety = args.safety if args.safety is not None else DEFAULT_SAFETY
    model, certificate = certify_benchmark(
        bench, safety=safety, trip_count=args.trip_count,
    )

    # Price the uniform width ladder: for each representative width,
    # the certified lower bound of lowering every weighted location.
    from repro.core.types import PrecisionConfig, get_format

    ladder = []
    for mantissa in (23, 16, 10, 6, 2):
        fmt = get_format(f"e8m{mantissa}")
        config = PrecisionConfig(dict.fromkeys(certificate.weights, fmt))
        ladder.append({
            "format": fmt.name,
            "lower_bound": certificate.lower(config),
            "screened": certificate.rejects(config, threshold),
        })

    if args.format == "json":
        payload = {
            "program": bench.name,
            "threshold": threshold,
            "model": model.to_json_dict(),
            "certificate": certificate.to_json_dict(),
            "uniform_ladder": ladder,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    summary = model.summary()
    print(f"{bench.name}: static error-bound certificate "
          f"({bench.metric} <= {threshold:g})")
    trips = (f"{model.trip_count} (trace-bounded)" if model.trip_bounded
             else f"{model.trip_count} (assumed; no recorded trace)")
    print(f"  reduction trip count : {trips}")
    print(f"  amplification terms  : {summary['terms']}")
    dom = summary["dominating"]
    if dom:
        print(f"  dominating variable  : {dom[0]} (x{dom[1]:g})")
    anchor = certificate.anchor
    anchor_text = f"{anchor:.3e}" if isinstance(anchor, float) else str(anchor)
    print(f"  calibration anchor   : uniform-fp32 {bench.metric} = {anchor_text} "
          f"(safety {certificate.safety:g})")
    if certificate.weights:
        rows = [
            [uid, f"{weight:.3e}", f"{model.amplification(uid):g}"]
            for uid, weight in sorted(
                certificate.weights.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        print(format_table(
            ["variable", "weight (metric units @ fp32)", "amplification"], rows,
        ))
        rows = [
            [step["format"], f"{step['lower_bound']:.3e}",
             "screened" if step["screened"] else "evaluate"]
            for step in ladder
        ]
        print(format_table(["uniform width", "certified lower bound", "verdict"], rows))
    else:
        print("  certificate is inert (no measured anchor); screening will "
              "never reject")
    if model.sites:
        print("  bound sites:")
        for site in model.sites:
            print(f"    {site.location()}: {site.rule}: {site.message}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.core.evaluator import TimingMode
    from repro.core.telemetry import TraceWriter
    from repro.runtime.cache import EvaluationCache

    bench = get_benchmark(args.benchmark)
    threshold = args.threshold if args.threshold is not None else bench.default_threshold
    quality = QualitySpec(args.metric or bench.metric, threshold)
    timing = TimingMode.WALL_CLOCK if args.timing == "wall" else TimingMode.MODELED
    output_dir = Path(args.output_dir)
    executor = make_executor(
        args.executor, args.workers,
        trial_timeout=args.trial_timeout, max_retries=args.max_retries,
    )
    cache = None
    if not args.no_cache:
        cache = EvaluationCache(args.cache_dir or output_dir / "cache")
    trace = None
    if args.trace:
        trace = TraceWriter(
            output_dir / "traces" / f"{bench.name}-{args.algorithm}.jsonl"
        )
    space_override = None
    prune_info = None
    if args.prune:
        from repro.typeforge.prune import prune_report

        tf_report = bench.report()
        pruned = prune_report(tf_report)
        space_override = pruned.space
        prune_info = pruned.stats(tf_report.search_space())
    location_order = None
    shadow_info = None
    if args.order == "shadow":
        from repro.shadow import shadow_guidance

        location_order, shadow_info = shadow_guidance(bench)
    screen = None
    screen_info = None
    if args.screen:
        from repro.typeforge.errorbound import certify_benchmark

        _, screen = certify_benchmark(bench)
        screen_info = screen.info()
    try:
        evaluator = ConfigurationEvaluator(
            bench, quality=quality, max_evaluations=args.max_evaluations,
            timing=timing, executor=executor, cache=cache, trace=trace,
            space_override=space_override, prune_info=prune_info,
            location_order=location_order, shadow_info=shadow_info,
            screen=screen, screen_info=screen_info,
        )
        strategy = make_strategy(
            args.algorithm,
            **strategy_kwargs(args.algorithm, rounding=args.rounding),
        )
        outcome = strategy.run(evaluator)
    finally:
        executor.close()
        if trace is not None:
            trace.close()
    status = "timeout" if outcome.timed_out else ("ok" if outcome.found_solution else "none")
    print(f"{bench.name} / {outcome.strategy} @ {threshold:g}: {status}")
    print(f"  evaluated configurations: {outcome.evaluations}")
    print(f"  analysis time: {outcome.analysis_seconds / 3600.0:.2f} simulated hours")
    stats = outcome.metadata.get("eval_stats") or {}
    print(f"  evaluation: {format_eval_stats(stats)}")
    if prune_info is not None:
        print(f"  pruned: {format_prune_stats(prune_info)}")
    if shadow_info is not None:
        print(f"  shadow: {format_shadow_stats(shadow_info)}")
    if screen_info is not None:
        print(f"  screen: {format_screen_stats(outcome.metadata.get('screen'))}")
    if outcome.found_solution:
        print(f"  speedup: {format_speedup(outcome.speedup)}")
        print(f"  quality: {format_quality(outcome.error_value)}")
        lowered = sorted(outcome.final.config.lowered_locations())
        print(f"  lowered variables ({len(lowered)}): {', '.join(lowered)}")
    if args.save:
        outcome.save(args.save)
        print(f"  outcome saved to {args.save}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.harness.scheduler import grid_jobs, run_grid

    output_dir = Path(args.output_dir)
    run_id = args.run_id or args.resume
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or str(output_dir / "cache")
    jobs = grid_jobs(
        args.programs, args.algorithms, args.thresholds,
        time_limit_seconds=args.time_limit_hours * 3600.0,
        max_evaluations=args.max_evaluations,
        executor=args.executor,
        executor_workers=args.workers,
        cache_dir=cache_dir,
        trial_timeout=args.trial_timeout,
        max_retries=args.max_retries,
        prune=args.prune,
        shadow=args.order == "shadow",
        rounding=args.rounding,
        screen=args.screen,
    )
    results = run_grid(
        jobs, workers=args.grid_workers,
        run_id=run_id, resume=args.resume,
        runs_dir=output_dir / "runs",
    )

    rows = []
    for result in results:
        outcome = result.outcome
        if outcome is not None:
            status = "timeout" if outcome.timed_out else (
                "ok" if outcome.found_solution else "none"
            )
            rows.append([
                result.job.label(),
                "resumed" if result.resumed else "ran",
                outcome.evaluations,
                f"{outcome.analysis_seconds / 3600.0:.2f}h",
                status,
                format_speedup(outcome.speedup),
                format_quality(outcome.error_value),
            ])
        else:
            rows.append([
                result.job.label(),
                "resumed" if result.resumed else "ran",
                "-", "-", f"error: {result.error_kind or 'unknown'}", "-", "-",
            ])
    print(format_table(
        ["job", "source", "EV", "time", "status", "SU", "AC"], rows,
        f"grid ({len(results)} jobs)",
    ))
    failed = [r for r in results if not r.ok]
    if failed:
        print(f"\n{len(failed)} job(s) failed:")
        for result in failed:
            print(f"  {result.job.label()}: {result.error_kind}")

    if run_id is not None:
        results_path = output_dir / "runs" / run_id / "results.json"
        results_path.parent.mkdir(parents=True, exist_ok=True)
        results_path.write_text(json.dumps(
            [r.to_json_dict() for r in results], indent=2, sort_keys=True,
        ))
        print(f"\nresults saved to {results_path}")
    return 1 if failed else 0


def _submit_spec(args: argparse.Namespace):
    from repro.service import GridSpec

    return GridSpec(
        programs=tuple(args.programs),
        algorithms=tuple(args.algorithms),
        thresholds=tuple(args.thresholds),
        max_evaluations=args.max_evaluations,
        time_limit_seconds=args.time_limit_hours * 3600.0,
        executor=args.executor,
        executor_workers=args.workers,
        trial_timeout=args.trial_timeout,
        max_retries=args.max_retries,
        prune=args.prune,
        shadow=args.order == "shadow",
        rounding=args.rounding,
        screen=args.screen,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import Scheduler

    scheduler = Scheduler(
        args.state_dir,
        workers=args.service_workers,
        quota=args.quota,
        shard_retries=args.shard_retries,
    )
    print(f"serving {scheduler.paths['root']} "
          f"({scheduler.workers} workers, quota {scheduler.quota}/tenant; "
          f"touch {scheduler.paths['root'] / 'stop'} to drain and exit)")
    scheduler.serve(
        poll_seconds=args.poll_seconds,
        idle_exit_seconds=args.idle_exit,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import submit_request

    spec = _submit_spec(args)
    job_id = submit_request(
        args.state_dir, spec, tenant=args.tenant, timeout=args.ack_timeout,
    )
    print(f"submitted {job_id}: {spec.label()} (tenant {args.tenant})")
    if not args.attach:
        print(f"follow with: mixpbench attach {job_id} "
              f"--state-dir {args.state_dir}")
        return 0
    return _follow(args.state_dir, job_id, timeout=None, save=None)


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.service import job_status, service_status

    if args.job_id is not None:
        payload = job_status(args.state_dir, args.job_id)
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"{payload['job_id']}  {payload['state']:9s}  "
              f"tenant {payload['tenant']}  {payload['label']}")
        print(f"  shards: {payload['shards_finished']}/{payload['shards']}")
        if payload["error"]:
            print(f"  error : {payload['error']}")
        stats = payload["stats"]
        if stats:
            print(f"  stats : EV {stats.get('evaluations', 0)}, "
                  f"fresh {stats.get('fresh_evaluations', 0)}, "
                  f"shared-cache hits {stats.get('persistent_hits', 0)}, "
                  f"redispatched {stats.get('redispatched_shards', 0)}")
        return 0

    snapshot = service_status(args.state_dir)
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    pid = snapshot["serving_pid"]
    print(f"daemon: {'pid %d' % pid if pid else 'not running'}")
    rows = [
        [job["job_id"], job["tenant"], job["state"],
         f"{job['shards_finished']}/{job['shards']}", job["label"]]
        for job in snapshot["jobs"]
    ]
    if rows:
        print(format_table(
            ["job", "tenant", "state", "shards", "grid"], rows,
            f"service ledger ({len(rows)} jobs)",
        ))
    else:
        print("no jobs submitted yet")
    return 0


def _follow(
    state_dir: str, job_id: str, timeout: float | None, save: str | None
) -> int:
    import shutil

    from repro.service import ATTACH_EXIT_CODES, attach, results_path

    state = attach(
        state_dir, job_id,
        stream=lambda line: print(f"  {line}"),
        timeout=timeout,
    )
    print(f"{job_id}: {state}")
    if save is not None and state == "done":
        source = results_path(state_dir, job_id)
        shutil.copyfile(source, save)
        print(f"results saved to {save}")
    return ATTACH_EXIT_CODES.get(state, 2)


def _cmd_attach(args: argparse.Namespace) -> int:
    return _follow(args.state_dir, args.job_id, args.timeout, args.save)


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service import request_cancel

    request_cancel(args.state_dir, args.job_id)
    print(f"cancellation of {args.job_id} requested "
          f"(confirm with: mixpbench status {args.job_id} "
          f"--state-dir {args.state_dir})")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.shadow import recommend_and_verify, run_shadow_analysis

    bench = get_benchmark(args.benchmark)
    report = run_shadow_analysis(
        bench, include_half=args.half, replicas=tuple(args.replica or ()),
    )
    print(report.render())
    if args.save:
        report.save(args.save)
        print(f"report saved to {args.save}")
    if args.no_recommend:
        return 0

    threshold = args.threshold if args.threshold is not None else bench.default_threshold
    quality = QualitySpec(args.metric or bench.metric, threshold)
    evaluator = ConfigurationEvaluator(bench, quality=quality)
    rec = recommend_and_verify(report, evaluator)
    print(f"\nrecommendation for {bench.name} ({quality.metric} <= {threshold:g}):")
    predicted = (
        f"{rec.predicted_error:.3e}" if rec.predicted_error is not None else "n/a"
    )
    print(f"  predicted  : {len(rec.predicted_lowered)} locations lowered, "
          f"{quality.metric} ~ {predicted}")
    verified = (
        f"{rec.verified_error:.3e}" if rec.verified_error is not None else "n/a"
    )
    status = "passed" if rec.passed else "FAILED"
    print(f"  verified   : {quality.metric} = {verified} ({status}, "
          f"{rec.evaluations} evaluation(s) through the standard evaluator)")
    if rec.passed and rec.lowered:
        print(f"  lowered    : {', '.join(rec.lowered)}")
    elif rec.passed:
        print("  lowered    : nothing (uniform double is the recommendation)")
    return 0 if rec.passed else 1


def _cmd_profile(name: str, precision_name: str) -> int:
    from repro.core.types import Precision, PrecisionConfig, parse_precision

    bench = get_benchmark(name)
    precision = parse_precision(precision_name)
    if precision is Precision.DOUBLE:
        config = PrecisionConfig()
    else:
        config = bench.search_space().uniform_config(precision)
    result = bench.execute(config)
    machine = bench.machine
    breakdown = machine.breakdown(result.profile)
    summary = result.profile.summary()

    print(f"{bench.name} @ uniform {precision.value} "
          f"(machine model: {machine.name})")
    print(f"  modeled runtime : {result.modeled_seconds * 1e3:.3f} modeled ms")
    print(f"  working set     : {summary['peak_footprint'] / 2**20:.2f} MiB "
          f"(effective bandwidth {breakdown['bandwidth'] / 1e9:.0f} GB/s)")
    print("  time breakdown:")
    for component in ("compute", "memory", "casts", "gathers", "call_overhead"):
        seconds = breakdown[component]
        share = seconds / result.modeled_seconds if result.modeled_seconds else 0.0
        print(f"    {component:14s}: {seconds * 1e3:9.3f} ms  ({share:5.1%})")
    print("  operation mix (element ops):")
    for bucket, count in summary["ops"].items():
        print(f"    {bucket:18s}: {count:,.0f}")
    print(f"  memory traffic  : {summary['bytes_read'] / 2**20:.1f} MiB read, "
          f"{summary['bytes_written'] / 2**20:.1f} MiB written")
    if summary["io_bytes"]:
        print(f"  file I/O        : {summary['io_bytes'] / 2**20:.2f} MiB")
    return 0


def _cmd_report(paths: list[str], show_convergence: bool) -> int:
    from repro.analysis import (
        convergence_curve, effort_summary, summarize_many,
        time_to_first_solution,
    )
    from repro.core.results import SearchOutcome

    outcomes = [SearchOutcome.load(path) for path in paths]
    problems = {(o.program, o.threshold) for o in outcomes}
    if len(problems) == 1 and len(outcomes) > 1:
        program, threshold = next(iter(problems))
        print(f"{program} @ threshold {threshold:g} — ranked best-first:")
        for line in summarize_many(outcomes):
            print(f"  {line}")
    else:
        for outcome in outcomes:
            print(f"{outcome.program} / {outcome.strategy} "
                  f"@ {outcome.threshold:g}:")
            print(f"  {effort_summary(outcome)}")
            first = time_to_first_solution(outcome)
            if first:
                evaluations, seconds = first
                print(f"  first solution after {evaluations} evaluations "
                      f"({seconds / 3600.0:.2f} simulated hours)")

    if show_convergence:
        for outcome in outcomes:
            print(f"\nconvergence of {outcome.strategy} on {outcome.program}:")
            previous = None
            for point in convergence_curve(outcome):
                if point.best_speedup != previous:
                    print(f"  after {point.evaluations:4d} evaluations: "
                          f"{point.best_speedup:.3f}x")
                    previous = point.best_speedup
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "analyze":
            return _cmd_analyze(args.benchmark, args.explain, args.prune)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "grid":
            return _cmd_grid(args)
        if args.command == "sensitivity":
            return _cmd_sensitivity(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "attach":
            return _cmd_attach(args)
        if args.command == "cancel":
            return _cmd_cancel(args)
        if args.command == "profile":
            return _cmd_profile(args.benchmark, args.precision)
        if args.command == "report":
            return _cmd_report(args.outcomes, args.convergence)
    except MixPBenchError as error:
        # StyleErrors carry file:line:col, rendered by their __str__
        print(f"mixpbench: error: {error}", file=sys.stderr)
        return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
