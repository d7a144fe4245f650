#!/usr/bin/env python
"""Benchmark the instrumentation runtime: raw NumPy vs instrumented.

For every registered benchmark this script times

* the **instrumented** per-trial execution — one ``Benchmark.execute``
  on a warm instance, exactly what one search trial costs the
  evaluator after inputs and the Typeforge report are cached; and
* the **raw** execution — the same entry function driven through a
  workspace that hands out plain ``ndarray``\\ s, i.e. the pure NumPy
  compute with no profiling at all.

The ratio ``instrumented / raw`` is the instrumentation overhead the
fast-path runtime exists to shrink; the raw time is its hard floor.
Each path also reports its minor page faults per timed call
(``getrusage``), which shows whether a trial's temporaries reuse heap
pages that are already faulted in.
Results land in ``BENCH_runtime.json``.  When a baseline file (by
default ``benchmarks/BENCH_runtime_baseline.json``, captured from the
pre-fast-path runtime) is present, each benchmark also reports its
speedup against the baseline's instrumented time and the summary
carries the geometric-mean speedup.

Timings are wall-clock on whatever machine runs the script, so
absolute numbers move between hosts; the overhead *ratio* is the
stable, CI-checkable quantity (``--fail-over-ratio``).
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.benchmarks.base import available_benchmarks, get_benchmark  # noqa: E402
from repro.core.types import PrecisionConfig  # noqa: E402
from repro.runtime.memory import Workspace  # noqa: E402
from repro.runtime.mparray import unwrap  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "BENCH_runtime_baseline.json"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_runtime.json"


class RawWorkspace(Workspace):
    """A workspace that allocates plain ndarrays: the un-instrumented
    reference execution.  Kernels run their exact NumPy arithmetic with
    zero wrapper dispatch, which is the floor the fast path chases."""

    def array(self, name, shape=None, init=None, fill=None):
        dtype = self.dtype_of(name)
        if (shape is None) == (init is None):
            raise ValueError("provide exactly one of shape= or init=")
        if init is not None:
            return np.asarray(unwrap(init)).astype(dtype)
        if fill is not None:
            return np.full(shape, fill, dtype=dtype)
        return np.zeros(shape, dtype=dtype)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _time_call(fn, *, repeats: int, min_seconds: float) -> tuple[float, float]:
    """Best-of timing: repeat ``fn`` until both the repeat count and a
    minimum total runtime are met.  Returns the fastest observed call
    and the mean minor page faults per call."""
    best = math.inf
    total = 0.0
    runs = 0
    faults_before = _minor_faults()
    while runs < repeats or total < min_seconds:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        total += elapsed
        runs += 1
        if runs >= 5 * repeats and total >= min_seconds / 5:
            break  # pathologically slow benchmark; stop early
    return best, (_minor_faults() - faults_before) / runs


def bench_one(name: str, repeats: int, min_seconds: float) -> dict:
    bench = get_benchmark(name)
    config = PrecisionConfig()
    report = bench.report()
    inputs = bench.inputs()
    entry = bench.entry_point()

    def instrumented():
        bench.execute(config)

    def raw():
        ws = RawWorkspace(config, name_map=report.name_map, seed=bench.seed)
        entry(ws, **inputs)

    with np.errstate(all="ignore"):
        instrumented()  # warm both paths before timing
        raw()
        instr_s, instr_faults = _time_call(
            instrumented, repeats=repeats, min_seconds=min_seconds)
        raw_s, raw_faults = _time_call(raw, repeats=repeats, min_seconds=min_seconds)
    return {
        "benchmark": name,
        "category": bench.category,
        "instrumented_seconds": instr_s,
        "raw_seconds": raw_s,
        "overhead_ratio": instr_s / raw_s if raw_s > 0 else math.inf,
        "instrumented_minor_faults": instr_faults,
        "raw_minor_faults": raw_faults,
    }


def geomean(values: list[float]) -> float:
    finite = [v for v in values if v > 0 and math.isfinite(v)]
    if not finite:
        return math.nan
    return math.exp(sum(math.log(v) for v in finite) / len(finite))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "benchmarks", nargs="*",
        help="benchmark names to run (default: every registered benchmark)",
    )
    parser.add_argument("--repeats", type=int, default=5,
                        help="minimum timed repetitions per measurement")
    parser.add_argument("--min-seconds", type=float, default=0.25,
                        help="minimum total time spent per measurement")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the results JSON")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline JSON to compute speedups against")
    parser.add_argument("--fail-over-ratio", type=float, default=None,
                        help="exit non-zero if any overhead ratio exceeds this")
    parser.add_argument("--fail-under-speedup", type=float, default=None,
                        help="exit non-zero if geomean speedup vs baseline is lower")
    parser.add_argument("--compare-to", type=Path, default=None, metavar="PATH",
                        help="a committed BENCH_runtime.json to gate against: "
                             "compares the geomean of per-benchmark "
                             "overhead-ratio ratios (fresh / committed)")
    parser.add_argument("--max-regression", type=float, default=0.15,
                        metavar="FRACTION",
                        help="with --compare-to, exit non-zero if the geomean "
                             "overhead ratio regressed by more than this "
                             "fraction (default: 0.15)")
    args = parser.parse_args(argv)

    names = args.benchmarks or list(available_benchmarks())
    results = []
    for name in names:
        entry = bench_one(name, args.repeats, args.min_seconds)
        results.append(entry)
        print(
            f"{name:16s} instrumented {entry['instrumented_seconds']*1e3:9.3f} ms"
            f"   raw {entry['raw_seconds']*1e3:9.3f} ms"
            f"   overhead x{entry['overhead_ratio']:.2f}"
            f"   faults {entry['instrumented_minor_faults']:.0f}"
            f"/{entry['raw_minor_faults']:.0f}"
        )

    baseline_map = {}
    if args.baseline and args.baseline.exists():
        baseline = json.loads(args.baseline.read_text())
        baseline_map = {r["benchmark"]: r for r in baseline.get("results", [])}
    for entry in results:
        base = baseline_map.get(entry["benchmark"])
        if base:
            entry["baseline_instrumented_seconds"] = base["instrumented_seconds"]
            entry["speedup_vs_baseline"] = (
                base["instrumented_seconds"] / entry["instrumented_seconds"]
            )

    speedups = [e["speedup_vs_baseline"] for e in results if "speedup_vs_baseline" in e]
    summary = {
        "geomean_overhead_ratio": geomean([e["overhead_ratio"] for e in results]),
        "geomean_speedup_vs_baseline": geomean(speedups) if speedups else None,
        "benchmarks_measured": len(results),
    }
    payload = {
        "schema": "mixpbench/bench-runtime/v1",
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "settings": {"repeats": args.repeats, "min_seconds": args.min_seconds},
        "results": results,
        "summary": summary,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")
    print(f"geomean overhead ratio: x{summary['geomean_overhead_ratio']:.2f}")
    if summary["geomean_speedup_vs_baseline"] is not None:
        print(f"geomean speedup vs baseline: x{summary['geomean_speedup_vs_baseline']:.2f}")

    # Every gate runs and prints its verdict, so a red run shows all of
    # them; the exit status is non-zero if any one failed.
    status = 0
    if args.fail_over_ratio is not None:
        bad = [e for e in results if e["overhead_ratio"] > args.fail_over_ratio]
        for e in bad:
            print(
                f"FAIL: {e['benchmark']} overhead x{e['overhead_ratio']:.2f} "
                f"exceeds limit x{args.fail_over_ratio:.2f}", file=sys.stderr,
            )
            status = 1
    if args.fail_under_speedup is not None and speedups:
        if summary["geomean_speedup_vs_baseline"] < args.fail_under_speedup:
            print(
                f"FAIL: geomean speedup x{summary['geomean_speedup_vs_baseline']:.2f} "
                f"below required x{args.fail_under_speedup:.2f}", file=sys.stderr,
            )
            status = 1
    if args.compare_to is not None:
        status |= compare_to_committed(results, args.compare_to, args.max_regression)
    return status


def compare_to_committed(
    results: list[dict], committed_path: Path, max_regression: float
) -> int:
    """Regression gate against a committed BENCH_runtime.json.

    The absolute timings move between hosts, so the gate compares the
    host-independent quantity: each benchmark's ``overhead_ratio``
    (instrumented / raw on the *same* machine).  A fresh/committed
    ratio-of-ratios above ``1 + max_regression`` in geomean means the
    instrumentation got slower relative to the raw compute.
    """
    if not committed_path.exists():
        print(f"FAIL: no committed benchmark file at {committed_path}",
              file=sys.stderr)
        return 1
    committed = json.loads(committed_path.read_text())
    committed_map = {
        r["benchmark"]: r["overhead_ratio"]
        for r in committed.get("results", [])
    }
    ratios = []
    for entry in results:
        reference = committed_map.get(entry["benchmark"])
        if reference is None or not (reference > 0 and math.isfinite(reference)):
            print(f"  (no committed overhead for {entry['benchmark']}; skipped)")
            continue
        ratio = entry["overhead_ratio"] / reference
        ratios.append(ratio)
        print(f"  {entry['benchmark']:16s} overhead x{entry['overhead_ratio']:.2f}"
              f"  committed x{reference:.2f}  ratio {ratio:.3f}")
    if not ratios:
        print("FAIL: no benchmarks overlap with the committed file",
              file=sys.stderr)
        return 1
    overall = geomean(ratios)
    limit = 1.0 + max_regression
    print(f"geomean overhead regression vs {committed_path.name}: "
          f"{overall:.3f} (limit {limit:.3f})")
    if overall > limit:
        print(
            f"FAIL: per-trial overhead regressed {100 * (overall - 1):.1f}% "
            f"in geomean, over the {100 * max_regression:.0f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
