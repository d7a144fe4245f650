"""The harness: deploy, analyse, verify (paper Section III-A.c).

"Invoking the harness with the YAML configuration file runs the
analysis Python code, which compiles the application, executes the
generated binaries, and performs the prescribed analysis and
evaluation to quantify quality loss and to measure execution time."

:class:`Harness` does exactly that against the suite registry: it
deploys the configured benchmark (input generation plays the role of
``make``), hands it to each configured analysis plugin, then
re-executes the tuned configuration to report its verified quality
and speedup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.benchmarks.base import Benchmark, get_benchmark
from repro.core.evaluator import measured_seconds
from repro.core.telemetry import TraceWriter
from repro.core.types import PrecisionConfig
from repro.harness.config import HarnessConfig, load_config
from repro.harness.options import SearchOptions
from repro.harness.plugins import AnalysisResult, DeployedApp, get_plugin
from repro.runtime.cache import EvaluationCache
from repro.verify.quality import QualitySpec

__all__ = ["AnalysisReport", "HarnessReport", "Harness"]


@dataclass
class AnalysisReport:
    """Verified result of one analysis on one benchmark."""

    identifier: str
    plugin: str
    strategy: str
    artifact: Path
    evaluations: int
    analysis_hours: float
    timed_out: bool
    found_solution: bool
    speedup: float = math.nan
    error_value: float = math.nan
    config: PrecisionConfig | None = None
    #: the evaluator's telemetry block (see repro.core.telemetry)
    eval_stats: dict = field(default_factory=dict)
    #: static-pruning provenance (empty when pruning was off)
    prune: dict = field(default_factory=dict)
    #: shadow-guidance provenance (empty when guidance was off)
    shadow: dict = field(default_factory=dict)
    #: screening-certificate provenance (empty when screening was off)
    screen: dict = field(default_factory=dict)


@dataclass
class HarnessReport:
    """All analyses of one harness entry."""

    name: str
    benchmark: str
    metric: str
    threshold: float
    analyses: list[AnalysisReport] = field(default_factory=list)


class Harness:
    """Deploys benchmarks and runs configured analyses on them.

    Parameters
    ----------
    output_dir:
        Root for artifacts, traces and the evaluation cache.
    options:
        Harness-wide :class:`~repro.harness.options.SearchOptions`
        (executor and fault policy, ``--prune``, ``--order shadow``,
        ``--rounding``, ``--screen``); each entry's YAML keys override
        them, and a ``floatSmith`` analysis's ``extra_args`` override
        those in turn.  The time limit is the entry's
        ``time_limit_hours``.
    use_cache:
        Persistent evaluation cache toggle (default on; per-entry
        ``cache:`` overrides).  The cache lives under
        ``<output_dir>/cache/`` unless ``cache_dir`` points elsewhere.
    trace:
        When true, each entry writes a JSON-lines telemetry trace to
        ``<output_dir>/<entry>/trace.jsonl``.
    """

    def __init__(
        self,
        output_dir: str | Path = "results",
        options: SearchOptions | None = None,
        use_cache: bool = True,
        cache_dir: str | Path | None = None,
        trace: bool = False,
    ) -> None:
        self.output_dir = Path(output_dir)
        self.options = options if options is not None else SearchOptions()
        self.use_cache = use_cache
        self.cache_dir = Path(cache_dir) if cache_dir else self.output_dir / "cache"
        self.trace = trace

    def run_file(self, path: str | Path) -> list[HarnessReport]:
        """Run every entry of a YAML configuration file."""
        return [self.run_entry(entry) for entry in load_config(path)]

    def run_entry(self, entry: HarnessConfig) -> HarnessReport:
        """Deploy one benchmark and run all its configured analyses."""
        bench = get_benchmark(entry.benchmark)
        quality = self._quality_for(bench, entry)
        report = HarnessReport(
            name=entry.name,
            benchmark=bench.name,
            metric=quality.metric,
            threshold=quality.threshold,
        )
        bench.inputs()  # "build": generate inputs / data files
        options = replace(
            self.options, time_limit_seconds=entry.time_limit_hours * 3600.0,
            **entry.options,
        )
        executor = options.make_executor()
        cache_on = entry.cache if entry.cache is not None else self.use_cache
        cache = EvaluationCache(self.cache_dir) if cache_on else None
        trace = (
            TraceWriter(self.output_dir / entry.name / "trace.jsonl")
            if self.trace else None
        )
        app = DeployedApp(
            benchmark=bench,
            quality=quality,
            runs_per_config=entry.runs or bench.runs_per_config,
            time_limit_seconds=options.time_limit_seconds,
            output_dir=self.output_dir / entry.name,
            executor=executor,
            cache=cache,
            trace=trace,
            options=options,
        )
        try:
            for spec in entry.analyses:
                plugin = get_plugin(spec.plugin)
                result = plugin.analysis(app, **dict(spec.extra_args))
                report.analyses.append(
                    self._verify(spec.identifier, spec.plugin, bench, quality, result)
                )
        finally:
            executor.close()
            if trace is not None:
                trace.close()
        return report

    @staticmethod
    def _quality_for(bench: Benchmark, entry: HarnessConfig) -> QualitySpec:
        metric = entry.metric or bench.metric
        threshold = entry.threshold if entry.threshold is not None else bench.default_threshold
        return QualitySpec(metric, threshold)

    def _verify(
        self,
        identifier: str,
        plugin_name: str,
        bench: Benchmark,
        quality: QualitySpec,
        result: AnalysisResult,
    ) -> AnalysisReport:
        """Re-run the tuned configuration for final quality/timing —
        the harness's own evaluation step, independent of whatever the
        search measured along the way."""
        outcome = result.outcome
        report = AnalysisReport(
            identifier=identifier,
            plugin=plugin_name,
            strategy=outcome.strategy,
            artifact=result.artifact,
            evaluations=outcome.evaluations,
            analysis_hours=outcome.analysis_seconds / 3600.0,
            timed_out=outcome.timed_out,
            found_solution=outcome.found_solution,
            eval_stats=dict(outcome.metadata.get("eval_stats") or {}),
            prune=dict(outcome.metadata.get("prune") or {}),
            shadow=dict(outcome.metadata.get("shadow") or {}),
            screen=dict(outcome.metadata.get("screen") or {}),
        )
        if not outcome.found_solution:
            return report
        config = outcome.final.config
        baseline = bench.baseline()
        tuned = bench.execute(config)
        report.error_value = quality.measure(baseline.output, tuned.output)
        base_t = measured_seconds(
            baseline.modeled_seconds, "baseline:" + PrecisionConfig().digest(),
            bench.runs_per_config,
        )
        tuned_t = measured_seconds(
            tuned.modeled_seconds, config.digest(), bench.runs_per_config,
        )
        report.speedup = base_t / tuned_t if tuned_t > 0 else math.nan
        report.config = config
        return report
