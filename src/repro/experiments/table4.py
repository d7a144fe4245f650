"""Table IV — application speedup and quality loss at full single
precision.

"To determine these metrics, we manually changed all applications into
their corresponding single precision versions and we compare the
execution time and the quality with the original double-precision
version."  The manual conversion also rewrites what no tool can touch
(HotSpot's double literal), via each benchmark's ``manual_inputs``
hook.
"""

from __future__ import annotations

from repro.benchmarks.base import application_benchmarks, get_benchmark
from repro.core.evaluator import measured_seconds
from repro.core.types import Precision, PrecisionConfig
from repro.harness.reporting import format_quality, format_table, write_csv
from repro.verify.metrics import get_metric

__all__ = ["rows", "render", "run", "HEADERS"]

HEADERS = ("Application", "Speed Up", "Quality Metric", "Quality Loss")


def rows() -> list[list[str]]:
    out = []
    for name in application_benchmarks():
        bench = get_benchmark(name)
        baseline = bench.baseline()
        single = bench.execute_manual(Precision.SINGLE)
        loss = get_metric(bench.metric)(baseline.output, single.output)
        base_t = measured_seconds(
            baseline.modeled_seconds, "baseline:" + PrecisionConfig().digest(),
            bench.runs_per_config,
        )
        single_config = bench.search_space().uniform_config(Precision.SINGLE)
        single_t = measured_seconds(
            single.modeled_seconds, "manual:" + single_config.digest(),
            bench.runs_per_config,
        )
        out.append([
            name,
            f"{base_t / single_t:.2f}",
            bench.metric,
            format_quality(loss),
        ])
    return out


def render() -> str:
    return format_table(
        HEADERS, rows(),
        "Table IV: speedup and quality loss of manual all-single conversion",
    )


def run(results_dir="results") -> str:
    text = render()
    write_csv(f"{results_dir}/table4.csv", HEADERS, rows())
    return text
