"""Emulated-format footprint statistics — ``--strategy BW`` vs the
best built-in-dtype configuration.

For a fixed set of programs this experiment runs two searches through
the ordinary :class:`~repro.core.evaluator.ConfigurationEvaluator`:

* a standard search over the built-in ``{fp16, fp32, fp64}`` levels
  (delta debugging, the suite's workhorse strategy), and
* the bit-width bisection strategy (``BW``) over the emulated
  ``e8m{2..23}`` width ladder (see docs/precision-formats.md), which
  binary-searches the minimal passing mantissa width per cluster.

Both final configurations are then re-executed and verified against
the same threshold, and the table compares their *modeled* peak
footprints — emulated formats store ``1 + 8 + m`` bits per element in
the machine model, so a cluster that bisection settles at ``e8m7`` or
below is strictly cheaper than fp16.  ``smaller`` records whether the
BW configuration beat the best standard configuration's footprint at
equal verified quality (both passing the same threshold).
"""

from __future__ import annotations

from repro.benchmarks.base import get_benchmark
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.types import PrecisionConfig
from repro.harness.reporting import format_quality, format_table, write_csv
from repro.search.registry import make_strategy

__all__ = ["rows", "render", "run", "HEADERS", "PROGRAMS", "STANDARD_ALGORITHM"]

HEADERS = (
    "Program", "EV(std)", "EV(BW)", "KiB(std)", "KiB(BW)", "saved",
    "err(std)", "err(BW)", "passed", "smaller",
)

#: the standard-levels baseline each BW result is compared against
STANDARD_ALGORITHM = "DD"

#: representative programs: two analytic kernels, one solver, one
#: clustering app, one stencil — the same five the formats golden
#: suite pins search-space sizes and trial counts for
PROGRAMS = ("eos", "planckian", "blackscholes", "kmeans", "hpccg")


def _footprint(bench, config) -> int:
    """Modeled peak footprint of one verified re-execution."""
    return int(bench.execute(config).profile.peak_footprint)


def _verified_error(bench, config) -> float:
    baseline = bench.baseline()
    tuned = bench.execute(config)
    return bench.quality.measure(baseline.output, tuned.output)


def rows() -> list[list]:
    out = []
    for program in PROGRAMS:
        bench = get_benchmark(program)
        std = make_strategy(STANDARD_ALGORITHM).run(ConfigurationEvaluator(bench))
        bw = make_strategy("BW").run(ConfigurationEvaluator(bench))
        std_config = std.final.config if std.found_solution else PrecisionConfig()
        bw_config = bw.final.config if bw.found_solution else PrecisionConfig()
        std_bytes = _footprint(bench, std_config)
        bw_bytes = _footprint(bench, bw_config)
        std_err = _verified_error(bench, std_config)
        bw_err = _verified_error(bench, bw_config)
        threshold = bench.default_threshold
        passed = std_err <= threshold and bw_err <= threshold
        smaller = passed and bw_bytes < std_bytes
        saved = 1.0 - (bw_bytes / std_bytes) if std_bytes else 0.0
        out.append([
            program,
            std.evaluations, bw.evaluations,
            f"{std_bytes / 1024:.1f}", f"{bw_bytes / 1024:.1f}",
            f"{saved:.1%}",
            format_quality(std_err), format_quality(bw_err),
            "yes" if passed else "no",
            "yes" if smaller else "no",
        ])
    return out


def _render(table: list[list]) -> str:
    return format_table(
        HEADERS, table,
        "Emulated formats: BW bisection vs best {fp16,fp32,fp64} config",
    )


def render() -> str:
    return _render(rows())


def run(results_dir="results") -> str:
    table = rows()  # the searches run once; text and CSV share them
    write_csv(f"{results_dir}/format_stats.csv", HEADERS, table)
    return _render(table)
