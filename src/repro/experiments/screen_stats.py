"""Certified-screening statistics — unscreened vs ``--screen``.

For a fixed set of (program, algorithm) pairs this experiment runs the
same search twice through the ordinary
:class:`~repro.core.evaluator.ConfigurationEvaluator`: once plain
(byte-identical to the paper-reproduction runs) and once with the
static error-bound certificate
(:func:`repro.typeforge.errorbound.certify_benchmark`) attached as a
screening filter.  The table reports evaluation counts and best
verified errors side by side; ``skipped`` is how many configurations
the certificate rejected without running.  Screening is sound by
construction — it only skips configurations whose certified error
*lower bound* already violates the threshold, never accepts one — so
the ``equal`` column must read ``yes`` on every row.
"""

from __future__ import annotations

import math

from repro.benchmarks.base import get_benchmark
from repro.harness.options import SearchOptions, build_evaluator
from repro.harness.reporting import format_quality, format_table, write_csv
from repro.search.registry import make_strategy

__all__ = ["rows", "render", "run", "HEADERS", "PAIRS"]

HEADERS = (
    "Program", "Algorithm", "EV", "EV(screen)", "saved", "skipped",
    "err", "err(screen)", "equal",
)

#: the comparison matrix: the bit-width bisection (where the
#: certificate both screens doomed widths and seeds the bisection
#: ladder) plus the hierarchical and delta-debugging searches at their
#: default fp32-target thresholds (where screening stays quiet — the
#: rows double as a no-regression check)
PAIRS = (
    ("hpccg", "BW"),
    ("kmeans", "BW"),
    ("blackscholes", "BW"),
    ("lavamd", "BW"),
    ("hpccg", "HR"),
    ("blackscholes", "HR"),
    ("lavamd", "DD"),
)


def _search(program: str, algorithm: str, screened: bool):
    evaluator = build_evaluator(
        get_benchmark(program), None, SearchOptions(screen=screened),
    )
    outcome = make_strategy(algorithm).run(evaluator)
    return outcome, evaluator.stats.screened


def rows() -> list[list]:
    out = []
    for program, algorithm in PAIRS:
        plain, _ = _search(program, algorithm, screened=False)
        screened, skipped = _search(program, algorithm, screened=True)
        err = plain.error_value
        err_screen = screened.error_value
        equal = (err == err_screen) or (math.isnan(err) and math.isnan(err_screen))
        out.append([
            program, algorithm,
            plain.evaluations, screened.evaluations,
            plain.evaluations - screened.evaluations, skipped,
            format_quality(err), format_quality(err_screen),
            "yes" if equal else "no",
        ])
    return out


def _render(table: list[list]) -> str:
    return format_table(
        HEADERS, table,
        "Certified screening: evaluations plain vs --screen",
    )


def render() -> str:
    return _render(rows())


def run(results_dir="results") -> str:
    table = rows()  # the searches run once; text and CSV share them
    write_csv(f"{results_dir}/screen_stats.csv", HEADERS, table)
    return _render(table)
