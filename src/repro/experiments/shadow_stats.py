"""Shadow-guided search statistics — unguided vs ``--order shadow``.

For a fixed set of (program, algorithm) pairs this experiment runs the
same search twice through the ordinary
:class:`~repro.core.evaluator.ConfigurationEvaluator`: once unguided
(byte-identical to the paper-reproduction runs) and once with the
location ordering of a single shadow-sensitivity run
(:func:`repro.shadow.report.shadow_guidance`) attached.  The table
reports the evaluation counts and best verified errors side by side;
``saved`` is the number of evaluations the one extra instrumented run
bought.  The guided search never accepts a configuration the evaluator
did not verify — guidance only reorders what gets tried first.
"""

from __future__ import annotations

import math

from repro.benchmarks.base import get_benchmark
from repro.harness.options import SearchOptions, build_evaluator
from repro.harness.reporting import format_quality, format_table, write_csv
from repro.search.registry import make_strategy

__all__ = ["rows", "render", "run", "HEADERS", "PAIRS"]

HEADERS = (
    "Program", "Algorithm", "EV", "EV(shadow)", "saved",
    "err", "err(shadow)", "equal",
)

#: the comparison matrix: delta-debugging where sensitive-first
#: ordering shortens the ddmin shrink, the hierarchical searches
#: (variable-level HR and cluster-aware HRC) whose sibling order the
#: shadow scores rearrange
PAIRS = (
    ("eos", "DD"),
    ("planckian", "DD"),
    ("hpccg", "HR"),
    ("lavamd", "HR"),
    ("blackscholes", "HR"),
    ("hpccg", "HRC"),
    ("blackscholes", "HRC"),
)


def _search(program: str, algorithm: str, guided: bool):
    evaluator = build_evaluator(
        get_benchmark(program), None, SearchOptions(shadow=guided),
    )
    return make_strategy(algorithm).run(evaluator)


def rows() -> list[list]:
    out = []
    for program, algorithm in PAIRS:
        unguided = _search(program, algorithm, guided=False)
        guided = _search(program, algorithm, guided=True)
        err = unguided.error_value
        err_shadow = guided.error_value
        equal = (err == err_shadow) or (math.isnan(err) and math.isnan(err_shadow))
        out.append([
            program, algorithm,
            unguided.evaluations, guided.evaluations,
            unguided.evaluations - guided.evaluations,
            format_quality(err), format_quality(err_shadow),
            "yes" if equal else "no",
        ])
    return out


def _render(table: list[list]) -> str:
    return format_table(
        HEADERS, table,
        "Shadow guidance: evaluations unguided vs --order shadow",
    )


def render() -> str:
    return _render(rows())


def run(results_dir="results") -> str:
    table = rows()  # the searches run once; text and CSV share them
    write_csv(f"{results_dir}/shadow_stats.csv", HEADERS, table)
    return _render(table)
