"""Paper-vs-measured comparison report.

Joins the transcribed published numbers (:mod:`paper_data`) with the
reproduction's measurements and reports, per artifact, whether the
*shape* holds — the reproduction's acceptance criterion ("who wins, by
roughly what factor, where crossovers fall"), since absolute numbers
come from different machines (a Xeon vs our roofline model).

Checks performed:

* Table II — kernel TV/TC equality; application clustering-strength
  ordering (Blackscholes weakest, CFD strongest).
* Table III — per-kernel DD speedup within a factor band of the
  paper's; zero-quality rows match.
* Table IV — speedup rank agreement across the applications
  (Spearman), plus the categorical rows (SRAD NaN, K-means 0).
"""

from __future__ import annotations

import math

from repro.benchmarks.base import (
    application_benchmarks, get_benchmark, kernel_benchmarks,
)
from repro.core.evaluator import measured_seconds
from repro.core.types import Precision, PrecisionConfig
from repro.experiments import paper_data
from repro.experiments.context import KERNEL_THRESHOLD, ExperimentContext
from repro.harness.reporting import format_table, write_csv
from repro.verify.metrics import get_metric

__all__ = ["rows", "render", "run", "spearman", "HEADERS"]

HEADERS = ("artifact", "check", "paper", "measured", "verdict")


def spearman(xs: list[float], ys: list[float]) -> float:
    """Spearman rank correlation (no scipy dependency needed)."""
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        for rank, index in enumerate(order):
            out[index] = float(rank)
        return out

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    if n < 2:
        return 1.0
    mean = (n - 1) / 2.0
    cov = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    var = sum((a - mean) ** 2 for a in rx)
    return cov / var if var else 1.0


def _measured_table4() -> dict[str, tuple[float, float]]:
    out = {}
    for name in application_benchmarks():
        bench = get_benchmark(name)
        baseline = bench.baseline()
        single = bench.execute_manual(Precision.SINGLE)
        loss = get_metric(bench.metric)(baseline.output, single.output)
        base_t = measured_seconds(
            baseline.modeled_seconds, "baseline:" + PrecisionConfig().digest(),
            bench.runs_per_config,
        )
        config = bench.search_space().uniform_config(Precision.SINGLE)
        single_t = measured_seconds(
            single.modeled_seconds, "manual:" + config.digest(),
            bench.runs_per_config,
        )
        out[name] = (base_t / single_t, loss)
    return out


def rows(ctx: ExperimentContext) -> list[list[str]]:
    out: list[list[str]] = []

    # -- Table II ---------------------------------------------------------
    kernel_exact = True
    for name in kernel_benchmarks():
        report = get_benchmark(name).report()
        measured = (report.total_variables, report.total_clusters)
        if measured != paper_data.TABLE2[name]:
            kernel_exact = False
    out.append([
        "Table II", "kernel TV/TC match the paper exactly",
        "10/10 rows", "10/10 rows" if kernel_exact else "mismatch",
        "PASS" if kernel_exact else "FAIL",
    ])

    ratios = {}
    for name in application_benchmarks():
        report = get_benchmark(name).report()
        ratios[name] = report.total_clusters / report.total_variables
    paper_ratios = {
        name: tc / tv
        for name, (tv, tc) in paper_data.TABLE2.items()
        if name in ratios
    }
    ordering_holds = (
        max(ratios, key=ratios.get) == max(paper_ratios, key=paper_ratios.get)
        and min(ratios, key=ratios.get) == min(paper_ratios, key=paper_ratios.get)
    )
    out.append([
        "Table II", "weakest/strongest clustering apps",
        f"{max(paper_ratios, key=paper_ratios.get)}/"
        f"{min(paper_ratios, key=paper_ratios.get)}",
        f"{max(ratios, key=ratios.get)}/{min(ratios, key=ratios.get)}",
        "PASS" if ordering_holds else "FAIL",
    ])

    # -- Table III --------------------------------------------------------
    ctx.kernel_grid()
    within_band = 0
    total = 0
    zero_rows_match = True
    for name in kernel_benchmarks():
        outcome = ctx.outcome(name, "DD", KERNEL_THRESHOLD)
        paper_su = paper_data.TABLE3_SU[name][2]
        if paper_su is None or outcome is None:
            continue
        total += 1
        if outcome.speedup <= paper_su * 1.6 + 0.2 and \
                outcome.speedup >= paper_su / 1.6 - 0.2:
            within_band += 1
        paper_zero = paper_data.TABLE3_QUALITY[name][2] == 0.0
        measured_zero = outcome.error_value == 0.0
        if paper_zero != measured_zero:
            zero_rows_match = False
    out.append([
        "Table III", "DD speedups within a 1.6x band of the paper",
        f"{total} kernels", f"{within_band}/{total} within band",
        "PASS" if within_band >= total - 1 else "FAIL",
    ])
    out.append([
        "Table III", "zero-error kernels coincide",
        "5 exact rows", "match" if zero_rows_match else "mismatch",
        "PASS" if zero_rows_match else "FAIL",
    ])

    # -- Table IV ---------------------------------------------------------
    measured4 = _measured_table4()
    names = sorted(measured4)
    rho = spearman(
        [paper_data.TABLE4[name][0] for name in names],
        [measured4[name][0] for name in names],
    )
    out.append([
        "Table IV", "application speedup rank agreement (Spearman)",
        "1.00", f"{rho:.2f}", "PASS" if rho >= 0.6 else "FAIL",
    ])
    srad_nan = math.isnan(measured4["srad"][1]) and \
        math.isnan(paper_data.TABLE4["srad"][2])
    out.append([
        "Table IV", "SRAD single-precision output destroyed",
        "NaN", "NaN" if srad_nan else f"{measured4['srad'][1]:.1e}",
        "PASS" if srad_nan else "FAIL",
    ])
    kmeans_zero = measured4["kmeans"][1] == 0.0
    out.append([
        "Table IV", "K-means misclassification rate",
        "0", "0" if kmeans_zero else f"{measured4['kmeans'][1]:.2e}",
        "PASS" if kmeans_zero else "FAIL",
    ])
    lavamd_top = max(measured4, key=lambda n: measured4[n][0]) == "lavamd"
    out.append([
        "Table IV", "LavaMD has the largest conversion speedup",
        "2.66 (max)", f"{measured4['lavamd'][0]:.2f} "
        f"({'max' if lavamd_top else 'not max'})",
        "PASS" if lavamd_top else "FAIL",
    ])
    return out


def render(ctx: ExperimentContext) -> str:
    return format_table(
        HEADERS, rows(ctx), "Paper-vs-measured shape comparison",
    )


def run(ctx: ExperimentContext, results_dir="results") -> str:
    text = render(ctx)
    write_csv(f"{results_dir}/compare.csv", HEADERS, rows(ctx))
    return text
