"""Extension experiment — machine-model sensitivity.

The paper's numbers come from one Xeon; its insights are implicitly
claims about *that* machine.  Because our performance substrate is a
parametric model, we can ask which conclusions survive a hardware
change: the all-single conversion of every application is re-timed on
three modeled machines (the calibrated Xeon, a wider-vector CPU, and
an HBM accelerator with vectorised transcendentals).

Measured shape: LavaMD's headline speedup is a *cache* effect — on the
HBM machine, whose bandwidth dwarfs the working sets, it collapses
from 3.7x to 1.4x; every small-footprint program becomes launch-
overhead-bound there (the accelerator's 5 µs per-kernel cost is
dtype-blind), so Blackscholes gains nothing even though the HBM
machine's transcendentals *do* vectorise.  The paper's per-machine
caveat, quantified.
"""

from __future__ import annotations

from repro.benchmarks.base import application_benchmarks, get_benchmark
from repro.core.types import Precision
from repro.harness.reporting import format_table, write_csv
from repro.runtime.machine import MACHINE_PRESETS

__all__ = ["rows", "render", "run", "HEADERS"]

HEADERS = ("Application", *(f"SU({name})" for name in MACHINE_PRESETS))


def rows() -> list[list[str]]:
    out = []
    for program in application_benchmarks():
        row = [program]
        for machine in MACHINE_PRESETS.values():
            bench = get_benchmark(program, machine=machine)
            baseline = bench.baseline()
            single = bench.execute_manual(Precision.SINGLE)
            row.append(f"{baseline.modeled_seconds / single.modeled_seconds:.2f}")
        out.append(row)
    return out


def render() -> str:
    return format_table(
        HEADERS, rows(),
        "Extension: all-single conversion speedup across modeled machines",
    )


def run(results_dir="results") -> str:
    text = render()
    write_csv(f"{results_dir}/ext_machines.csv", HEADERS, rows())
    return text
