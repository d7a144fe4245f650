#!/usr/bin/env python3
"""Extend the suite: bring your own benchmark.

HPC-MixPBench's design goal (2) is "extensible interfaces for
integrating new approximation techniques" — and new *programs*.  This
script shows the full path for a user code:

1. write the compute kernel in the constrained MPB style (here: a
   damped Jacobi smoother, defined inline);
2. run the Typeforge analysis on its source to get variables/clusters;
3. wrap it in a tiny Program adapter that draws the random inputs
   once, so every configuration runs on the same data;
4. tune it with any search strategy.

Run with:  python examples/custom_benchmark.py
"""

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # running from a source checkout without install
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.core import ConfigurationEvaluator, ExecutionResult, Granularity
from repro.runtime import DEFAULT_MACHINE, Workspace
from repro.search import make_strategy
from repro.typeforge import analyze_sources
from repro.verify import QualitySpec

KERNEL_SOURCE = '''
def smooth(ws, grid):
    grid[1:-1] = 0.25 * (grid[:-2] + grid[2:]) + 0.5 * grid[1:-1]

def jacobi(ws, u, rhs, sweeps):
    u = ws.array("u", init=u)
    rhs = ws.array("rhs", init=rhs)
    omega = ws.scalar("omega", 0.8)
    for _ in range(sweeps):
        smooth(ws, u)
        u[1:-1] = u[1:-1] + omega * (rhs[1:-1] - u[1:-1])
    return u
'''

# Make the source importable so the kernel actually runs.
_namespace: dict = {}
exec(compile(KERNEL_SOURCE, "<user-kernel>", "exec"), _namespace)


class JacobiProgram:
    """Minimal Program-protocol adapter around the inline kernel."""

    name = "user-jacobi"
    quality = QualitySpec("MAE", 1e-8)
    runs_per_config = 10
    nominal_seconds = 2.0
    compile_seconds = 10.0

    def __init__(self) -> None:
        self.report = analyze_sources(
            {"user_jacobi": KERNEL_SOURCE}, entry="jacobi", program=self.name,
        )
        rng = np.random.default_rng(42)
        self.inputs = {
            "u": 0.1 * rng.standard_normal(50_000),
            "rhs": 0.05 * rng.standard_normal(50_000),
            "sweeps": 6,
        }

    def search_space(self, granularity=Granularity.CLUSTER):
        return self.report.search_space(granularity)

    def execute(self, config) -> ExecutionResult:
        ws = Workspace(config, name_map=self.report.name_map)
        output = _namespace["jacobi"](ws, **self.inputs)
        return ExecutionResult(
            output=np.asarray(output.data, dtype=np.float64).copy(),
            profile=ws.profile,
            modeled_seconds=DEFAULT_MACHINE.time(ws.profile),
        )


def main() -> None:
    program = JacobiProgram()
    print(f"Custom program {program.name!r}: "
          f"TV={program.report.total_variables}, "
          f"TC={program.report.total_clusters}")
    for cluster in program.report.clusters:
        print(f"  cluster {cluster.cid}: {sorted(cluster.members)}")

    for algorithm in ("CB", "DD", "GA"):
        evaluator = ConfigurationEvaluator(program)
        outcome = make_strategy(algorithm).run(evaluator)
        if outcome.found_solution:
            print(f"{algorithm}: EV={outcome.evaluations:2d}  "
                  f"SU={outcome.speedup:.2f}x  AC={outcome.error_value:.2e}")
        else:
            print(f"{algorithm}: EV={outcome.evaluations:2d}  no solution")


if __name__ == "__main__":
    main()
