"""Tridiagonal linear systems solution kernel.

A cyclic-reduction style tridiagonal elimination whose forward and
backward sweeps run through the same helper, unifying the two vectors
with the helper parameter: TV=3, TC=1 (paper Table II).

Dyadic inputs keep the elimination exact in single precision (quality
0.0 in the paper's Table III) and the short vectors leave no room for
speedup (SU ≈ 1.0).
"""

import numpy as np

from repro.benchmarks.base import KernelBenchmark, register_benchmark


def sweep(ws, vec):
    """One damped elimination sweep over a vector."""
    vec[1:] = vec[1:] - 0.5 * vec[:-1]


def kernel(ws, y, n, passes):
    """Tridiagonal solve: forward elimination + back substitution."""
    y = ws.array("y", init=y)
    x = ws.array("x", n)
    for _ in range(passes):
        sweep(ws, y)
        x[:] = y * 0.5
        sweep(ws, x)
    return x


@register_benchmark
class Tridiag(KernelBenchmark):
    """tridiag: tridiagonal linear systems solution (TV=3, TC=1)."""

    name = "tridiag"
    description = "Tridiagonal linear systems solution"
    module_name = "repro.benchmarks.kernels.tridiag"
    entry = "kernel"
    nominal_seconds = 0.5

    def setup(self, n=2_048, passes=2):
        rng = np.random.default_rng(self.seed)
        return {"y": rng.integers(-8, 9, n) / 16.0, "n": n, "passes": passes}
