"""Incomplete Cholesky conjugate gradient fragment (Livermore loop 2).

The classic ICCG excerpt halves the active vector length each level,
reading from one buffer and writing the other, then swapping — so the
two buffers form a single cluster: TV=2, TC=1 (paper Table II).
"""

import numpy as np

from repro.benchmarks.base import KernelBenchmark, register_benchmark


def kernel(ws, x, n, passes):
    """ICCG reduction sweeps over a ping-pong vector pair."""
    x = ws.array("x", init=x)
    v = ws.array("v", n)
    for _ in range(passes):
        m = n
        while m > 256:
            half = m // 2
            v[:half] = x[:m:2] - 0.4375 * (x[1:m:2] + x[:m:2])
            x, v = v, x
            m = half
        x[:n] = x[:n] * 0.96875
    return x


@register_benchmark
class Iccg(KernelBenchmark):
    """iccg: incomplete Cholesky conjugate gradient (TV=2, TC=1)."""

    name = "iccg"
    description = "Incomplete Cholesky conjugate gradient"
    module_name = "repro.benchmarks.kernels.iccg"
    entry = "kernel"
    nominal_seconds = 2.0

    def setup(self, n=131_072, passes=4):
        rng = np.random.default_rng(self.seed)
        return {"x": 0.125 * rng.standard_normal(n), "n": n, "passes": passes}
