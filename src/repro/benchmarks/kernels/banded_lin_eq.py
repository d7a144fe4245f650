"""Banded linear systems solution kernel.

An iterative banded solver that relaxes a tridiagonal-band system with
ping-pong buffers.  The two state arrays ``x`` and ``v`` are swapped
each sweep — the C pointer-swap idiom — so Typeforge places them in a
single cluster: TV=2, TC=1 (paper Table II).

The arrays are sized so the double-precision working set spills out of
the modeled last-level cache while the single-precision one fits; this
is the cache-residency effect that gives the kernel its outsized
speedup in the paper's Table III (≈4.5x, far above the 2x SIMD bound).
"""

import numpy as np

from repro.benchmarks.base import KernelBenchmark, register_benchmark


def kernel(ws, x, n, sweeps):
    """Relax a banded system ``A·u = b`` with Jacobi sweeps.

    The band coefficients are compile-time literals (Python floats act
    as weakly-typed C literals under NEP-50), so the only floating
    state is the ping-pong solution pair.
    """
    x = ws.array("x", init=x)
    v = ws.array("v", n)
    for _ in range(sweeps):
        v[1:-1] = 0.2475 * (x[:-2] + x[2:]) + 0.005 * x[1:-1]
        v[0] = 0.2475 * x[1]
        v[-1] = 0.2475 * x[-2]
        x, v = v, x
    return x


@register_benchmark
class BandedLinEq(KernelBenchmark):
    """banded-lin-eq: banded linear systems solution (TV=2, TC=1)."""

    name = "banded-lin-eq"
    description = "Banded linear systems solution"
    module_name = "repro.benchmarks.kernels.banded_lin_eq"
    entry = "kernel"
    nominal_seconds = 4.0

    def setup(self, n=900_000, sweeps=4):
        # 2 arrays x 900k doubles = 14.4 MB: past the 12 MB modeled LLC
        # in double precision, inside it (7.2 MB) in single.
        rng = np.random.default_rng(self.seed)
        return {"x": 0.1 * rng.standard_normal(n), "n": n, "sweeps": sweeps}
