"""1-D hydrodynamics fragment kernel (Livermore loop 1 structure).

``x[k] = q + y[k] * (r * z[k+10] + t * z[k+11])`` — the state pair
(x, y) shares the halo-exchange helper, and the source field z shares
the scaling helper with the coefficient table: TV=6, TC=2
(paper Table II: {x, y, u} and {z, coef, c}).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import KernelBenchmark, register_benchmark


def halo(ws, u):
    """Periodic boundary exchange on a state field."""
    u[0] = u[-2]
    u[-1] = u[1]


def scale_field(ws, c):
    """Uniform damping applied to source terms and coefficients."""
    c[:] = c * 0.5


def kernel(ws, y, z, n, steps):
    """Hydrodynamics fragment sweep."""
    y = ws.array("y", init=y)
    z = ws.array("z", init=z)
    x = ws.array("x", n + 2)
    coef = ws.array("coef", init=np.array([0.0625, 0.21, 0.37]))
    scale_field(ws, z)
    scale_field(ws, coef)
    q = coef[0]
    r = coef[1]
    t = coef[2]
    for _ in range(steps):
        halo(ws, y)
        x[1:-1] = q + y[1:-1] * (r * z[10:n + 10] + t * z[11:n + 11])
        halo(ws, x)
        y[1:-1] = 0.5 * (x[1:-1] + y[1:-1])
    return x


@register_benchmark
class Hydro1D(KernelBenchmark):
    """hydro-1d: hydrodynamics fragment (TV=6, TC=2)."""

    name = "hydro-1d"
    description = "Hydrodynamics fragment"
    module_name = "repro.benchmarks.kernels.hydro_1d"
    entry = "kernel"
    nominal_seconds = 2.0

    def setup(self, n=60_000, steps=5):
        rng = np.random.default_rng(self.seed)
        return {
            "y": 0.25 * rng.standard_normal(n + 2),
            "z": 0.25 * rng.standard_normal(n + 12),
            "n": n, "steps": steps,
        }
