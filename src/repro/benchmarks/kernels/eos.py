"""Equation-of-state fragment kernel (Livermore loop 7 structure).

Four field arrays flow through two shared helpers (one six-entity
cluster) and the polynomial coefficient table is a function-local
singleton: TV=7, TC=2 (paper Table II).

The fields carry O(1) noise, so converting the field cluster to single
precision breaks the strict 1e-8 kernel threshold; the coefficient
table is dyadic, so converting it alone is numerically *exact*.  The
cluster-level searches therefore settle on the coefficient-only
configuration with quality 0.0 and no speedup — matching the paper's
Table III row — while the variable-level hierarchical searches burn
additional evaluations on non-compiling single-field configurations
before finding the same local solution.
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import KernelBenchmark, register_benchmark


def normalize(ws, field):
    """Shift a field toward the reference state (shared by all fields)."""
    field[:] = field - 0.0625


def smooth(ws, part):
    """Neighbour smoothing applied to the primary state field."""
    part[1:-1] = 0.25 * (part[:-2] + part[2:]) + 0.5 * part[1:-1]


def kernel(ws, u, z, y, n, steps):
    """Equation-of-state update: x = f(u, z, y; q, r, t)."""
    u = ws.array("u", init=u)
    z = ws.array("z", init=z)
    y = ws.array("y", init=y)
    x = ws.array("x", n)
    coef = ws.array("coef", init=np.array([0.5, 0.25, 0.125]))
    normalize(ws, u)
    normalize(ws, z)
    normalize(ws, y)
    normalize(ws, x)
    smooth(ws, u)
    q = coef[0]
    r = coef[1]
    t = coef[2]
    for _ in range(steps):
        x[:] = u[:n] + r * (z + r * y) + t * (
            u[3:n + 3] + r * (u[2:n + 2] + r * u[1:n + 1])
            + t * (u[6:n + 6] + q * (u[5:n + 5] + q * u[4:n + 4]))
        )
    return x


@register_benchmark
class Eos(KernelBenchmark):
    """eos: equation of state fragment (TV=7, TC=2)."""

    name = "eos"
    description = "Equation of state fragment"
    module_name = "repro.benchmarks.kernels.eos"
    entry = "kernel"
    nominal_seconds = 1.0

    def setup(self, n=2_000, steps=2):
        rng = np.random.default_rng(self.seed)
        return {
            "u": rng.standard_normal(n + 8),
            "z": rng.standard_normal(n),
            "y": rng.standard_normal(n),
            "n": n, "steps": steps,
        }
