"""Planckian distribution kernel (Livermore loop 13 structure).

``w[k] = x[k] / (exp(u[k]/v[k]) - 1)`` with the classic ``expmax``
overflow guard.  All four field arrays pass through the same radiance
helper (one five-entity cluster) and the guard is a scalar singleton:
TV=6, TC=2 (paper Table II).

The transcendental dominates the modeled runtime and libm costs the
same in either precision, so no configuration speeds this kernel up;
moreover single-precision ``exp`` perturbs the output above the strict
1e-8 kernel threshold, so — as in the paper — the searches fall back
to configurations that change nothing numerically (quality 0.0).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import KernelBenchmark, register_benchmark


def radiate(ws, field):
    """Shared pre-scaling of all radiance fields."""
    field[:] = field * 0.5


def kernel(ws, u, v, x, n, steps):
    """Planckian distribution evaluation."""
    u = ws.array("u", init=u)
    v = ws.array("v", init=v)
    x = ws.array("x", init=x)
    w = ws.array("w", n)
    expmax = ws.scalar("expmax", 20.0)
    radiate(ws, u)
    radiate(ws, v)
    radiate(ws, x)
    radiate(ws, w)
    for _ in range(steps):
        y = np.minimum(expmax, u / v)
        w[:] = x / (np.exp(y) - 1.0)
    return w


@register_benchmark
class Planckian(KernelBenchmark):
    """planckian: Planckian distribution (TV=6, TC=2)."""

    name = "planckian"
    description = "Planckian distribution"
    module_name = "repro.benchmarks.kernels.planckian"
    entry = "kernel"
    nominal_seconds = 1.0

    def setup(self, n=20_000, steps=2):
        rng = np.random.default_rng(self.seed)
        return {
            "u": 2.0 + rng.random(n),
            "v": 1.0 + rng.random(n),
            "x": 2.0 + 2.0 * rng.random(n),
            "n": n, "steps": steps,
        }
