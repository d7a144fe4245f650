"""General linear recurrence equation kernel.

Solves a prefix-sum style linear recurrence with ping-pong state
buffers; both buffers additionally pass through the recurrence and
rescaling helpers, so all four entities share one cluster: TV=4, TC=1
(paper Table II).

Inputs are dyadic rationals with small magnitude, so the recurrence is
*exact* in single precision — every configuration verifies with zero
error, reproducing the paper's 0.0 quality entries for this kernel.
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import KernelBenchmark, register_benchmark


def recurrence(ws, w):
    """One doubling step of the linear recurrence s[i] += s[i - k]."""
    half = len(w) // 2
    w[half:] = w[half:] + w[:half]


def rescale(ws, v):
    """Damp the running state to keep magnitudes bounded (dyadic)."""
    v[:] = v * 0.5


def kernel(ws, sa, n, levels):
    """General linear recurrence via recursive doubling."""
    sa = ws.array("sa", init=sa)
    sb = ws.array("sb", n)
    for _ in range(levels):
        recurrence(ws, sa)
        rescale(ws, sa)
        sb[:] = sa
        sa, sb = sb, sa
    return sa


@register_benchmark
class GenLinRecur(KernelBenchmark):
    """gen-lin-recur: general linear recurrence equation (TV=4, TC=1)."""

    name = "gen-lin-recur"
    description = "General linear recurrence equation"
    module_name = "repro.benchmarks.kernels.gen_lin_recur"
    entry = "kernel"
    nominal_seconds = 1.0

    def setup(self, n=4_096, levels=4):
        rng = np.random.default_rng(self.seed)
        return {"sa": rng.integers(-8, 9, n) / 16.0, "n": n, "levels": levels}
