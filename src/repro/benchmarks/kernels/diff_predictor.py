"""Difference predictor kernel.

Computes chained forward differences of three state tables and blends
them into a predictor, the structure of the Livermore difference
predictor loop.  All three tables flow through the same two helper
functions, so their base types are unified with the helpers'
parameters into a single cluster: TV=5, TC=1 (paper Table II).
"""

import numpy as np

from repro.benchmarks.base import KernelBenchmark, register_benchmark


def forward_diff(ws, series):
    """In-place first forward difference, damped to keep values small."""
    series[:-1] = 0.5 * (series[1:] - series[:-1])
    series[-1] = 0.5 * series[-1]


def blend(ws, table):
    """Blend each entry with its neighbour (predictor smoothing)."""
    table[1:] = table[1:] + 0.25 * table[:-1]


def kernel(ws, px, cx, ex, order):
    """Difference predictor over three state tables."""
    px = ws.array("px", init=px)
    cx = ws.array("cx", init=cx)
    ex = ws.array("ex", init=ex)
    for _ in range(order):
        forward_diff(ws, px)
        forward_diff(ws, cx)
        forward_diff(ws, ex)
        blend(ws, px)
        blend(ws, cx)
        blend(ws, ex)
    px[:] = px + 0.5 * cx + 0.25 * ex
    return px


@register_benchmark
class DiffPredictor(KernelBenchmark):
    """diff-predictor: difference predictor (TV=5, TC=1)."""

    name = "diff-predictor"
    description = "Difference predictor"
    module_name = "repro.benchmarks.kernels.diff_predictor"
    entry = "kernel"
    nominal_seconds = 2.0

    def setup(self, n=400_000, order=4):
        rng = np.random.default_rng(self.seed)
        return {
            "px": 0.125 * rng.standard_normal(n),
            "cx": 0.125 * rng.standard_normal(n),
            "ex": 0.125 * rng.standard_normal(n),
            "order": order,
        }
