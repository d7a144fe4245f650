"""Integrate predictor kernel (Livermore loop 10 structure).

Four state tables flow through a chain of three helpers (predict →
correct → advance) whose shared parameters unify them into one
seven-entity cluster; the weight table and its helper parameter form a
second cluster: TV=9, TC=2 (paper Table II).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import KernelBenchmark, register_benchmark


def predict(ws, s1):
    """Predictor stage: extrapolate from the previous differences."""
    s1[1:] = s1[1:] + 0.5 * (s1[1:] - s1[:-1])


def correct(ws, s2):
    """Corrector stage: pull the state back toward its mean."""
    s2[:-1] = 0.75 * s2[:-1] + 0.25 * s2[1:]


def advance(ws, s3):
    """Advance stage: damped time step."""
    s3[:] = s3 * 0.9375


def apply_weights(ws, w):
    """Normalise the integration weights in place."""
    w[:] = w * 0.1


def kernel(ws, px, cx, ex, gx, steps):
    """Integrate predictor over four coupled state tables."""
    px = ws.array("px", init=px)
    cx = ws.array("cx", init=cx)
    ex = ws.array("ex", init=ex)
    gx = ws.array("gx", init=gx)
    wts = ws.array("wts", init=np.array([1.0, 2.0, 3.0, 4.0]))
    apply_weights(ws, wts)
    for _ in range(steps):
        predict(ws, px)
        predict(ws, cx)
        correct(ws, cx)
        correct(ws, ex)
        advance(ws, ex)
        advance(ws, gx)
        px[:] = px + wts[0] * cx + wts[1] * ex + wts[2] * gx
    return px


@register_benchmark
class IntPredict(KernelBenchmark):
    """int-predict: integrate predictors (TV=9, TC=2)."""

    name = "int-predict"
    description = "Integrate predictors"
    module_name = "repro.benchmarks.kernels.int_predict"
    entry = "kernel"
    nominal_seconds = 2.0

    def setup(self, n=50_000, steps=3):
        rng = np.random.default_rng(self.seed)
        return {
            "px": 0.0078125 * rng.standard_normal(n),
            "cx": 0.0078125 * rng.standard_normal(n),
            "ex": 0.0078125 * rng.standard_normal(n),
            "gx": 0.0078125 * rng.standard_normal(n),
            "steps": steps,
        }
