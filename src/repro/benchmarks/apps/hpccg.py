"""HPCCG: preconditioned conjugate-gradient mini-app (Mantevo origin).

Solves a symmetric positive-definite sparse system arising from a
27-point-stencil-like PDE discretisation with plain conjugate
gradients.  The matrix lives in CSR format; its integer index arrays
are untouched by precision configurations, and the x-gather in the
SpMV is latency-bound, so lowering the floating data barely moves the
runtime (paper Table IV: speedup 1.00, quality loss 2.0e-6).

The CG vectors flow through the SpMV/ddot/waxpby helpers in
``hpccg_ops``, whose parameters unify them into a few large clusters —
strong clustering, like the paper's Table II row (TV=54, TC=27).

Verification: MAE over the returned solution vector.
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.apps.hpccg_ops import ddot, sparsemv, waxpby
from repro.benchmarks.base import ApplicationBenchmark, register_benchmark


def cg_solve(ws, vals, b, x, r, p, ap, cols, row_start, max_iter):
    """Unpreconditioned CG iteration (the HPCCG main loop)."""
    waxpby(ws, 1.0, b, 0.0, b, r)        # r = b  (x starts at zero)
    waxpby(ws, 1.0, r, 0.0, r, p)        # p = r
    rtrans = ddot(ws, r, r)
    for _ in range(max_iter):
        sparsemv(ws, vals, p, ap, cols, row_start)
        ptap = ddot(ws, p, ap)
        alpha = ws.scalar("alpha", rtrans / ptap)
        waxpby(ws, 1.0, x, alpha, p, x)  # x += alpha p
        waxpby(ws, 1.0, r, -alpha, ap, r)  # r -= alpha Ap
        oldtrans = ws.scalar("oldtrans", rtrans)
        rtrans = ddot(ws, r, r)
        beta = ws.scalar("beta", rtrans / oldtrans)
        waxpby(ws, 1.0, r, beta, p, p)   # p = r + beta p
    return x


def run(ws, vals, b, n, max_iter, cols, row_start):
    """Run CG on the system ``vals``/``b``, return the solution vector."""
    vals = ws.array("vals", init=vals)
    b = ws.array("b", init=b)
    x = ws.array("x", n)
    r = ws.array("r", n)
    p = ws.array("p", n)
    ap = ws.array("ap", n)
    x = cg_solve(ws, vals, b, x, r, p, ap, cols, row_start, max_iter)
    return x


@register_benchmark
class Hpccg(ApplicationBenchmark):
    """hpccg: conjugate-gradient PDE solver (Mantevo)."""

    name = "hpccg"
    description = "Preconditioned conjugate gradient linear solver"
    module_name = "repro.benchmarks.apps.hpccg"
    extra_module_names = ("repro.benchmarks.apps.hpccg_ops",)
    entry = "run"
    metric = "MAE"
    nominal_seconds = 40.0
    compile_seconds = 20.0

    def setup(self, n=16_384, nnz_per_row=8, max_iter=12):
        draws = np.random.default_rng(self.seed)
        vals = -(0.5 / nnz_per_row) * draws.random(n * nnz_per_row)
        vals[::nnz_per_row] = 4.0         # dominant diagonal (first in row)
        b = 200.0 * draws.random(n)
        rng = np.random.default_rng(self.seed + 1)
        # Diagonal first, then random off-diagonal neighbours: the
        # pattern of a stencil matrix flattened to CSR.
        cols = np.empty(n * nnz_per_row, dtype=np.int32)
        for i in range(nnz_per_row):
            if i == 0:
                cols[::nnz_per_row] = np.arange(n, dtype=np.int32)
            else:
                cols[i::nnz_per_row] = rng.integers(0, n, n, dtype=np.int32)
        row_start = np.arange(0, n * nnz_per_row, nnz_per_row, dtype=np.int32)
        return {
            "vals": vals,
            "b": b,
            "n": n,
            "max_iter": max_iter,
            "cols": cols,
            "row_start": row_start,
        }
