"""Inner product kernel.

A chunked dot product with a typed accumulator.  The operand arrays
may alias (the self-product fast path assigns ``x = z``, the C pointer
assignment), which places them in one cluster; the accumulator is a
scalar in its own singleton: TV=3, TC=2 (paper Table II).

Operands are small dyadic integers, so every precision configuration
produces an exact result (quality 0.0, as in the paper's Table III),
and the chunked loop makes per-call overhead dominate — no
configuration gains a real speedup (SU ≈ 1.0).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import KernelBenchmark, register_benchmark


def kernel(ws, z, x, n, chunks, self_product):
    """Chunked inner product q = Σ x[k]·z[k]."""
    z = ws.array("z", init=z)
    x = ws.array("x", init=x)
    if self_product:
        x = z
    q = ws.scalar("q", 0.0)
    step = n // chunks
    for c in range(chunks):
        lo = c * step
        q = q + np.dot(x[lo:lo + step], z[lo:lo + step])
    return np.asarray([q])


@register_benchmark
class InnerProd(KernelBenchmark):
    """innerprod: inner product (TV=3, TC=2)."""

    name = "innerprod"
    description = "Inner product"
    module_name = "repro.benchmarks.kernels.innerprod"
    entry = "kernel"
    nominal_seconds = 0.5

    def setup(self, n=8_192, chunks=32, self_product=False):
        rng = np.random.default_rng(self.seed)
        return {
            "z": rng.integers(-6, 7, n).astype(np.float64),
            "x": rng.integers(-6, 7, n).astype(np.float64),
            "n": n, "chunks": chunks, "self_product": self_product,
        }
