"""HotSpot: thermal simulation of a processor floor plan (Rodinia).

Iteratively solves the heat-dissipation differential equations on a 2D
grid: each cell's next temperature follows from its neighbours, its
power dissipation, and the ambient sink.  State is held as the
*normalised deviation* from ambient (the output the verification
compares), and the solver ping-pongs between two temperature grids.

One term of the stencil multiplies by the module-level ``AMB_COUPLING``
constant, which is a ``numpy.float64`` — the analogue of a C double
literal.  Typeforge does not refactor literals (paper Section IV-B), so
in single-precision configurations that term still promotes to double
and drags casts behind it, capping HotSpot's speedup below the ideal
2x — the paper measures 1.78x manual and ~1.7x tool-found.

Verification: MAE over the final temperature field (paper Table IV:
quality loss 3.08e-10, i.e. HotSpot converts wholesale even at the
strictest 1e-8 threshold).
"""

from __future__ import annotations

import numpy as np

from repro.benchmarks.base import ApplicationBenchmark, register_benchmark

#: C double literal in the stencil — deliberately *not* a workspace
#: variable, so no search algorithm can demote it (paper Section IV-B).
AMB_COUPLING = np.float64(0.0037109375)


def single_iteration(ws, t_in, t_out, p, amb, cap_1, rx_1, ry_1, rz_1):
    """One explicit time step of the thermal solver."""
    cap_1 = ws.param("cap_1", cap_1)
    rx_1 = ws.param("rx_1", rx_1)
    ry_1 = ws.param("ry_1", ry_1)
    rz_1 = ws.param("rz_1", rz_1)
    mid = t_in[1:-1, 1:-1]
    horizontal = (t_in[1:-1, :-2] + t_in[1:-1, 2:] - 2.0 * mid) * rx_1
    vertical = (t_in[:-2, 1:-1] + t_in[2:, 1:-1] - 2.0 * mid) * ry_1
    t_out[1:-1, 1:-1] = mid + cap_1 * (p[1:-1, 1:-1] + horizontal + vertical)
    # The ambient sink term multiplies a double literal: in a single-
    # precision configuration it promotes to double and the store back
    # into t_out pays the cast the paper attributes to literals.
    t_out[1:-1, 1:-1] = t_out[1:-1, 1:-1] + cap_1 * rz_1 * (amb - mid)
    t_out[0, :] = t_in[0, :]
    t_out[-1, :] = t_in[-1, :]
    t_out[:, 0] = t_in[:, 0]
    t_out[:, -1] = t_in[:, -1]


def run(ws, temp, power, rows, cols, iterations, amb_literal):
    """Simulate heat dissipation and return the final temperatures.

    ``amb_literal`` carries the ambient coupling constant with the
    dtype of a source-code literal (double, unless the Table IV manual
    conversion overrides it); it is external configuration, not a
    searchable workspace variable.
    """
    t_chip = ws.scalar("t_chip", 0.5)
    chip_height = ws.scalar("chip_height", 16.0)
    chip_width = ws.scalar("chip_width", 16.0)
    spec_heat = ws.scalar("spec_heat", 0.5)
    k_si = ws.scalar("k_si", 1.0)
    factor_chip = ws.scalar("factor_chip", 0.5)

    grid_height = ws.scalar("grid_height", chip_height / rows)
    grid_width = ws.scalar("grid_width", chip_width / cols)
    cap = ws.scalar("cap", factor_chip * spec_heat * t_chip)
    rx = ws.scalar("rx", grid_width / (2.0 * k_si * t_chip * grid_height))
    ry = ws.scalar("ry", grid_height / (2.0 * k_si * t_chip * grid_width))
    rz = ws.scalar("rz", t_chip * 1.6 / (grid_height * grid_width))
    step = ws.scalar("step", 0.025)

    temp = ws.array("temp", init=temp)
    power = ws.array("power", init=power)
    temp_out = ws.array("temp_out", init=temp)

    for _ in range(iterations):
        single_iteration(ws, temp, temp_out, power, amb_literal,
                         step / cap, 1.0 / rx, 1.0 / ry, 1.0 / rz)
        temp, temp_out = temp_out, temp
    result = ws.array("result", init=temp)
    return result


@register_benchmark
class Hotspot(ApplicationBenchmark):
    """hotspot: processor thermal simulation (Rodinia)."""

    name = "hotspot"
    description = "Heat dissipation on an architectural floor plan"
    module_name = "repro.benchmarks.apps.hotspot"
    entry = "run"
    metric = "MAE"
    nominal_seconds = 30.0
    compile_seconds = 20.0

    def setup(self, rows=448, cols=448, iterations=8):
        rng = np.random.default_rng(self.seed)
        return {
            "temp": 0.004 + 0.002 * rng.random((rows, cols)),
            "power": 0.0001 * rng.random((rows, cols)),
            "rows": rows, "cols": cols, "iterations": iterations,
            "amb_literal": AMB_COUPLING,
        }

    def manual_inputs(self, precision):
        """The paper's Table IV conversion is *manual*, so it rewrites
        the double literal too — unlike any tool-driven search."""
        inputs = dict(self.inputs())
        inputs["amb_literal"] = precision.dtype.type(AMB_COUPLING)
        return inputs
