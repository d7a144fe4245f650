"""CFD: unstructured-grid finite-volume Euler solver (Rodinia euler3d).

Advances the compressible Euler equations on an unstructured mesh:
every cell carries conserved variables (density, 3-component momentum,
energy), and each iteration gathers neighbour states through the
mesh's integer connectivity arrays, evaluates edge fluxes from the
per-cell flux contributions, and applies a local-time-step update.

Program structure mirrors the Rodinia code: the conserved-variable
arrays are passed as parameters to every flux helper in ``cfd_flux``,
so the type-dependence analysis folds states, neighbour copies,
pressures, velocities and fluxes into a small number of large clusters
— CFD is the paper's showcase for clustering ("CFD can take advantage
of clustering to reduce the search space considerably", Table II:
TV=195, TC=25), and it carries the suite's largest variable count.

The connectivity gathers are integer-indexed and latency-bound
(independent of floating precision), while the flux arithmetic halves
in cost: the paper measures an all-single speedup of 1.38x at a
quality loss of 1.1e-7 (MAE over density, momentum and energy).
"""

from __future__ import annotations

from repro.benchmarks.apps.cfd_flux import (
    compute_flux_contribution,
    compute_flux_edge,
    compute_pressure,
    compute_speed_of_sound,
    compute_speed_sqd,
    compute_step_factor,
    compute_velocity,
)
from repro.benchmarks.base import ApplicationBenchmark, register_benchmark

import numpy as np


def flux_sweep(ws, dens_w, mx_w, my_w, mz_w, en_w, prs_w,
               fd, fmx, fmy, fmz, fen, fc_d, fc_m, fc_e, neighbors):
    """Accumulate edge fluxes from every neighbour of every cell."""
    fd[:] = 0.0
    fmx[:] = 0.0
    fmy[:] = 0.0
    fmz[:] = 0.0
    fen[:] = 0.0
    weight = 0.25
    for nb in neighbors:
        nbr_dens = dens_w[nb]
        nbr_mx = mx_w[nb]
        nbr_my = my_w[nb]
        nbr_mz = mz_w[nb]
        nbr_en = en_w[nb]
        nbr_prs = prs_w[nb]
        fe1 = compute_flux_edge(ws, dens_w, nbr_dens, prs_w, nbr_prs, weight)
        fd[:] = fd + fe1 + 0.03125 * fc_d
        fe2 = compute_flux_edge(ws, mx_w, nbr_mx, prs_w, nbr_prs, weight)
        fmx[:] = fmx + fe2 + 0.125 * (nbr_prs - prs_w) + 0.03125 * fc_m
        fe3 = compute_flux_edge(ws, my_w, nbr_my, prs_w, nbr_prs, weight)
        fmy[:] = fmy + fe3 - 0.125 * (nbr_prs - prs_w)
        fe4 = compute_flux_edge(ws, mz_w, nbr_mz, prs_w, nbr_prs, weight)
        fmz[:] = fmz + fe4 - 0.0625 * (nbr_prs - prs_w)
        fe5 = compute_flux_edge(ws, en_w, nbr_en, prs_w, nbr_prs, weight)
        fen[:] = fen + fe5 + 0.0625 * (nbr_prs + prs_w) * (nbr_mx - mx_w) \
            + 0.03125 * fc_e


def time_step(ws, state_t, old_state, flux_t, sf_t):
    """Explicit update: state = old + Δt · flux."""
    state_t[:] = old_state + 0.2 * sf_t * flux_t


def run(ws, density, momx, momy, momz, energy, nel, iterations, neighbors, cfl_value):
    """Advance the solution and return the conserved variables."""
    density = ws.array("density", init=density)
    momx = ws.array("momx", init=momx)
    momy = ws.array("momy", init=momy)
    momz = ws.array("momz", init=momz)
    energy = ws.array("energy", init=energy)
    old_density = ws.array("old_density", nel)
    old_momx = ws.array("old_momx", nel)
    old_momy = ws.array("old_momy", nel)
    old_momz = ws.array("old_momz", nel)
    old_energy = ws.array("old_energy", nel)
    flux_d = ws.array("flux_d", nel)
    flux_mx = ws.array("flux_mx", nel)
    flux_my = ws.array("flux_my", nel)
    flux_mz = ws.array("flux_mz", nel)
    flux_en = ws.array("flux_en", nel)

    for _ in range(iterations):
        old_density[:] = density
        old_momx[:] = momx
        old_momy[:] = momy
        old_momz[:] = momz
        old_energy[:] = energy
        vx = compute_velocity(ws, momx, density)
        vy = compute_velocity(ws, momy, density)
        vz = compute_velocity(ws, momz, density)
        spd2 = compute_speed_sqd(ws, vx, vy, vz)
        prs = compute_pressure(ws, density, energy, spd2)
        sos = compute_speed_of_sound(ws, density, prs)
        sf = compute_step_factor(ws, spd2, sos, cfl_value)
        fc_d, fc_m, fc_e = compute_flux_contribution(ws, density, vx, prs)
        flux_sweep(ws, density, momx, momy, momz, energy, prs,
                   flux_d, flux_mx, flux_my, flux_mz, flux_en,
                   fc_d, fc_m, fc_e, neighbors)
        time_step(ws, density, old_density, flux_d, sf)
        time_step(ws, momx, old_momx, flux_mx, sf)
        time_step(ws, momy, old_momy, flux_my, sf)
        time_step(ws, momz, old_momz, flux_mz, sf)
        time_step(ws, energy, old_energy, flux_en, sf)
    return density, momx, momy, momz, energy


@register_benchmark
class Cfd(ApplicationBenchmark):
    """cfd: unstructured finite-volume Euler solver (Rodinia)."""

    name = "cfd"
    description = "3D Euler equations on an unstructured grid"
    module_name = "repro.benchmarks.apps.cfd"
    extra_module_names = ("repro.benchmarks.apps.cfd_flux",)
    entry = "run"
    metric = "MAE"
    nominal_seconds = 60.0
    compile_seconds = 25.0

    def setup(self, nel=40_000, iterations=3):
        draws = np.random.default_rng(self.seed)
        rng = np.random.default_rng(self.seed + 4)
        neighbors = [
            rng.permutation(nel).astype(np.int32) for _ in range(4)
        ]
        return {
            "density": 1.0 + 0.1 * draws.random(nel),
            "momx": 0.1 * draws.random(nel) - 0.05,
            "momy": 0.1 * draws.random(nel) - 0.05,
            "momz": 0.1 * draws.random(nel) - 0.05,
            "energy": 2.5 + 0.1 * draws.random(nel),
            "nel": nel, "iterations": iterations,
            "neighbors": neighbors, "cfl_value": 0.4,
        }
