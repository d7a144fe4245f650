"""Numerical validation of the benchmark implementations.

Beyond running, each application must be a *correct* instance of its
algorithm: CG has to solve its system, Black-Scholes prices must obey
no-arbitrage bounds, the thermal and diffusion solvers must be stable,
K-means must recover the planted clustering.  These tests pin the
mathematics the precision experiments stand on.
"""

import numpy as np
import pytest

from repro.benchmarks.base import get_benchmark
from repro.core.types import PrecisionConfig
from repro.runtime.memory import Workspace


class TestHpccgMathematics:
    def test_cg_actually_solves_the_system(self, data_env):
        """Recompute A@x - b from the system the solver was given."""
        bench = get_benchmark("hpccg")
        inputs = bench.inputs()
        x = bench.execute(PrecisionConfig()).output

        vals, b, cols = inputs["vals"], inputs["b"], inputs["cols"]
        rows = np.repeat(np.arange(inputs["n"]), np.diff(inputs["row_start"], append=len(vals)))
        ax = np.zeros(inputs["n"])
        np.add.at(ax, rows, vals * x[cols])
        residual = np.linalg.norm(ax - b) / np.linalg.norm(b)
        assert residual < 1e-8

    def test_diagonal_dominance(self, data_env):
        """The generated system must be diagonally dominant (so CG on
        it is well posed and fp32 perturbations stay benign)."""
        inputs = get_benchmark("hpccg").inputs()
        vals, row_start = inputs["vals"], inputs["row_start"]
        offdiag_mass = np.add.reduceat(np.abs(vals), row_start) - np.abs(vals[row_start])
        assert np.all(np.abs(vals[row_start]) > offdiag_mass)


class TestBlackscholesFinance:
    def _prices(self, otype_value):
        bench = get_benchmark("blackscholes")
        n = 512
        ws = Workspace(seed=bench.seed)
        spt = 25.0 + 75.0 * ws.rng.random(n)
        strike = 20.0 + 80.0 * ws.rng.random(n)
        rate = 0.02 + 0.08 * ws.rng.random(n)
        vol = 0.1 + 0.4 * ws.rng.random(n)
        otime = 0.25 + 3.75 * ws.rng.random(n)
        from repro.benchmarks.apps.blackscholes import black_scholes
        ws2 = Workspace(seed=1)
        from repro.runtime.mparray import MPArray
        args = [MPArray(a.copy(), ws2.profile) for a in (spt, strike, rate, vol, otime)]
        otype = MPArray(np.full(n, float(otype_value)), ws2.profile)
        prices = black_scholes(ws2, *args, otype)
        return spt, strike, rate, otime, np.asarray(prices.data, dtype=np.float64)

    def test_call_price_bounds(self):
        """0 <= C <= S and C >= S - K e^{-rT} (no-arbitrage)."""
        spt, strike, rate, otime, calls = self._prices(0.0)
        assert np.all(calls >= -1e-9)
        assert np.all(calls <= spt + 1e-9)
        intrinsic = spt - strike * np.exp(-rate * otime)
        assert np.all(calls >= intrinsic - 1e-7)

    def test_put_price_bounds(self):
        """0 <= P <= K e^{-rT} and P >= K e^{-rT} - S."""
        spt, strike, rate, otime, puts = self._prices(1.0)
        discounted_strike = strike * np.exp(-rate * otime)
        assert np.all(puts >= -1e-9)
        assert np.all(puts <= discounted_strike + 1e-9)
        assert np.all(puts >= discounted_strike - spt - 1e-7)

    def test_put_call_parity(self):
        """C - P = S - K e^{-rT}, the sharpest internal consistency
        check a Black-Scholes implementation can satisfy."""
        spt, strike, rate, otime, calls = self._prices(0.0)
        _, _, _, _, puts = self._prices(1.0)
        parity = calls - puts
        expected = spt - strike * np.exp(-rate * otime)
        np.testing.assert_allclose(parity, expected, atol=1e-8)


class TestHotspotPhysics:
    def test_temperatures_stay_bounded(self, data_env):
        """The explicit scheme must be stable: no runaway values."""
        bench = get_benchmark("hotspot")
        result = bench.execute(PrecisionConfig())
        assert np.all(result.output > 0.0)
        assert np.all(result.output < 0.1)

    def test_heating_is_monotone_with_power(self, data_env):
        """More iterations with positive power cannot cool the chip's
        interior on average."""
        bench = get_benchmark("hotspot")
        inputs = dict(bench.inputs())
        short = dict(inputs, iterations=2)
        long = dict(inputs, iterations=12)
        t_short = bench.execute(PrecisionConfig(), inputs=short).output
        t_long = bench.execute(PrecisionConfig(), inputs=long).output
        assert t_long.mean() > t_short.mean()


class TestKmeansRecovery:
    def test_recovers_planted_clustering(self, data_env):
        """The blobs are well separated: the algorithm's partition must
        match the generator's planted labels up to relabelling."""
        bench = get_benchmark("kmeans")
        labels = bench.execute(PrecisionConfig()).output.astype(int)

        rng = np.random.default_rng(bench.seed + 2)
        k = bench.inputs()["k"]
        n = bench.inputs()["n"]
        rng.uniform(-40.0, 40.0, size=(k, 16))
        planted = rng.integers(0, k, n)

        # each found cluster must be (almost) pure in planted labels
        impure = 0
        for j in range(k):
            members = planted[labels == j]
            if len(members) == 0:
                continue
            dominant = np.bincount(members).max()
            impure += len(members) - dominant
        assert impure / n < 0.01


class TestSradStability:
    def test_double_diffusion_is_contractive(self, data_env):
        """In double precision the diffusion must keep the image finite
        and reduce roughness (it is a denoiser)."""
        bench = get_benchmark("srad")
        inputs = dict(bench.inputs())
        none = bench.execute(PrecisionConfig(), inputs=dict(inputs, iterations=0)).output
        several = bench.execute(PrecisionConfig(), inputs=dict(inputs, iterations=6)).output

        def roughness(img):
            grid = img.reshape(inputs["rows"], inputs["cols"])
            return float(np.mean(np.abs(np.diff(grid, axis=0))))

        assert np.all(np.isfinite(several))
        assert roughness(several) < roughness(none)


class TestCfdConservationShape:
    def test_density_stays_positive(self, data_env):
        bench = get_benchmark("cfd")
        output = bench.execute(PrecisionConfig()).output
        nel = bench.inputs()["nel"]
        density = output[:nel]
        assert np.all(density > 0.0)

    def test_update_magnitude_is_controlled(self, data_env):
        """The explicit scheme must not blow up over the iterations."""
        bench = get_benchmark("cfd")
        inputs = dict(bench.inputs())
        one = bench.execute(PrecisionConfig(), inputs=dict(inputs, iterations=1)).output
        three = bench.execute(PrecisionConfig()).output
        assert np.max(np.abs(three)) < 10 * max(np.max(np.abs(one)), 1.0)


class TestLavamdForces:
    def test_forces_scale_with_charge(self, data_env):
        """Doubling the charges quadruples the pairwise force term
        (fs ~ q_i q_j)."""
        from repro.benchmarks.apps.lavamd import interaction
        ws = Workspace(seed=3)
        from repro.runtime.mparray import MPArray
        n = 1024
        rng = np.random.default_rng(0)

        def force_norm(scale):
            px = MPArray(rng.random(n).copy(), ws.profile)
            py = MPArray(rng.random(n).copy(), ws.profile)
            pz = MPArray(rng.random(n).copy(), ws.profile)
            qv = MPArray(scale * (rng.random(n) - 0.5), ws.profile)
            gx, gy, gz, gq = px, py, pz, qv
            fx, fy, fz = interaction(
                ws, px, py, pz, qv, gx, gy, gz, gq, 0.1, 0.0, 0.0, 0.5,
            )
            return float(np.sum(np.abs(fx.data)))

        rng = np.random.default_rng(0)
        base = force_norm(1.0)
        rng = np.random.default_rng(0)
        scaled = force_norm(2.0)
        assert scaled == pytest.approx(4.0 * base, rel=1e-9)
