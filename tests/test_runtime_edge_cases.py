"""Edge-case tests for the runtime substrate: exotic ufunc methods,
machine-model monotonicity, and package export surfaces."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.runtime import (
    DEFAULT_MACHINE, MPArray, OpClass, Profile, Workspace,
)
from repro.runtime.machine import CacheLevel, MachineModel

from oracle import reference_recording


@pytest.fixture()
def profile():
    return Profile()


def tracked(data, profile):
    return MPArray(np.asarray(data, dtype=np.float64), profile)


class TestExoticUfuncMethods:
    def test_accumulate(self, profile):
        a = tracked(np.ones(16), profile)
        result = np.add.accumulate(a)
        np.testing.assert_array_equal(result.data, np.arange(1.0, 17.0))
        assert profile.ops[(OpClass.CHEAP, "float64")] == 16

    def test_outer(self, profile):
        a = tracked(np.ones(4), profile)
        b = tracked(np.ones(3), profile)
        result = np.multiply.outer(a, b)
        assert result.shape == (4, 3)
        assert profile.ops[(OpClass.CHEAP, "float64")] == 12

    def test_ufunc_at(self, profile):
        a = tracked(np.zeros(8), profile)
        np.add.at(a, np.array([1, 1, 3]), 1.0)
        assert a.data[1] == 2.0
        assert a.data[3] == 1.0
        assert (OpClass.CHEAP, "float64") in profile.ops

    @staticmethod
    def _add_at_float32():
        profile = Profile()
        target = MPArray(np.zeros(8, dtype=np.float32), profile)
        np.add.at(target, np.array([1, 1, 3]), np.ones(3, dtype=np.float32))
        np.testing.assert_array_equal(target.data[[1, 3]], [2.0, 1.0])
        return profile

    def test_ufunc_at_is_priced_at_the_target_dtype(self):
        # ufunc.at returns None: the op computes at the mutated
        # target's dtype, with no promotion casts, and writes only the
        # three indexed elements
        with reference_recording():
            reference = self._add_at_float32()
        for profile in (self._add_at_float32(), reference):
            assert profile.ops == {(OpClass.CHEAP, "float32"): 3.0}
            assert profile.cast_elements == 0.0
            assert profile.bytes_written == 12.0

    def test_divmod_tuple_result(self, profile):
        a = tracked(np.asarray([7.0, 9.0]), profile)
        quotient, remainder = np.divmod(a, 4.0)
        assert isinstance(quotient, MPArray)
        assert isinstance(remainder, MPArray)
        np.testing.assert_array_equal(quotient.data, [1.0, 2.0])

    def test_sign_and_heaviside(self, profile):
        a = tracked(np.asarray([-2.0, 0.0, 3.0]), profile)
        np.testing.assert_array_equal(np.sign(a).data, [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(
            np.heaviside(a, 0.5).data, [0.0, 0.5, 1.0],
        )

    def test_clip_stays_cheap(self, profile):
        a = tracked(np.linspace(-2, 2, 9), profile)
        clipped = np.clip(a, -1.0, 1.0)
        assert float(np.max(clipped)) == 1.0
        cheap_ops = sum(
            n for (c, _d), n in profile.ops.items() if c is OpClass.CHEAP
        )
        assert cheap_ops >= 9


class TestMachineMonotonicity:
    @given(st.floats(min_value=1e3, max_value=1e12),
           st.floats(min_value=1.01, max_value=10.0))
    @settings(max_examples=50)
    def test_more_ops_never_faster(self, n, factor):
        small, big = Profile(), Profile()
        small.record_op(OpClass.CHEAP, "float64", n)
        big.record_op(OpClass.CHEAP, "float64", n * factor)
        assert DEFAULT_MACHINE.time(big) >= DEFAULT_MACHINE.time(small)

    @given(st.floats(min_value=1e3, max_value=1e12))
    @settings(max_examples=50)
    def test_narrower_dtype_never_slower_for_cheap_ops(self, n):
        wide, narrow = Profile(), Profile()
        wide.record_op(OpClass.CHEAP, "float64", n)
        narrow.record_op(OpClass.CHEAP, "float32", n)
        assert DEFAULT_MACHINE.time(narrow) <= DEFAULT_MACHINE.time(wide)

    @given(st.integers(min_value=1, max_value=2**31))
    @settings(max_examples=50)
    def test_bandwidth_non_increasing_in_footprint(self, footprint):
        assert DEFAULT_MACHINE.bandwidth(footprint) >= \
            DEFAULT_MACHINE.bandwidth(footprint * 2)

    def test_time_is_additive_across_merged_profiles(self):
        a, b = Profile(), Profile()
        a.record_op(OpClass.TRANS, "float64", 1e6)
        b.record_op(OpClass.MEDIUM, "float32", 1e6)
        t_separate = DEFAULT_MACHINE.time(a) + DEFAULT_MACHINE.time(b)
        a.merge(b)
        # merged time can differ via traffic apportioning but never by
        # more than the call-overhead granularity
        assert DEFAULT_MACHINE.time(a) == pytest.approx(t_separate, rel=0.05)


class TestCustomMachines:
    def test_zero_simd_benefit_machine(self):
        flat = MachineModel(
            name="flat",
            throughput={
                OpClass.CHEAP: {"float32": 1e9, "float64": 1e9},
                OpClass.MEDIUM: {"float32": 1e9, "float64": 1e9},
                OpClass.TRANS: {"float32": 1e8, "float64": 1e8},
                OpClass.MOVE: {},
                OpClass.INT: {},
            },
        )
        p32, p64 = Profile(), Profile()
        p32.record_op(OpClass.CHEAP, "float32", 1e6)
        p64.record_op(OpClass.CHEAP, "float64", 1e6)
        assert flat.time(p32) == pytest.approx(flat.time(p64))

    def test_benchmark_accepts_custom_machine(self, data_env):
        from repro.benchmarks.base import get_benchmark
        from repro.core.types import PrecisionConfig
        machine = MachineModel(
            name="tiny-cache",
            cache_levels=(CacheLevel(1024, 1e11),),
            dram_bandwidth=1e9,
        )
        bench = get_benchmark("tridiag", machine=machine)
        result = bench.execute(PrecisionConfig())
        assert result.modeled_seconds > 0
        assert bench.machine.name == "tiny-cache"


class TestPackageSurface:
    def test_runtime_exports(self):
        import repro.runtime as runtime
        for name in runtime.__all__:
            assert hasattr(runtime, name), name

    def test_top_level_exports(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name
        assert repro.__version__ == "1.0.0"

    def test_search_exports(self):
        import repro.search as search
        for name in search.__all__:
            assert hasattr(search, name), name

    def test_workspace_in_top_level(self):
        from repro import Workspace as TopLevel
        assert TopLevel is Workspace
