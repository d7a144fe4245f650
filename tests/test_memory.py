"""Unit tests for the Workspace (precision-agnostic allocation)."""

import platform

import numpy as np
import pytest

from repro.benchmarks.base import get_benchmark
from repro.core.types import Precision, PrecisionConfig
from repro.errors import MixPBenchError, UnknownVariableError
from repro.runtime.memory import Workspace
from repro.runtime.mparray import MPArray


class TestNameResolution:
    def test_name_map_resolution(self):
        ws = Workspace(
            PrecisionConfig({"kernel.x": Precision.SINGLE}),
            name_map={"x": "kernel.x"},
        )
        assert ws.precision_of("x") is Precision.SINGLE
        assert ws.dtype_of("x") == np.dtype(np.float32)

    def test_bare_names_without_map(self):
        ws = Workspace(PrecisionConfig({"x": Precision.HALF}))
        assert ws.precision_of("x") is Precision.HALF

    def test_strict_mode_rejects_unknown(self):
        ws = Workspace(name_map={"x": "kernel.x"}, strict=True)
        with pytest.raises(UnknownVariableError):
            ws.precision_of("ghost")

    def test_default_config_is_all_double(self):
        ws = Workspace()
        assert ws.precision_of("anything") is Precision.DOUBLE


class TestArrayDeclaration:
    def test_shape_allocation_zeroed(self):
        ws = Workspace(PrecisionConfig({"x": Precision.SINGLE}))
        x = ws.array("x", 10)
        assert isinstance(x, MPArray)
        assert x.dtype == np.float32
        np.testing.assert_array_equal(x.data, np.zeros(10, dtype=np.float32))

    def test_fill_allocation(self):
        ws = Workspace()
        x = ws.array("x", (2, 2), fill=1.5)
        np.testing.assert_array_equal(x.data, np.full((2, 2), 1.5))

    def test_init_converts_to_configured_dtype(self):
        ws = Workspace(PrecisionConfig({"x": Precision.SINGLE}))
        x = ws.array("x", init=np.arange(4, dtype=np.float64))
        assert x.dtype == np.float32
        # initialisation conversion is not charged as a runtime cast
        assert ws.profile.cast_elements == 0

    def test_init_accepts_mparray(self):
        ws = Workspace()
        first = ws.array("a", init=np.ones(3))
        second = ws.array("b", init=first)
        assert second.dtype == np.float64
        np.testing.assert_array_equal(second.data, np.ones(3))

    def test_requires_exactly_one_of_shape_or_init(self):
        ws = Workspace()
        with pytest.raises(ValueError):
            ws.array("x")
        with pytest.raises(ValueError):
            ws.array("x", 10, init=np.ones(10))

    def test_footprint_tracking(self):
        ws = Workspace()
        ws.array("x", 100)           # 800 bytes
        ws.array("y", 100)           # 800 bytes
        assert ws.profile.peak_footprint == 1600
        ws.release("x")
        ws.array("z", 50)
        assert ws.profile.peak_footprint == 1600
        assert ws.live_bytes == 800 + 400

    def test_redeclaration_replaces(self):
        ws = Workspace()
        ws.array("x", 100)
        ws.array("x", 50)
        assert ws.live_bytes == 400
        assert ws.profile.peak_footprint == 800

    def test_get_and_release(self):
        ws = Workspace()
        x = ws.array("x", 4)
        assert ws.get("x") is x
        assert ws.declared_arrays() == ("x",)
        ws.release("x")
        with pytest.raises(UnknownVariableError):
            ws.get("x")
        ws.release("x")  # idempotent


class TestScalarsAndParams:
    def test_scalar_typed_by_config(self):
        ws = Workspace(PrecisionConfig({"q": Precision.SINGLE}))
        q = ws.scalar("q", 0.1)
        assert isinstance(q, np.float32)

    def test_scalar_promotion_behaves_like_c(self):
        ws = Workspace(PrecisionConfig({"q": Precision.DOUBLE}))
        q = ws.scalar("q", 2.0)
        arr32 = ws.array("a", init=np.ones(4, dtype=np.float32))
        # double scalar forces double math, like a C double variable
        assert (arr32 * q).dtype == np.float64

    def test_param_coerces_scalars(self):
        ws = Workspace(PrecisionConfig({"p": Precision.SINGLE}))
        p = ws.param("p", np.float64(3.0))
        assert isinstance(p, np.float32)

    def test_param_passes_matching_arrays_through(self):
        ws = Workspace(PrecisionConfig({"a": Precision.SINGLE, "p": Precision.SINGLE}))
        a = ws.array("a", 4)
        assert ws.param("p", a) is a

    def test_param_rejects_mismatched_arrays(self):
        ws = Workspace(PrecisionConfig({"p": Precision.SINGLE}))
        a = ws.array("a", 4)  # double
        with pytest.raises(MixPBenchError, match="non-compilable"):
            ws.param("p", a)


class TestDeterminism:
    def test_rng_is_seeded(self):
        a = Workspace(seed=7).rng.random(5)
        b = Workspace(seed=7).rng.random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Workspace(seed=7).rng.random(5)
        b = Workspace(seed=8).rng.random(5)
        assert not np.array_equal(a, b)


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the runtime sets its heap policy through glibc's mallopt only",
)
def test_warm_trial_reuses_faulted_in_heap_pages():
    # hotspot's 448x448 grids (1.6 MB each) sit far above glibc's
    # default 128 KiB mmap threshold: without the runtime's heap policy
    # every trial maps, faults in and unmaps them (~19,700 faults).
    import resource

    bench = get_benchmark("hotspot")
    config = PrecisionConfig()
    bench.execute(config)  # warm-up: fills the heap once
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        bench.execute(config)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert min(faults) <= 200, faults
