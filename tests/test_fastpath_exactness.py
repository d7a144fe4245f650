"""Bit-exactness: the fast recorder must be invisible.

The fast-path runtime (signature-cached ufunc recording, dict-keyed
profile counters, input caching, init-copy elision and dead-temporary
buffer reuse) is a pure performance optimisation: every
benchmark must produce byte-identical outputs, identical profile
summaries and identical modeled times whether it runs under the
readable reference recorder (``tests/oracle.py``) or the fast path —
cold *and* warm, so the per-process caches are proven safe too.

These tests are the contract that lets `scripts/bench_runtime.py`
claim its speedup changes nothing observable.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np
import pytest

from repro.benchmarks.base import (
    available_benchmarks, clear_process_caches, get_benchmark,
)
from repro.core.types import Precision, PrecisionConfig
from repro.runtime import memory as mp_memory
from repro.runtime import mparray as _mparray
from repro.runtime.memory import Workspace
from repro.runtime.mparray import MPArray

import oracle
from oracle import ELISION_THRESHOLDS, REUSE_THRESHOLDS, reference_recording

ALL_BENCHMARKS = available_benchmarks()

#: subset re-checked under a uniformly lowered configuration so the
#: cast-recording paths (and srad's inf/NaN flood) are covered too.
LOWERED_SUBSET = ("blackscholes", "kmeans", "srad", "tridiag")


@pytest.fixture(scope="module")
def exact_env(tmp_path_factory):
    """Module-private data dir + clean per-process caches."""
    patcher = pytest.MonkeyPatch()
    patcher.setenv("MIXPBENCH_DATA", str(tmp_path_factory.mktemp("data")))
    clear_process_caches()
    yield
    clear_process_caches()
    patcher.undo()


@pytest.fixture(scope="module")
def suite_runs(exact_env):
    """Lazily execute each (benchmark, config) once under the reference
    recorder, then twice on the fast path (cold, then warm so the input
    and recipe caches are live)."""
    cache: dict = {}

    def run(name: str, config: PrecisionConfig):
        key = (name, config.digest())
        if key not in cache:
            # inf/NaN is expected behaviour for the lowered configs
            # (srad is *designed* to overflow); warnings-as-errors is
            # test_apps' job, not this suite's.
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                clear_process_caches()
                with reference_recording():
                    ref = get_benchmark(name).execute(config)
                clear_process_caches()
                cold = get_benchmark(name).execute(config)
                warm = get_benchmark(name).execute(config)
            cache[key] = (ref, cold, warm)
        return cache[key]

    return run


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
class TestBaselineExactness:
    """Every benchmark, all-double baseline: fast == reference."""

    def test_outputs_bit_identical(self, name, suite_runs):
        ref, cold, warm = suite_runs(name, PrecisionConfig())
        reference = np.asarray(ref.output)
        for result in (cold, warm):
            output = np.asarray(result.output)
            assert output.shape == reference.shape
            assert output.dtype == reference.dtype
            # byte equality is NaN-aware: identical bit patterns pass
            # where `==` would reject NaN == NaN.
            assert output.tobytes() == reference.tobytes()

    def test_profile_summaries_identical(self, name, suite_runs):
        ref, cold, warm = suite_runs(name, PrecisionConfig())
        assert cold.profile.summary() == ref.profile.summary()
        assert warm.profile.summary() == ref.profile.summary()

    def test_modeled_seconds_identical(self, name, suite_runs):
        ref, cold, warm = suite_runs(name, PrecisionConfig())
        assert cold.modeled_seconds == ref.modeled_seconds
        assert warm.modeled_seconds == ref.modeled_seconds


@pytest.mark.parametrize("name", LOWERED_SUBSET)
class TestLoweredExactness:
    """Uniform single precision: exercises the cast-charging paths and
    the NaN/inf-saturated srad scenario."""

    def _config(self, name):
        return get_benchmark(name).search_space().uniform_config(Precision.SINGLE)

    def test_outputs_bit_identical(self, name, suite_runs):
        ref, cold, warm = suite_runs(name, self._config(name))
        reference = np.asarray(ref.output)
        for result in (cold, warm):
            assert np.asarray(result.output).tobytes() == reference.tobytes()

    def test_profiles_and_times_identical(self, name, suite_runs):
        ref, cold, warm = suite_runs(name, self._config(name))
        for result in (cold, warm):
            assert result.profile.summary() == ref.profile.summary()
            assert result.modeled_seconds == ref.modeled_seconds


class TestElisionSafety:
    """The init-copy elision may only ever steal provably-dead buffers."""

    def test_dead_temporary_is_elided(self):
        ws = Workspace()
        a = ws.array("a", shape=64, fill=1.0)
        before = mp_memory._ELISIONS
        t = ws.array("t", init=a + 1.0)
        assert mp_memory._ELISIONS == before + 1
        assert float(t[0]) == 2.0
        # the stolen buffer must not alias the bound operand
        t[:] = -5.0
        assert float(a[0]) == 1.0

    def test_bound_mparray_is_copied(self):
        ws = Workspace()
        a = ws.array("a", shape=32, fill=3.0)
        bound = a + 1.0  # a name now holds the temporary: no longer dead
        before = mp_memory._ELISIONS
        u = ws.array("u", init=bound)
        assert mp_memory._ELISIONS == before
        u[:] = 99.0
        assert float(bound[0]) == 4.0

    def test_bound_ndarray_is_copied(self):
        ws = Workspace()
        raw = np.full(16, 7.0)
        before = mp_memory._ELISIONS
        v = ws.array("v", init=raw)
        assert mp_memory._ELISIONS == before
        v[:] = 0.0
        assert raw[0] == 7.0

    def test_dtype_mismatch_is_copied(self):
        ws = Workspace(PrecisionConfig({"w": Precision.SINGLE}))
        a = ws.array("a", shape=8, fill=2.0)  # fp64
        before = mp_memory._ELISIONS
        w = ws.array("w", init=a * 2.0)  # fp64 temp into an fp32 slot
        assert mp_memory._ELISIONS == before
        assert w.dtype == np.dtype(np.float32)

    def test_reference_mode_never_elides(self):
        ws = Workspace()
        a = ws.array("a", shape=64, fill=1.0)
        before = mp_memory._ELISIONS
        with reference_recording():
            ws.array("t", init=a + 1.0)
        assert mp_memory._ELISIONS == before


def _patched_state() -> tuple:
    """Everything :func:`reference_recording` patches, as it stands."""
    return (
        MPArray.__dict__["_record_ufunc"],
        MPArray.__dict__["__getitem__"],
        MPArray.__dict__["__setitem__"],
        *(getattr(_mparray, name) for name in REUSE_THRESHOLDS),
        *(getattr(mp_memory, name) for name in ELISION_THRESHOLDS),
    )


class TestReferenceOracle:
    """The oracle helper installs the reference recorder, turns reuse
    and elision off, and puts every patched name back on exit."""

    def test_installs_reference_recorder_and_sentinels(self):
        before = _patched_state()
        with reference_recording():
            assert MPArray._record_ufunc is oracle._record_ufunc_reference
            assert MPArray.__getitem__ is MPArray._getitem_reference
            assert MPArray.__setitem__ is MPArray._setitem_reference
            for name in REUSE_THRESHOLDS:
                assert getattr(_mparray, name) == -9
            for name in ELISION_THRESHOLDS:
                assert getattr(mp_memory, name) == -9
        assert _patched_state() == before

    def test_restores_everything_when_the_body_raises(self):
        before = _patched_state()
        with pytest.raises(RuntimeError, match="inside the oracle"):
            with reference_recording():
                Workspace().array("x", shape=4, fill=1.0)[1:3] = 2.0
                raise RuntimeError("inside the oracle")
        assert _patched_state() == before


class TestBufferReuseSafety:
    """Operators may reuse only dead temporaries — never bound data."""

    def test_bound_operands_survive_arithmetic(self):
        ws = Workspace()
        x = ws.array("x", shape=128, fill=2.0)
        y = ws.array("y", shape=128, fill=3.0)
        z = x + y
        assert float(z[0]) == 5.0
        assert z._data is not x._data and z._data is not y._data
        assert float(x[0]) == 2.0 and float(y[0]) == 3.0

    def test_temporary_chains_compute_correct_values(self):
        ws = Workspace()
        x = ws.array("x", shape=256, fill=1.5)
        chain = ((x + 1.0) * 2.0 - x) / 0.5  # every intermediate dies
        expected = ((1.5 + 1.0) * 2.0 - 1.5) / 0.5
        assert float(chain[0]) == expected
        assert float(x[0]) == 1.5

    def test_right_operand_temporaries(self):
        ws = Workspace()
        x = ws.array("x", shape=256, fill=4.0)
        result = x + (x * 0.25)  # b-side temporary dies
        assert float(result[0]) == 5.0
        assert float(x[0]) == 4.0
        result = 1.0 + (x - 2.0)  # reflected op with dead left... right
        assert float(result[0]) == 3.0
        assert float(x[0]) == 4.0

    def test_reuse_records_identical_profile(self):
        def kernel(ws):
            a = ws.array("a", shape=512, fill=1.25)
            b = ws.array("b", shape=512, fill=0.75)
            acc = ws.array("acc", init=(a + b) * 0.5)
            acc[:] = acc + (a - b) / 2.0
            return acc

        fast_ws = Workspace()
        fast = kernel(fast_ws)
        ref_ws = Workspace()
        with reference_recording():
            ref = kernel(ref_ws)
        assert fast._data.tobytes() == ref._data.tobytes()
        assert fast_ws.profile.summary() == ref_ws.profile.summary()


class TestReuseCalibration:
    """The refcount thresholds are measured on this interpreter at
    import; if the probe's sanity check fails they stay -9 (disabled),
    never a guess."""

    def test_thresholds_fail_closed_in_pairs(self):
        assert (_mparray._T_SELF == -9) == (_mparray._T_DATA == -9)
        assert (_mparray._T_OTHER == -9) == (_mparray._T_ODATA == -9)

    def test_enabled_thresholds_are_plausible_refcounts(self):
        for threshold in (
            _mparray._T_SELF, _mparray._T_DATA,
            _mparray._T_OTHER, _mparray._T_ODATA,
        ):
            assert threshold == -9 or 2 <= threshold <= 8

    def test_live_operand_refcounts_exceed_thresholds(self):
        """A benchmark-style bound array must never look dead."""
        ws = Workspace()
        x = ws.array("x", shape=16, fill=1.0)

        # mirror the operator frame: one extra argument binding, the
        # same vantage point the threshold was calibrated from.
        def probe(arr):
            return sys.getrefcount(arr)

        # x is held by this frame *and* the workspace: at least one
        # reference more than a dying temporary would have.
        if _mparray._T_SELF != -9:
            assert probe(x) > _mparray._T_SELF
