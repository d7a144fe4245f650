"""Tests for the benchmark framework itself (registry, base class)."""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.benchmarks.base import (
    Benchmark,
    application_benchmarks,
    available_benchmarks,
    clear_process_caches,
    collect_output,
    get_benchmark,
    kernel_benchmarks,
    register_benchmark,
)
from repro.core.types import PrecisionConfig
from repro.errors import BenchmarkNotFound
from repro.runtime.machine import MACHINE_PRESETS
from repro.runtime.mparray import MPArray
from repro.runtime.profiler import Profile


class TestRegistry:
    def test_seventeen_programs(self):
        assert len(available_benchmarks()) == 17
        assert len(kernel_benchmarks()) == 10
        assert len(application_benchmarks()) == 7

    def test_get_unknown_raises(self):
        with pytest.raises(BenchmarkNotFound, match="available"):
            get_benchmark("fluidanimate")

    def test_register_requires_name(self):
        class Nameless(Benchmark):
            module_name = "m"

            def setup(self):
                return {}

        with pytest.raises(TypeError, match="no name"):
            register_benchmark(Nameless)

    def test_register_rejects_duplicates(self):
        class Duplicate(Benchmark):
            name = "hydro-1d"
            module_name = "m"

            def setup(self):
                return {}

        with pytest.raises(ValueError, match="registered twice"):
            register_benchmark(Duplicate)

    def test_instantiation_requires_module(self):
        class NoModule(Benchmark):
            name = "x"

            def setup(self):
                return {}

        with pytest.raises(TypeError, match="module_name"):
            NoModule()


class TestCollectOutput:
    def test_single_array(self):
        out = collect_output(np.arange(3, dtype=np.float32))
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [0, 1, 2])

    def test_tuple_concatenates(self):
        out = collect_output((np.ones(2), np.zeros((2, 2))))
        assert out.shape == (6,)

    def test_mparray_unwrapped(self):
        arr = MPArray(np.ones(4), Profile())
        np.testing.assert_array_equal(collect_output(arr), np.ones(4))


class TestBenchmarkMechanics:
    def test_inputs_cached(self):
        bench = get_benchmark("hydro-1d")
        assert bench.inputs() is bench.inputs()

    def test_report_cached(self):
        bench = get_benchmark("hydro-1d")
        assert bench.report() is bench.report()

    def test_data_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MIXPBENCH_DATA", str(tmp_path))
        bench = get_benchmark("kmeans")
        assert str(bench.data_dir()).startswith(str(tmp_path))
        assert bench.data_dir().is_dir()

    def test_quality_spec_from_class_attributes(self):
        bench = get_benchmark("kmeans")
        assert bench.quality.metric == "MCR"
        bench2 = get_benchmark("hydro-1d")
        assert bench2.quality.metric == "MAE"
        assert bench2.quality.threshold == 1e-8

    def test_paper_timing_attributes(self):
        bench = get_benchmark("lavamd")
        assert bench.runs_per_config == 10  # paper methodology
        assert bench.nominal_seconds > 0
        assert bench.compile_seconds > 0

    def test_repr(self):
        assert "hydro-1d" in repr(get_benchmark("hydro-1d"))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_does_not_inherit_a_held_slot_lock(self, data_env):
        # a process-pool worker forked while another thread fills the
        # slot (setup, shadow run) must not block on the parent's lock
        state = get_benchmark("eos")._shared_state()
        held, release = threading.Event(), threading.Event()

        def holder():
            with state["lock"]:
                held.set()
                release.wait(60)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert held.wait(10)
            child = multiprocessing.get_context("fork").Process(
                target=_fill_inputs, args=("eos",)
            )
            child.start()
            child.join(timeout=30)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join(timeout=10)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not hung
        assert child.exitcode == 0

    def test_execute_with_custom_inputs(self):
        from repro.core.types import PrecisionConfig
        bench = get_benchmark("hydro-1d")
        small = bench.execute(PrecisionConfig(), inputs={"n": 1_000, "steps": 1})
        assert small.output.shape[0] == 1_002


class TestBaselineMemo:
    def test_instances_share_one_execution(self, executions):
        first = get_benchmark("eos").baseline()
        second = get_benchmark("eos").baseline()
        assert len(executions) == 1
        assert second.output is first.output
        np.testing.assert_array_equal(
            first.output, get_benchmark("eos").execute(PrecisionConfig()).output
        )

    def test_clear_process_caches_forces_a_fresh_run(self, executions):
        get_benchmark("eos").baseline()
        clear_process_caches()
        get_benchmark("eos").baseline()
        assert len(executions) == 2

    def test_data_root_is_part_of_the_key(self, data_env, executions, monkeypatch):
        get_benchmark("eos").baseline()
        monkeypatch.setenv("MIXPBENCH_DATA", str(data_env / "other"))
        get_benchmark("eos").baseline()
        assert len(executions) == 2

    def test_output_is_read_only(self, data_env):
        output = get_benchmark("eos").baseline().output
        with pytest.raises(ValueError):
            output[0] = 0.0

    @pytest.mark.parametrize("machine", sorted(MACHINE_PRESETS))
    def test_priced_on_each_instances_machine(self, data_env, machine):
        # the memo key has no machine: the shared profile is re-priced
        get_benchmark("lavamd").baseline()
        bench = get_benchmark("lavamd", machine=MACHINE_PRESETS[machine])
        fresh = bench.execute(PrecisionConfig())
        assert bench.baseline().modeled_seconds == fresh.modeled_seconds


def _fill_inputs(name: str) -> None:
    get_benchmark(name).inputs()
