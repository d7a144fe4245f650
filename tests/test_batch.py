"""Batch-evaluation layer: executors, prefetch/replay determinism,
and EvalStats accounting.

The contract under test is the one DESIGN'd into
:mod:`repro.core.batch`: executors compute only the pure execution of
a configuration, all bookkeeping is replayed serially, so a parallel
run's trial log is bit-identical to the serial one.
"""

from itertools import combinations

import numpy as np
import pytest

from helpers import ToyProgram

from repro.core.batch import (
    EXECUTOR_NAMES, ExecutionFailure, ProcessExecutor, SerialExecutor,
    ThreadExecutor, execute_guarded, make_executor,
)
from repro.core.evaluator import BATCH_SIZE, ConfigurationEvaluator, TimingMode
from repro.core.telemetry import EvalStats
from repro.errors import SearchBudgetExceeded
from repro.search.registry import make_strategy


def trial_log(evaluator):
    """Everything observable about a trial log, bitwise."""
    return [
        (t.index, t.config.digest(), t.status, t.error_value, t.speedup,
         t.modeled_seconds, t.analysis_seconds)
        for t in evaluator.trials
    ]


def outcome_payload(outcome):
    """Interchange JSON with the (legitimately varying) telemetry removed."""
    payload = outcome.to_json_dict()
    payload.get("metadata", {}).pop("eval_stats", None)
    return payload


def run_strategy(algorithm, executor=None):
    program = ToyProgram(n_clusters=6, toxic=(0, 3))
    evaluator = ConfigurationEvaluator(
        program, measurement_noise=0.0, executor=executor,
    )
    outcome = make_strategy(algorithm).run(evaluator)
    return program, evaluator, outcome


class TestExecutors:
    def configs(self, program, count=5):
        space = program.search_space()
        locations = space.locations()
        return [space.lower(locations[: i + 1]) for i in range(count)]

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_results_match_serial(self, name):
        program = ToyProgram(n_clusters=6, toxic=(1,))
        configs = self.configs(program)
        reference = SerialExecutor().run(program, configs)
        with make_executor(name, 2) as executor:
            results = executor.run(program, configs)
        assert len(results) == len(reference)
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got.output, want.output)
            assert got.modeled_seconds == want.modeled_seconds

    def test_make_executor_names_and_defaults(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("thread"), ThreadExecutor)
        assert isinstance(make_executor("process"), ProcessExecutor)
        assert make_executor("thread", 7).workers == 7
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_make_executor_refuses_negative_retries(self):
        with pytest.raises(ValueError, match="max_retries must be at least 0, got -1"):
            make_executor("serial", max_retries=-1)

    def test_runtime_error_becomes_failure_marker(self):
        class ExplodingProgram(ToyProgram):
            def execute(self, config):
                raise FloatingPointError("overflow in half precision")

        program = ExplodingProgram()
        result = execute_guarded(program, program.search_space().lower(
            program.search_space().locations()[0]
        ))
        assert isinstance(result, ExecutionFailure)
        assert result.kind == "FloatingPointError"

    def test_process_executor_falls_back_for_unregistered_programs(self):
        # ToyProgram is not a registry benchmark, so the process backend
        # must transparently degrade to threads instead of failing to
        # resolve the name in the worker.
        program = ToyProgram(n_clusters=4)
        configs = self.configs(program, count=4)
        with ProcessExecutor(2) as executor:
            results = executor.run(program, configs)
        assert len(results) == 4
        assert all(not isinstance(r, ExecutionFailure) for r in results)


class TestPrefetchReplay:
    def test_prefetch_stages_and_evaluate_consumes(self):
        program = ToyProgram(n_clusters=4)
        evaluator = ConfigurationEvaluator(
            program, measurement_noise=0.0, executor=ThreadExecutor(2),
        )
        space = evaluator.space()
        configs = [space.lower(loc) for loc in space.locations()]
        staged = evaluator.prefetch(configs)
        assert staged == len(configs)
        executed_before = program.executions
        for config in configs:
            evaluator.evaluate(config)
        # evaluate() consumed staged results instead of re-executing
        assert program.executions == executed_before
        assert evaluator.stats.prefetched_executions == len(configs)

    def test_prefetch_noop_without_executor(self):
        program = ToyProgram(n_clusters=4)
        evaluator = ConfigurationEvaluator(program, measurement_noise=0.0)
        space = evaluator.space()
        assert evaluator.prefetch([space.lower(space.locations()[0])]) == 0

    def test_prefetch_noop_under_wall_clock(self):
        program = ToyProgram(n_clusters=4)
        evaluator = ConfigurationEvaluator(
            program, measurement_noise=0.0, executor=ThreadExecutor(2),
            timing=TimingMode.WALL_CLOCK,
        )
        space = evaluator.space()
        assert evaluator.prefetch([space.lower(space.locations()[0])]) == 0

    def test_evaluate_many_equals_serial_loop(self):
        space_configs = None
        logs = []
        for executor in (None, ThreadExecutor(3)):
            program = ToyProgram(n_clusters=5, toxic=(2,))
            evaluator = ConfigurationEvaluator(
                program, measurement_noise=0.0, executor=executor,
            )
            space = evaluator.space()
            if space_configs is None:
                space_configs = [space.lower(loc) for loc in space.locations()]
            if executor is None:
                for config in space_configs:
                    evaluator.evaluate(config)
            else:
                evaluator.evaluate_many(space_configs)
            logs.append(trial_log(evaluator))
            assert evaluator.analysis_seconds > 0
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("algorithm", ["CB", "RS", "GA", "HR", "HRC", "HC"])
    def test_strategy_trial_logs_identical_across_executors(self, algorithm):
        _, serial_eval, serial_outcome = run_strategy(algorithm)
        with ThreadExecutor(4) as executor:
            _, batch_eval, batch_outcome = run_strategy(algorithm, executor)
        assert trial_log(serial_eval) == trial_log(batch_eval)
        assert outcome_payload(serial_outcome) == outcome_payload(batch_outcome)


class TestPrefetchGate:
    """Batches stage executions only where a second worker can overlap
    them with the serial walk; otherwise every configuration executes
    in-line when the search reaches it."""

    @pytest.mark.parametrize("algorithm", ["CB", "GA", "HR", "HRC"])
    @pytest.mark.parametrize("make", [SerialExecutor, lambda: ThreadExecutor(1)])
    def test_nothing_staged_without_a_second_worker(self, algorithm, make):
        with make() as executor:
            program, evaluator, outcome = run_strategy(algorithm, executor)
        assert evaluator.stats.prefetched_executions == 0
        assert evaluator.stats.batches == 0
        assert evaluator._staged == {}
        # every execution is the baseline or a trial the search demanded
        stats = evaluator.stats
        assert program.executions == 1 + stats.fresh_evaluations - stats.compile_errors
        assert outcome_payload(outcome) == outcome_payload(run_strategy(algorithm)[2])

    @pytest.mark.parametrize("algorithm", ["GA", "CB", "RS"])
    def test_two_workers_still_stage(self, algorithm):
        with ThreadExecutor(2) as executor:
            _, evaluator, _ = run_strategy(algorithm, executor)
        assert evaluator.stats.prefetched_executions > 0

    @pytest.mark.parametrize("algorithm", ["HR", "HRC"])
    def test_hierarchical_searches_stage_nothing(self, algorithm):
        # the walk evaluates only what it reaches, on any executor
        _, serial_eval, serial_outcome = run_strategy(algorithm)
        with ThreadExecutor(2) as executor:
            program, evaluator, outcome = run_strategy(algorithm, executor)
        stats = evaluator.stats
        assert stats.prefetched_executions == 0
        assert stats.batches == 0
        assert program.executions == 1 + stats.fresh_evaluations - stats.compile_errors
        assert trial_log(evaluator) == trial_log(serial_eval)
        assert outcome_payload(outcome) == outcome_payload(serial_outcome)

    def test_requested_workers_decide_not_the_pool_size(self, monkeypatch):
        # a one-CPU host caps the process pool at one process; the
        # requested two workers still stage
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        program = ToyProgram(n_clusters=4)
        with ProcessExecutor(2) as executor:
            evaluator = ConfigurationEvaluator(
                program, measurement_noise=0.0, executor=executor,
            )
            space = evaluator.space()
            configs = [space.lower(loc) for loc in space.locations()]
            assert evaluator.prefetch(configs) == len(configs)

    @pytest.mark.parametrize("algorithm,first", [("HRC", 133), ("HR", 62)])
    def test_warm_cache_replay_executes_nothing(
        self, tmp_path, executions, algorithm, first,
    ):
        from repro.core.types import PrecisionConfig
        from repro.harness.scheduler import SearchJob, run_shard
        from repro.runtime.cache import EvaluationCache

        cache = EvaluationCache(tmp_path / "cache")
        job = SearchJob("blackscholes", algorithm, 1e-6)
        payloads = []
        for expected in (first, 0):
            executions.clear()
            result = run_shard(job, cache=cache)
            trials = [d for d in executions if d != PrecisionConfig().digest()]
            assert len(trials) == expected
            payloads.append(outcome_payload(result.outcome))
        assert payloads[0] == payloads[1]


class TestChunked:
    """``evaluate_many`` hands ``prefetch`` full ``BATCH_SIZE`` batches
    and one shorter tail batch, in stream order."""

    @staticmethod
    def batch_sizes(count, monkeypatch):
        import repro.core.evaluator as evaluator_module
        monkeypatch.setattr(evaluator_module, "BATCH_SIZE", 2)
        evaluator = ConfigurationEvaluator(
            ToyProgram(n_clusters=6), measurement_noise=0.0,
        )
        space = evaluator.space()
        configs = [space.lower([loc]) for loc in space.locations()[:count]]
        sizes = []
        prefetch = evaluator.prefetch

        def spy(batch):
            sizes.append(len(batch))
            return prefetch(batch)

        monkeypatch.setattr(evaluator, "prefetch", spy)
        trials = evaluator.evaluate_many(iter(configs))
        assert [t.config for t in trials] == configs
        return sizes

    def test_even_split(self, monkeypatch):
        assert self.batch_sizes(6, monkeypatch) == [2, 2, 2]

    def test_ragged_tail(self, monkeypatch):
        assert self.batch_sizes(5, monkeypatch) == [2, 2, 1]


class TestEvaluateManyStream:
    """``evaluate_many`` takes any iterable ``BATCH_SIZE`` configurations
    at a time, never all of it at once."""

    @staticmethod
    def subsets(space, count):
        """The first ``count`` distinct non-empty lowered subsets."""
        locations = space.locations()
        stream = (
            space.lower(list(subset))
            for size in range(1, len(locations) + 1)
            for subset in combinations(locations, size)
        )
        return [config for config, _ in zip(stream, range(count))]

    def test_stream_runs_in_batches_with_the_serial_trial_log(self):
        logs = []
        for executor in (None, ThreadExecutor(2)):
            program = ToyProgram(n_clusters=7, toxic=(2,))
            evaluator = ConfigurationEvaluator(
                program, measurement_noise=0.0, executor=executor,
            )
            configs = self.subsets(evaluator.space(), 70)
            if executor is None:
                for config in configs:
                    evaluator.evaluate(config)
            else:
                with executor:
                    trials = evaluator.evaluate_many(iter(configs))
                assert [t.config for t in trials] == configs
                assert evaluator.stats.batches == 3  # 32 + 32 + 6
                assert evaluator.stats.batched_configs == 70
                assert evaluator.stats.prefetched_executions == 70
            logs.append(trial_log(evaluator))
        assert logs[0] == logs[1]

    def test_budget_stop_draws_no_further_than_its_batch(self):
        program = ToyProgram(n_clusters=14)
        with ThreadExecutor(2) as executor:
            evaluator = ConfigurationEvaluator(
                program, measurement_noise=0.0, executor=executor,
                max_evaluations=5,
            )
            configs = self.subsets(evaluator.space(), 10_000)
            drawn = []

            def stream():
                for config in configs:
                    drawn.append(config)
                    yield config

            with pytest.raises(SearchBudgetExceeded):
                evaluator.evaluate_many(stream())
        assert len(drawn) == BATCH_SIZE
        assert evaluator.evaluations == 5


class TestEvalStats:
    def test_accounting_identity(self):
        # every EV is either fresh or a persistent replay; memory hits
        # are extra answers that never enter the trial log
        program = ToyProgram(n_clusters=4)
        evaluator = ConfigurationEvaluator(program, measurement_noise=0.0)
        space = evaluator.space()
        config = space.lower(space.locations()[0])
        evaluator.evaluate(config)
        evaluator.evaluate(config)  # repeat: memory hit
        evaluator.evaluate(space.lower(space.locations()[1]))
        stats = evaluator.stats
        assert stats.evaluations == stats.fresh_evaluations + stats.persistent_hits
        assert stats.evaluations == 2
        assert stats.memory_hits == 1
        assert stats.cache_hits == 1
        assert evaluator.evaluations == stats.evaluations

    def test_batch_counters(self):
        program = ToyProgram(n_clusters=4)
        with ThreadExecutor(2) as executor:
            evaluator = ConfigurationEvaluator(
                program, measurement_noise=0.0, executor=executor,
            )
            space = evaluator.space()
            configs = [space.lower(loc) for loc in space.locations()]
            evaluator.evaluate_many(configs)
        stats = evaluator.stats
        assert stats.batches == 1
        assert stats.batched_configs == len(configs)
        assert stats.prefetched_executions == len(configs)
        assert stats.executor == "thread"
        assert stats.workers == 2
        assert stats.wall_seconds >= 0.0

    def test_outcome_metadata_carries_stats(self):
        _, evaluator, outcome = run_strategy("DD")
        stats = outcome.metadata["eval_stats"]
        assert stats["evaluations"] == evaluator.evaluations
        assert stats["labels"]["strategy"] == outcome.strategy
        assert stats["labels"]["program"] == "toy"

    def test_as_dict_and_merge(self):
        a = EvalStats(evaluations=3, fresh_evaluations=2, persistent_hits=1,
                      wall_seconds=0.5)
        b = EvalStats(evaluations=1, fresh_evaluations=1, memory_hits=4)
        a.merge(b)
        assert a.evaluations == 4
        assert a.fresh_evaluations == 3
        assert a.memory_hits == 4
        payload = a.as_dict()
        assert payload["cache_hits"] == a.memory_hits + a.persistent_hits
        assert payload["executor"] == "serial"


class TestProcessWorkItem:
    def test_cold_worker_warms_up_outside_the_trial_window(
        self, data_env, monkeypatch,
    ):
        """A cold worker process (a spawn or forkserver start, or one
        after ``clear_process_caches()``) draws the inputs and runs the
        Typeforge analysis before the trial timeout starts counting."""
        import time

        from repro.benchmarks import base
        from repro.core.batch import _execute_work_item
        from repro.core.types import PrecisionConfig
        from repro.runtime.machine import DEFAULT_MACHINE

        analyze = base.analyze

        def slow_analyze(*args, **kwargs):
            time.sleep(0.6)
            return analyze(*args, **kwargs)

        monkeypatch.setattr(base, "analyze", slow_analyze)
        base.clear_process_caches()
        item = ("eos", DEFAULT_MACHINE, PrecisionConfig().to_json_dict(), 0.5)
        assert _execute_work_item(item)[0] == "ok"
