"""Unit tests for the ConfigurationEvaluator."""

import json
import math
import sys
import threading

import pytest

from helpers import ToyProgram

from repro.benchmarks.base import get_benchmark
from repro.core.evaluator import ConfigurationEvaluator, measured_seconds
from repro.core.results import EvaluationStatus
from repro.core.types import Precision, PrecisionConfig
from repro.core.variables import Granularity
from repro.errors import MixPBenchError, SearchBudgetExceeded
from repro.search import make_strategy


def make_evaluator(**kwargs):
    program_args = kwargs.pop("program_args", {})
    program = ToyProgram(n_clusters=4, toxic=(0,), **program_args)
    return program, ConfigurationEvaluator(program, measurement_noise=0.0, **kwargs)


class TestMeasuredSeconds:
    def test_deterministic_per_digest(self):
        a = measured_seconds(1.0, "abc", 10)
        b = measured_seconds(1.0, "abc", 10)
        assert a == b

    def test_varies_with_digest(self):
        assert measured_seconds(1.0, "abc", 10) != measured_seconds(1.0, "xyz", 10)

    def test_close_to_modeled(self):
        assert measured_seconds(1.0, "abc", 10, noise=0.01) == pytest.approx(1.0, rel=0.05)

    def test_no_noise_is_identity(self):
        assert measured_seconds(2.5, "abc", 10, noise=0.0) == 2.5
        assert measured_seconds(2.5, "abc", 2, noise=0.1) == 2.5


class TestEvaluation:
    def test_passing_config(self):
        program, evaluator = make_evaluator()
        space = evaluator.space()
        safe = space.locations()[1]
        trial = evaluator.evaluate(space.lower(safe))
        assert trial.status is EvaluationStatus.PASSED
        assert trial.speedup > 1.0
        assert evaluator.evaluations == 1

    def test_failing_config(self):
        program, evaluator = make_evaluator()
        space = evaluator.space()
        toxic = space.locations()[0]
        trial = evaluator.evaluate(space.lower(toxic))
        assert trial.status is EvaluationStatus.FAILED_QUALITY
        assert trial.error_value > evaluator.quality.threshold

    def test_compile_error_for_split_cluster(self):
        program = ToyProgram(n_clusters=2, members_per_cluster=2)
        evaluator = ConfigurationEvaluator(program, measurement_noise=0.0)
        cluster = program.search_space().clusters[0]
        one_member = PrecisionConfig({sorted(cluster.members)[0]: Precision.SINGLE})
        trial = evaluator.evaluate(one_member)
        assert trial.status is EvaluationStatus.COMPILE_ERROR
        assert math.isnan(trial.speedup)
        # compile errors cost compile time but never run
        assert trial.analysis_seconds == program.compile_seconds

    def test_cache_returns_without_new_evaluation(self):
        program, evaluator = make_evaluator()
        space = evaluator.space()
        config = space.lower(space.locations()[1])
        first = evaluator.evaluate(config)
        executions = program.executions
        second = evaluator.evaluate(config)
        assert second.from_cache
        assert not first.from_cache
        assert second.speedup == first.speedup
        assert evaluator.evaluations == 1
        assert program.executions == executions

    def test_trials_log_excludes_cache_hits(self):
        _, evaluator = make_evaluator()
        space = evaluator.space()
        config = space.lower(space.locations()[1])
        evaluator.evaluate(config)
        evaluator.evaluate(config)
        assert len(evaluator.trials) == 1

    def test_best_passing(self):
        _, evaluator = make_evaluator()
        space = evaluator.space()
        evaluator.evaluate(space.lower(space.locations()[0]))   # fails
        evaluator.evaluate(space.lower(space.locations()[1]))   # 1 cluster gain
        best = evaluator.evaluate(space.lower(space.locations()[1:]))  # 3 clusters
        assert evaluator.best_passing() == best

    def test_best_passing_none_when_nothing_passes(self):
        _, evaluator = make_evaluator()
        space = evaluator.space()
        evaluator.evaluate(space.lower(space.locations()[0]))
        assert evaluator.best_passing() is None


class TestBudget:
    def test_time_budget_exhausts(self):
        program = ToyProgram(n_clusters=8)
        evaluator = ConfigurationEvaluator(
            program, time_limit_seconds=200.0, measurement_noise=0.0,
        )
        # baseline profiling charged ~60s; each eval ~60s
        space = evaluator.space()
        with pytest.raises(SearchBudgetExceeded):
            for location in space.locations():
                evaluator.evaluate(space.lower(location))
        assert evaluator.analysis_seconds >= 200.0 or evaluator.evaluations < 8

    def test_max_evaluations_ceiling(self):
        program = ToyProgram(n_clusters=8)
        evaluator = ConfigurationEvaluator(
            program, max_evaluations=2, measurement_noise=0.0,
        )
        space = evaluator.space()
        evaluator.evaluate(space.lower(space.locations()[0]))
        evaluator.evaluate(space.lower(space.locations()[1]))
        with pytest.raises(SearchBudgetExceeded):
            evaluator.evaluate(space.lower(space.locations()[2]))

    def test_cache_hits_do_not_consume_budget(self):
        program = ToyProgram(n_clusters=4)
        evaluator = ConfigurationEvaluator(
            program, max_evaluations=1, measurement_noise=0.0,
        )
        space = evaluator.space()
        config = space.lower(space.locations()[0])
        evaluator.evaluate(config)
        evaluator.evaluate(config)  # cached: no SearchBudgetExceeded

    def test_remaining_seconds(self):
        program, evaluator = make_evaluator(time_limit_seconds=1e6)
        before = evaluator.remaining_seconds
        space = evaluator.space()
        evaluator.evaluate(space.lower(space.locations()[1]))
        assert evaluator.remaining_seconds < before


class TestBaseline:
    def test_baseline_output_exposed(self):
        program, evaluator = make_evaluator()
        assert evaluator.baseline_output.shape == (8,)

    def test_nonfinite_baseline_rejected(self):
        class BrokenProgram(ToyProgram):
            def execute(self, config):
                result = super().execute(config)
                result.output[0] = float("nan")
                return result

        with pytest.raises(MixPBenchError, match="not finite"):
            ConfigurationEvaluator(BrokenProgram())

    def test_space_granularities(self):
        _, evaluator = make_evaluator()
        assert evaluator.space().granularity is Granularity.CLUSTER
        assert evaluator.space(Granularity.VARIABLE).granularity is Granularity.VARIABLE


class TestTimingModes:
    def test_wall_clock_mode_runs(self):
        from repro.core.evaluator import TimingMode
        program = ToyProgram(n_clusters=2)
        evaluator = ConfigurationEvaluator(
            program, timing=TimingMode.WALL_CLOCK,
        )
        space = evaluator.space()
        trial = evaluator.evaluate(space.lower(space.locations()[0]))
        assert trial.passed
        assert trial.speedup > 0
        # modeled time still recorded alongside
        assert trial.modeled_seconds > 0

    def test_wall_clock_disables_synthetic_noise(self):
        from repro.core.evaluator import TimingMode
        program = ToyProgram(n_clusters=2)
        evaluator = ConfigurationEvaluator(
            program, timing=TimingMode.WALL_CLOCK, measurement_noise=0.5,
        )
        assert evaluator._effective_noise() == 0.0

    def test_modeled_is_default(self):
        from repro.core.evaluator import TimingMode
        program = ToyProgram(n_clusters=2)
        evaluator = ConfigurationEvaluator(program)
        assert evaluator.timing is TimingMode.MODELED

    def test_cli_exports_timing(self):
        from repro.core import TimingMode
        assert TimingMode.WALL_CLOCK.value == "wall_clock"


class TestSharedBaseline:
    """Under the modeled clock the all-double reference comes from the
    benchmark's per-process memo, not from one execution per evaluator."""

    def test_evaluators_share_one_baseline_run(self, executions):
        first, second = get_benchmark("eos"), get_benchmark("eos")
        evaluators = [
            ConfigurationEvaluator(first),
            ConfigurationEvaluator(second),
            ConfigurationEvaluator(second),
        ]
        assert executions == [PrecisionConfig().digest()]
        assert evaluators[2].baseline_output is evaluators[0].baseline_output
        assert not evaluators[0].baseline_output.flags.writeable

    def test_wall_clock_measures_its_own_baseline(self, executions):
        from repro.core.evaluator import TimingMode

        bench = get_benchmark("eos")
        for _ in range(2):
            ConfigurationEvaluator(bench, timing=TimingMode.WALL_CLOCK)
        assert len(executions) == 2

    def test_concurrent_evaluators_run_the_baseline_once(self, executions):
        barrier = threading.Barrier(4)
        errors = []

        def build():
            try:
                barrier.wait(10)
                ConfigurationEvaluator(get_benchmark("eos"))
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert executions == [PrecisionConfig().digest()]

    @pytest.mark.parametrize("algorithm", ["DD", "GA"])
    def test_outcome_identical_with_cold_and_warm_memo(self, executions, algorithm):
        def outcome():
            evaluator = ConfigurationEvaluator(get_benchmark("hpccg"), max_evaluations=12)
            payload = make_strategy(algorithm).run(evaluator).to_json_dict()
            payload["metadata"].pop("eval_stats")
            return json.dumps(payload, sort_keys=True)

        cold = outcome()
        runs = len(executions)
        warm = outcome()
        assert warm == cold
        # the warm search re-ran its trials, never the reference
        assert PrecisionConfig().digest() not in executions[runs:]
