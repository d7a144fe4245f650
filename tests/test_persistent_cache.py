"""Persistent evaluation cache: replay across evaluator instances,
context-keyed invalidation, and torn-write tolerance.

The load-bearing property: a replayed evaluation charges the same
simulated cost and the same EV increment as the original, so result
tables are identical with a cold or a warm cache — only real host
time changes.
"""

import json
import math

import pytest

from helpers import ToyProgram

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.results import EvaluationStatus
from repro.core.variables import Granularity
from repro.runtime import cache as cache_module
from repro.runtime.cache import EvaluationCache, context_fingerprint
from repro.search.registry import make_strategy


def make_pair(tmp_path, **program_args):
    """A ToyProgram plus an evaluator wired to a tmp-dir cache."""
    program = ToyProgram(n_clusters=5, toxic=(1,), **program_args)
    cache = EvaluationCache(tmp_path / "cache")
    evaluator = ConfigurationEvaluator(
        program, measurement_noise=0.0, cache=cache,
    )
    return program, evaluator


def trial_log(evaluator):
    return [
        (t.index, t.config.digest(), t.status, t.error_value, t.speedup,
         t.modeled_seconds, t.analysis_seconds)
        for t in evaluator.trials
    ]


class TestContextFingerprint:
    def test_stable(self):
        assert context_fingerprint(a=1, b="x") == context_fingerprint(a=1, b="x")

    def test_sensitive_to_every_field(self):
        base = context_fingerprint(program="p", threshold=1e-6)
        assert context_fingerprint(program="p", threshold=1e-4) != base
        assert context_fingerprint(program="q", threshold=1e-6) != base

    def test_schema_version_invalidates_globally(self, monkeypatch):
        before = context_fingerprint(program="p")
        monkeypatch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 999)
        assert context_fingerprint(program="p") != before


class TestReplayAcrossInstances:
    def test_second_instance_replays_without_executing(self, tmp_path):
        program1, evaluator1 = make_pair(tmp_path)
        space = evaluator1.space()
        configs = [space.lower(loc) for loc in space.locations()]
        for config in configs:
            evaluator1.evaluate(config)
        assert evaluator1.stats.fresh_evaluations == len(configs)
        assert evaluator1.stats.persistent_hits == 0

        program2, evaluator2 = make_pair(tmp_path)
        baseline_only = program2.executions  # the reference execution
        for config in configs:
            evaluator2.evaluate(config)
        assert program2.executions == baseline_only  # nothing re-executed
        assert evaluator2.stats.persistent_hits == len(configs)
        assert evaluator2.stats.fresh_evaluations == 0

        # identical tables: same EV, same simulated clock, same trials
        assert evaluator2.evaluations == evaluator1.evaluations
        assert evaluator2.analysis_seconds == evaluator1.analysis_seconds
        assert trial_log(evaluator2) == trial_log(evaluator1)

    def test_search_outcome_identical_with_warm_cache(self, tmp_path):
        program1, evaluator1 = make_pair(tmp_path)
        cold = make_strategy("GA").run(evaluator1)

        program2, evaluator2 = make_pair(tmp_path)
        warm = make_strategy("GA").run(evaluator2)

        assert evaluator2.stats.persistent_hits > 0
        assert evaluator2.stats.fresh_evaluations < evaluator1.stats.fresh_evaluations
        a, b = cold.to_json_dict(), warm.to_json_dict()
        a["metadata"].pop("eval_stats")
        b["metadata"].pop("eval_stats")
        assert a == b

    def test_threshold_change_gives_cold_cache(self, tmp_path):
        program1, evaluator1 = make_pair(tmp_path)
        space = evaluator1.space()
        config = space.lower(space.locations()[0])
        evaluator1.evaluate(config)

        program2, evaluator2 = make_pair(tmp_path, threshold=1e-3)
        evaluator2.evaluate(config)
        assert evaluator2.stats.persistent_hits == 0
        assert evaluator2.stats.fresh_evaluations == 1

    def test_compile_errors_are_replayed_too(self, tmp_path):
        def build(tmp):
            program = ToyProgram(n_clusters=2, members_per_cluster=2)
            cache = EvaluationCache(tmp / "cache")
            return program, ConfigurationEvaluator(
                program, measurement_noise=0.0, cache=cache,
            )

        program1, evaluator1 = build(tmp_path)
        # lower a single member of a two-member cluster: not compilable
        variable_space = program1.search_space(Granularity.VARIABLE)
        bad = variable_space.lower(variable_space.locations()[0])
        trial1 = evaluator1.evaluate(bad)
        assert not trial1.passed

        program2, evaluator2 = build(tmp_path)
        trial2 = evaluator2.evaluate(bad)
        assert trial2.status == trial1.status
        assert trial2.analysis_seconds == trial1.analysis_seconds
        assert evaluator2.stats.persistent_hits == 1
        assert evaluator2.stats.compile_errors == 1

    def test_replay_equals_the_stored_trial_but_its_index(self, tmp_path):
        """A replay builds its trial from the stored status and floats
        alone, with the evaluator's index and the caller's config; every
        other field must equal the trial that was stored: statuses (a
        compile error among them), NaNs, costs and counters included."""
        def build():
            program = ToyProgram(n_clusters=2, members_per_cluster=2, toxic=(1,))
            return ConfigurationEvaluator(
                program, measurement_noise=0.0,
                cache=EvaluationCache(tmp_path / "cache"),
            )

        evaluator1 = build()
        space = evaluator1.space()
        variable_space = evaluator1.program.search_space(Granularity.VARIABLE)
        configs = [
            space.lower(space.locations()[0]),   # passes
            space.lower(space.locations()[1]),   # toxic: fails quality
            variable_space.lower(variable_space.locations()[0]),  # splits a cluster
        ]
        fresh = [evaluator1.evaluate(config) for config in configs]
        assert {t.status for t in fresh} == {
            EvaluationStatus.PASSED, EvaluationStatus.FAILED_QUALITY,
            EvaluationStatus.COMPILE_ERROR,
        }
        assert any(math.isnan(t.error_value) and math.isnan(t.speedup) for t in fresh)

        evaluator2 = build()
        order = [2, 0, 1]  # replay indices differ from the stored ones
        replayed = [evaluator2.evaluate(configs[i]) for i in order]
        for position, (i, trial) in enumerate(zip(order, replayed), start=1):
            stored = fresh[i]
            assert trial.index == position != stored.index
            assert trial.config is configs[i]
            assert trial.from_cache is False
            assert trial.status is stored.status
            assert trial.analysis_seconds == stored.analysis_seconds
            for name in ("error_value", "speedup", "modeled_seconds"):
                got, want = getattr(trial, name), getattr(stored, name)
                assert got == want or (math.isnan(got) and math.isnan(want)), name
        assert evaluator2.stats.persistent_hits == 3
        assert evaluator2.stats.fresh_evaluations == 0
        assert evaluator2.stats.compile_errors == evaluator1.stats.compile_errors == 1
        assert evaluator2.analysis_seconds == evaluator1.analysis_seconds


class TestCacheStore:
    def test_counters_and_len(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        assert cache.get("p", "ctx", "d1") is None
        assert cache.misses == 1
        cache.put("p", "ctx", "d1", {"status": "passed"})
        assert cache.writes == 1
        assert cache.get("p", "ctx", "d1") == {"status": "passed"}
        assert cache.hits == 1
        assert len(cache) == 1

    def test_contains_does_not_count(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        assert not cache.contains("p", "ctx", "d1")
        cache.put("p", "ctx", "d1", {"status": "passed"})
        assert cache.contains("p", "ctx", "d1")
        assert not cache.contains("p", "other", "d1")
        assert (cache.hits, cache.misses) == (0, 0)

    def test_batched_search_counts_each_lookup_once(self, tmp_path, data_env):
        # prefetch probes membership before evaluate() replays: only
        # the replay's lookup may count as a hit or a miss
        from repro.benchmarks.base import get_benchmark
        from repro.core.batch import make_executor

        def evaluate_two(cache):
            bench = get_benchmark("eos")
            evaluator = ConfigurationEvaluator(bench, cache=cache, executor=make_executor("serial"))
            space = evaluator.space()
            evaluator.evaluate_many([space.lower(loc) for loc in space.locations()[:2]])
            return evaluator

        cold = EvaluationCache(tmp_path / "cache")
        evaluate_two(cold)
        assert (cold.hits, cold.misses) == (0, 2)
        warm = EvaluationCache(tmp_path / "cache")
        evaluator = evaluate_two(warm)
        assert evaluator.stats.persistent_hits == 2
        assert (warm.hits, warm.misses) == (2, 0)

    def test_survives_reload_from_disk(self, tmp_path):
        EvaluationCache(tmp_path).put("p", "ctx", "d1", {"x": 1})
        fresh = EvaluationCache(tmp_path)
        assert fresh.get("p", "ctx", "d1") == {"x": 1}

    def test_context_mismatch_is_a_miss(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        cache.put("p", "ctx-a", "d1", {"x": 1})
        assert cache.get("p", "ctx-b", "d1") is None

    def test_torn_and_garbage_lines_are_skipped(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        cache.put("p", "ctx", "d1", {"x": 1})
        path = next(tmp_path.glob("*.jsonl"))
        with path.open("a") as handle:
            handle.write('{"context": "ctx", "config": "d2", "rec')  # torn
            handle.write("\nnot json at all\n")
        good_line = json.dumps(
            {"context": "ctx", "config": "d3", "record": {"x": 3}}
        )
        with path.open("a") as handle:
            handle.write(good_line + "\n")
        fresh = EvaluationCache(tmp_path)
        assert fresh.get("p", "ctx", "d1") == {"x": 1}
        assert fresh.get("p", "ctx", "d2") is None
        assert fresh.get("p", "ctx", "d3") == {"x": 3}

    def test_program_names_are_sanitized(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        cache.put("weird/name with spaces", "ctx", "d1", {"x": 1})
        files = list(tmp_path.glob("*.jsonl"))
        assert len(files) == 1
        assert "/" not in files[0].name
        assert " " not in files[0].name


class TestCacheToggleEquivalence:
    @pytest.mark.parametrize("algorithm", ["CB", "DD"])
    def test_tables_identical_with_and_without_cache(self, tmp_path, algorithm):
        program_a = ToyProgram(n_clusters=5, toxic=(1,))
        plain = ConfigurationEvaluator(program_a, measurement_noise=0.0)
        without = make_strategy(algorithm).run(plain)

        program_b, evaluator_b = make_pair(tmp_path)
        with_cache = make_strategy(algorithm).run(evaluator_b)

        a, b = without.to_json_dict(), with_cache.to_json_dict()
        a["metadata"].pop("eval_stats")
        b["metadata"].pop("eval_stats")
        assert a == b
