"""Tests for the shadow-value sensitivity subsystem (repro.shadow).

The contracts under test, in the order the pipeline uses them:

* the fp64 reference path of a shadow run is **bit-identical** to a
  normal instrumented execution — shadow replicas are bookkeeping,
  never a perturbation;
* attribution is deterministic (repeated runs serialize identically)
  and sensible (a dyadic coefficient table has marginal 0);
* guided search outcomes are identical across serial/thread/process
  executors, and with guidance disabled every outcome is
  byte-identical to the unguided pipeline;
* the predict-and-verify recommendation is always backed by a real
  evaluation through the standard ``ConfigurationEvaluator``;
* shadow and prune provenance compose in ``SearchOutcome.metadata``;
* ``--order shadow`` and ``--screen`` share one shadow run per inputs
  fingerprint per process, filled once even under concurrent callers,
  while :func:`run_shadow_analysis` itself stays uncached;
* no benchmark emits runtime warnings under fp16 shadow execution.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.benchmarks.base import (
    available_benchmarks, clear_process_caches, collect_output, get_benchmark,
)
from repro.core.batch import make_executor
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.types import PrecisionConfig
from repro.search.registry import make_strategy
from repro.shadow import (
    Recommendation, SensitivityReport, ShadowContext, ShadowOrder,
    ShadowWorkspace, recommend_and_verify, run_shadow_analysis,
    shadow_guidance,
)
from repro.shadow import report as report_module
from repro.typeforge.errorbound import calibrate_bound, certify_benchmark


def _shadow_reference_output(bench, precisions=("single",)) -> np.ndarray:
    """The fp64 reference output of one shadow-mode execution."""
    ctx = ShadowContext(precisions)
    report = bench.report()
    ws = ShadowWorkspace(
        PrecisionConfig(),
        name_map=report.name_map,
        seed=bench.seed,
        shadow_context=ctx,
    )
    raw = bench.entry_point()(ws, **bench.inputs())
    return collect_output(raw)


def _outcome_payload(outcome) -> dict:
    """Outcome JSON with the host-timing telemetry stripped."""
    payload = outcome.to_json_dict()
    payload["metadata"].pop("eval_stats", None)
    return payload


class TestReferenceBitExactness:
    @pytest.mark.parametrize("name", ["tridiag", "innerprod", "eos", "planckian"])
    def test_fp64_path_identical_to_normal_run(self, name):
        bench = get_benchmark(name)
        normal = bench.execute(PrecisionConfig()).output
        shadowed = _shadow_reference_output(bench)
        assert normal.dtype == shadowed.dtype
        assert normal.tobytes() == shadowed.tobytes()

    def test_fp16_replicas_do_not_perturb_reference(self):
        bench = get_benchmark("eos")
        normal = bench.execute(PrecisionConfig()).output
        shadowed = _shadow_reference_output(bench, precisions=("single", "half"))
        assert normal.tobytes() == shadowed.tobytes()


class TestAttribution:
    @pytest.fixture(scope="class")
    def eos_report(self) -> SensitivityReport:
        return run_shadow_analysis(get_benchmark("eos"))

    def test_covers_declared_variables(self, eos_report):
        uids = {v.uid for v in eos_report.variables}
        assert {"kernel.u", "kernel.coef", "kernel.x"} <= uids

    def test_dyadic_coefficients_have_zero_marginal(self, eos_report):
        # eos's coefficient table is dyadic: exactly representable in
        # fp32, and its ops amplify nothing of its own
        scores = eos_report.marginal_scores()
        assert scores["kernel.coef"] == 0.0
        assert scores["kernel.u"] > 0.0

    def test_joint_score_saturates_but_marginal_discriminates(self, eos_report):
        joint = eos_report.variable_scores()
        marginal = eos_report.marginal_scores()
        # joint: coef shares the run's worst divergence with u
        assert joint["kernel.coef"] == joint["kernel.u"]
        assert marginal["kernel.coef"] < marginal["kernel.u"]

    def test_first_divergence_and_op_counts(self, eos_report):
        by_uid = {v.uid: v for v in eos_report.for_precision("single")}
        assert by_uid["kernel.u"].first_divergence_op == 1  # diverges at declaration
        assert by_uid["kernel.u"].ops > by_uid["kernel.x"].ops
        assert eos_report.op_count > 0

    def test_predicted_error_measured_on_uniform_replica(self, eos_report):
        predicted = eos_report.predicted_error["single"]
        assert 0.0 < predicted < 1e-6  # fp32-rounding scale for eos/MAE

    def test_variables_sorted_canonically(self, eos_report):
        keys = [(v.uid, v.precision) for v in eos_report.variables]
        assert keys == sorted(keys)


class TestDeterminism:
    def test_repeated_analysis_serializes_identically(self):
        bench = get_benchmark("planckian")
        first = run_shadow_analysis(bench).to_json_dict()
        second = run_shadow_analysis(bench).to_json_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_report_round_trips_through_json(self, tmp_path):
        report = run_shadow_analysis(get_benchmark("eos"), include_half=True)
        path = tmp_path / "report.json"
        report.save(path)
        assert SensitivityReport.load(path) == report

    @pytest.mark.parametrize("executor_name", ["serial", "thread", "process"])
    def test_guided_search_identical_across_executors(
        self, executor_name, data_env
    ):
        bench = get_benchmark("eos")
        location_order, shadow_info = shadow_guidance(bench)
        executor = make_executor(executor_name, 2)
        try:
            evaluator = ConfigurationEvaluator(
                bench, executor=executor,
                location_order=location_order, shadow_info=shadow_info,
            )
            outcome = make_strategy("DD").run(evaluator)
        finally:
            executor.close()
        payload = _outcome_payload(outcome)
        reference = _outcome_payload(
            make_strategy("DD").run(ConfigurationEvaluator(
                bench, location_order=location_order, shadow_info=shadow_info,
            ))
        )
        assert payload == reference


class TestDisabledModeByteIdentity:
    @pytest.mark.parametrize("algorithm", ["DD", "HR", "GA"])
    def test_explicit_none_order_is_the_unguided_pipeline(self, algorithm):
        bench = get_benchmark("eos")
        plain = make_strategy(algorithm).run(ConfigurationEvaluator(bench))
        disabled = make_strategy(algorithm).run(ConfigurationEvaluator(
            bench, location_order=None, shadow_info=None,
        ))
        assert _outcome_payload(disabled) == _outcome_payload(plain)
        assert "shadow" not in disabled.metadata


class TestGuidedSearchSavings:
    @pytest.mark.parametrize("name,algorithm", [
        ("eos", "DD"), ("planckian", "DD"), ("hpccg", "HR"),
    ])
    def test_same_error_fewer_evaluations(self, name, algorithm):
        bench = get_benchmark(name)
        unguided = make_strategy(algorithm).run(ConfigurationEvaluator(bench))
        location_order, shadow_info = shadow_guidance(bench)
        guided = make_strategy(algorithm).run(ConfigurationEvaluator(
            bench, location_order=location_order, shadow_info=shadow_info,
        ))
        assert guided.error_value == unguided.error_value
        assert guided.evaluations < unguided.evaluations
        assert guided.metadata["shadow"]["variables"] > 0


class TestRecommendation:
    def test_eos_recommendation_is_verified_and_exact(self):
        bench = get_benchmark("eos")
        report = run_shadow_analysis(bench)
        evaluator = ConfigurationEvaluator(bench)
        rec = recommend_and_verify(report, evaluator)
        assert isinstance(rec, Recommendation)
        assert rec.passed
        assert rec.lowered == ("kernel.coef",)
        assert rec.verified_error == 0.0

    @pytest.mark.parametrize("name", ["eos", "hpccg", "blackscholes"])
    def test_nonempty_recommendation_backed_by_passing_trial(self, name):
        bench = get_benchmark(name)
        report = run_shadow_analysis(bench)
        rec = recommend_and_verify(report, ConfigurationEvaluator(bench))
        assert rec.passed
        assert rec.evaluations == len(rec.trials)
        if rec.lowered:
            # the recommended config is literally one the evaluator passed
            assert any(
                t.passed and t.config == rec.config for t in rec.trials
            )
            threshold = bench.default_threshold
            assert rec.verified_error <= threshold

    def test_uniform_double_floor_when_nothing_tolerates(self):
        # an impossible threshold forces the recommendation down to the
        # unchanged program, which passes by definition
        bench = get_benchmark("hpccg")
        report = run_shadow_analysis(bench)
        from repro.verify.quality import QualitySpec

        evaluator = ConfigurationEvaluator(
            bench, quality=QualitySpec(bench.metric, 0.0),
        )
        rec = recommend_and_verify(report, evaluator)
        assert rec.passed
        assert rec.lowered == ()
        assert rec.verified_error == 0.0
        assert rec.evaluations >= 1  # it did try before falling back


class TestMetadataComposition:
    def test_prune_and_shadow_compose(self):
        from repro.typeforge.prune import prune_report

        bench = get_benchmark("kmeans")
        report = bench.report()
        pruned = prune_report(report)
        location_order, shadow_info = shadow_guidance(bench)
        evaluator = ConfigurationEvaluator(
            bench,
            space_override=pruned.space,
            prune_info=pruned.stats(report.search_space()),
            location_order=location_order,
            shadow_info=shadow_info,
        )
        outcome = make_strategy("DD").run(evaluator)
        assert outcome.metadata["prune"]["locations_after"] <= (
            outcome.metadata["prune"]["locations_before"]
        )
        assert outcome.metadata["shadow"]["ops"] > 0
        json.dumps(outcome.to_json_dict())  # the composition stays serializable


@pytest.fixture()
def shadow_runs(monkeypatch):
    """Count real shadow runs made through the module-level
    ``run_shadow_analysis`` (the name the shared report resolves)."""
    runs = []
    real = report_module.run_shadow_analysis

    def counting(benchmark, *args, **kwargs):
        runs.append(benchmark.name)
        return real(benchmark, *args, **kwargs)

    monkeypatch.setattr(report_module, "run_shadow_analysis", counting)
    return runs


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


class TestSharedReport:
    def test_order_and_screen_share_one_run(self, shadow_runs, data_env):
        bench = get_benchmark("eos")
        shadow_guidance(bench)
        certify_benchmark(bench)
        assert shadow_runs == ["eos"]
        # a second instance shares the fingerprint slot
        shadow_guidance(get_benchmark("eos"))
        certify_benchmark(get_benchmark("eos"))
        assert shadow_runs == ["eos"]

    def test_clear_process_caches_forces_fresh_run(self, shadow_runs, data_env):
        shadow_guidance(get_benchmark("eos"))
        clear_process_caches()
        shadow_guidance(get_benchmark("eos"))
        assert shadow_runs == ["eos", "eos"]

    def test_data_root_is_part_of_the_key(self, shadow_runs, data_env, monkeypatch):
        shadow_guidance(get_benchmark("eos"))
        monkeypatch.setenv("MIXPBENCH_DATA", str(data_env / "other"))
        shadow_guidance(get_benchmark("eos"))
        assert shadow_runs == ["eos", "eos"]

    def test_memo_hit_matches_fresh_uncached_run(self, data_env):
        bench = get_benchmark("hpccg")
        shadow_guidance(bench)  # fill the memo
        order, summary = shadow_guidance(bench)
        model, certificate = certify_benchmark(bench)
        fresh = run_shadow_analysis(get_benchmark("hpccg"))
        fresh_order = fresh.ordering()
        assert _canonical(order.scores) == _canonical(fresh_order.scores)
        assert order.predicted_error == fresh_order.predicted_error
        assert _canonical(summary) == _canonical(fresh.summary())
        assert _canonical(certificate.info()) == _canonical(calibrate_bound(model, fresh).info())

    def test_run_shadow_analysis_stays_uncached(self, monkeypatch, data_env):
        # the sensitivity command and the BENCH_shadow.json gate time
        # real shadow executions
        workspaces = []
        real = report_module.ShadowWorkspace

        def counting(*args, **kwargs):
            workspaces.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(report_module, "ShadowWorkspace", counting)
        bench = get_benchmark("eos")
        shadow_guidance(bench)
        run_shadow_analysis(bench)
        run_shadow_analysis(bench)
        assert len(workspaces) == 3

    def test_concurrent_first_callers_fill_the_slot_once(self, shadow_runs, monkeypatch, data_env):
        bench_cls = type(get_benchmark("eos"))
        real_setup = bench_cls.setup
        setups = []

        def slow_setup(self):
            setups.append(1)
            time.sleep(0.05)  # widen the check-then-set window
            return real_setup(self)

        monkeypatch.setattr(bench_cls, "setup", slow_setup)
        clear_process_caches()
        results = [None] * 4
        errors = []

        def worker(i):
            try:
                order, summary = shadow_guidance(get_benchmark("eos"))
                results[i] = (_canonical(order.scores), _canonical(summary))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(setups) == 1
        assert shadow_runs == ["eos"]
        assert len(set(results)) == 1 and results[0] is not None


class TestShadowOrder:
    def test_score_of_takes_worst_observed_member(self):
        order = ShadowOrder("p", "single", scores={"a": 1.0, "b": 3.0})
        assert order.score_of(["a", "b"]) == 3.0

    def test_unobserved_members_ignored_in_mixed_groups(self):
        # parameter-binding aliases never declared through the
        # workspace must not poison their cluster's score
        order = ShadowOrder("p", "single", scores={"a": 1.0})
        assert order.score_of(["a", "callee.alias"]) == 1.0

    def test_fully_unobserved_group_is_most_sensitive(self):
        order = ShadowOrder("p", "single", scores={"a": 1.0})
        assert order.score_of(["x", "y"]) == float("inf")

    def test_arrange_is_most_sensitive_first_with_name_ties(self):
        bench = get_benchmark("eos")
        space = bench.search_space()
        order = run_shadow_analysis(bench).ordering()
        arranged = order.arrange(space.locations(), space)
        assert sorted(arranged) == sorted(space.locations())
        scores = [order.location_score(space, loc) for loc in arranged]
        assert scores == sorted(scores, reverse=True)

    def test_summary_is_json_safe_and_ranked(self):
        summary = run_shadow_analysis(get_benchmark("eos")).summary()
        json.dumps(summary)
        assert summary["variables"] == 5
        top_scores = [score for _, score in summary["top"]]
        assert top_scores == sorted(top_scores, reverse=True)


class TestWarningHygiene:
    @pytest.mark.parametrize("name", available_benchmarks())
    def test_no_runtime_warnings_under_fp16_shadows(self, name, data_env):
        bench = get_benchmark(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_shadow_analysis(bench, include_half=True)
        assert report.precisions == ("single", "half")
        json.dumps(report.to_json_dict())


class TestCli:
    def test_sensitivity_command(self, capsys, data_env):
        from repro.harness.cli import main

        assert main(["sensitivity", "eos"]) == 0
        out = capsys.readouterr().out
        assert "Shadow sensitivity for eos" in out
        assert "kernel.coef" in out
        assert "verified" in out

    def test_search_order_shadow(self, capsys, data_env):
        from repro.harness.cli import main

        assert main([
            "search", "eos", "--algorithm", "DD", "--order", "shadow",
            "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "shadow:" in out
        assert "vars ranked over" in out
