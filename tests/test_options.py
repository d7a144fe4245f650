"""Tests of :mod:`repro.harness.options`: the one declaration of every
per-run search option, its validation and JSON form, the layers that
inherit it, option precedence in the YAML harness, and the process
pool's worker cap."""

from __future__ import annotations

import dataclasses
import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.batch import ProcessExecutor
from repro.errors import HarnessConfigError, PluginError
from repro.harness import plugins as plugins_module
from repro.harness.cli import build_parser, search_options
from repro.harness.config import _TOP_KEYS, parse_config
from repro.harness.options import OPTION_NAMES, OptionError, SearchOptions
from repro.harness.plugins import DeployedApp, get_plugin
from repro.harness.runner import Harness
from repro.harness.scheduler import SearchJob, grid_jobs
from repro.service import GridSpec, SpecError


class TestSearchOptions:
    @pytest.mark.parametrize("name,value", [
        ("max_evaluations", 0),
        ("max_evaluations", 2.5),
        ("max_evaluations", True),
        ("time_limit_seconds", float("nan")),
        ("time_limit_seconds", -1.0),
        ("time_limit_seconds", "soon"),
        ("executor", "quantum"),
        ("executor", 5),
        ("executor_workers", 0),
        ("executor_workers", "2"),
        ("trial_timeout", 0.0),
        ("trial_timeout", float("inf")),
        ("max_retries", -1),
        ("max_retries", None),
        ("prune", "false"),
        ("shadow", 1),
        ("rounding", "up"),
        ("screen", None),
    ])
    def test_bad_value_names_its_field(self, name, value):
        with pytest.raises(OptionError, match=name) as raised:
            SearchOptions(**{name: value})
        assert raised.value.name == name

    def test_values_are_normalised(self):
        options = SearchOptions(
            executor=" Process ", rounding="STOCHASTIC", time_limit_seconds=60,
        )
        assert options.executor == "process"
        assert options.rounding == "stochastic"
        assert options.time_limit_seconds == 60.0
        assert isinstance(options.time_limit_seconds, float)

    def test_json_form_emits_late_fields_only_when_set(self):
        default = SearchOptions().options_json()
        assert set(default) == set(OPTION_NAMES) - {"rounding", "screen"}
        assert default["max_evaluations"] is None
        changed = SearchOptions(rounding="stochastic", screen=True).options_json()
        assert changed["rounding"] == "stochastic" and changed["screen"] is True

    def test_layers_inherit_the_fields(self):
        job = SearchJob("eos", "DD", 1e-8, prune=True)
        assert isinstance(job, SearchOptions) and job.prune
        spec = GridSpec(programs=("eos",), algorithms=("DD",), thresholds=(1e-8,))
        assert isinstance(spec, SearchOptions)
        # asdict stays flat: the resume fingerprint sees the same keys
        assert set(dataclasses.asdict(job)) == {
            "program", "algorithm", "threshold", "metric", "cache_dir",
            *OPTION_NAMES,
        }

    def test_grid_jobs_carry_the_options(self):
        options = SearchOptions(max_evaluations=3, shadow=True, rounding="stochastic")
        [job] = grid_jobs(["eos"], ["BW"], [1e-6], options, cache_dir="/tmp/c")
        assert job.option_values() == options.option_values()
        assert job.cache_dir == "/tmp/c"

    def test_spec_rejects_with_spec_error(self):
        with pytest.raises(SpecError, match="executor_workers"):
            GridSpec(
                programs=("eos",), algorithms=("DD",), thresholds=(1e-8,),
                executor_workers=0,
            )


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["run", "cfg.yaml"],
        ["search", "eos", "--max-evaluations", "7"],
        ["grid", "--programs", "eos", "--algorithms", "DD", "--thresholds", "1e-8",
         "--max-evaluations", "7", "--time-limit-hours", "2"],
        ["submit", "--programs", "eos", "--algorithms", "DD", "--thresholds", "1e-8",
         "--max-evaluations", "7", "--time-limit-hours", "2"],
    ])
    def test_every_command_reads_the_same_flags(self, argv):
        args = build_parser().parse_args(argv + [
            "--executor", "thread", "--workers", "3", "--trial-timeout", "5",
            "--max-retries", "1", "--prune", "--order", "shadow",
            "--rounding", "stochastic", "--screen",
        ])
        options = search_options(args)
        assert options == SearchOptions(
            max_evaluations=getattr(args, "max_evaluations", None),
            time_limit_seconds=getattr(args, "time_limit_hours", 24.0) * 3600.0,
            executor="thread", executor_workers=3, trial_timeout=5.0,
            max_retries=1, prune=True, shadow=True, rounding="stochastic",
            screen=True,
        )

    @pytest.mark.parametrize("argv,message", [
        (["search", "eos", "--workers", "0"],
         "argument --workers: must be at least 1, got 0"),
        (["search", "eos", "--max-evaluations", "0"],
         "argument --max-evaluations: must be at least 1, got 0"),
        (["search", "eos", "--trial-timeout", "0"],
         "argument --trial-timeout: must be positive, got 0.0"),
        (["search", "eos", "--max-retries", "-1"],
         "argument --max-retries: must be at least 0, got -1"),
        (["grid", "--programs", "eos", "--algorithms", "DD", "--thresholds", "1e-8",
          "--time-limit-hours", "-3"],
         "argument --time-limit-hours: must be positive, got -3.0"),
    ])
    def test_bad_flag_value_is_reported_under_its_flag(self, capsys, argv, message):
        from repro.harness.cli import main

        assert main(argv) == 2
        assert capsys.readouterr().err.strip() == f"mixpbench: error: {message}"


class TestYamlValidation:
    @pytest.mark.parametrize("body,key", [
        ({"build": 5}, "build"),
        ({"clean": [1]}, "clean"),
        ({"analysis": ["a"]}, "analysis"),
        ({"runs": True}, "runs"),
        ({"metric": 5}, "metric"),
        ({"benchmark": ["eos"]}, "benchmark"),
        ({"threshold": float("inf")}, "threshold"),
        ({"threshold": True}, "threshold"),
        ({"time_limit_hours": float("nan")}, "time_limit_hours"),
        ({"time_limit_hours": -3}, "time_limit_hours"),
        ({"cache": "yes"}, "cache"),
        ({"workers": 0}, "workers"),
        ({"workers": True}, "workers"),
        ({"executor": "quantum"}, "executor"),
        ({"prune": "false"}, "prune"),
        ({"rounding": "up"}, "rounding"),
        ({"screen": 1}, "screen"),
    ])
    def test_malformed_entry_raises_config_error(self, body, key):
        with pytest.raises(HarnessConfigError, match=key):
            parse_config({"x": body})

    def test_single_build_step_is_one_step(self):
        [entry] = parse_config({"x": {"build": "make", "clean": ["a", "b"]}})
        assert entry.build == ("make",)
        assert entry.clean == ("a", "b")

    def test_numeric_strings_parse(self):
        # YAML 1.1 reads 1e-6 (no decimal point) as a string
        [entry] = parse_config({"x": {"threshold": "1e-6", "time_limit_hours": "2"}})
        assert entry.threshold == 1e-6
        assert entry.time_limit_hours == 2.0

    def test_option_keys_become_validated_overrides(self):
        [entry] = parse_config({"x": {
            "executor": "Thread", "workers": 2, "prune": False, "rounding": "stochastic",
        }})
        assert entry.options == {
            "executor": "thread", "executor_workers": 2, "prune": False,
            "rounding": "stochastic",
        }

    @given(st.dictionaries(
        st.sampled_from(sorted(_TOP_KEYS)) | st.text(max_size=6),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=8),
            lambda children: st.lists(children, max_size=3)
            | st.dictionaries(st.text(max_size=8), children, max_size=3),
            max_leaves=6,
        ),
        max_size=8,
    ))
    @settings(max_examples=300, deadline=None)
    def test_any_json_entry_parses_or_raises_config_error(self, body):
        try:
            [entry] = parse_config({"x": body})
        except HarnessConfigError:
            return
        # an accepted entry's options build a valid SearchOptions
        dataclasses.replace(SearchOptions(), **entry.options)


class _Captured(Exception):
    """Stops an analysis once its options are known."""


@pytest.fixture()
def captured_options(monkeypatch):
    """The SearchOptions every floatSmith analysis builds its evaluator
    from (the search itself is skipped)."""
    seen = []

    def capture(bench, quality, options, **services):
        seen.append(options)
        raise _Captured

    monkeypatch.setattr(plugins_module, "build_evaluator", capture)
    return seen


def _app(tmp_path, **options) -> DeployedApp:
    from repro.benchmarks.base import get_benchmark
    from repro.verify.quality import QualitySpec

    return DeployedApp(
        benchmark=get_benchmark("tridiag"),
        quality=QualitySpec("MAE", 1e-8),
        runs_per_config=10,
        time_limit_seconds=3600,
        output_dir=tmp_path,
        options=SearchOptions(**options),
    )


class TestExtraArgsPrecedence:
    """``extra_args`` beat the YAML entry, which beats the harness-wide
    flag."""

    def _analyse(self, app, **extra_args):
        with pytest.raises(_Captured):
            get_plugin("floatSmith").analysis(app, algorithm="DD", **extra_args)

    def test_string_false_is_rejected_not_truthy(self, tmp_path, captured_options):
        with pytest.raises(PluginError, match="prune"):
            get_plugin("floatSmith").analysis(_app(tmp_path), prune="false")
        assert captured_options == []

    def test_bad_rounding_is_rejected(self, tmp_path, captured_options):
        with pytest.raises(PluginError, match="rounding"):
            get_plugin("floatSmith").analysis(_app(tmp_path), rounding="up")

    def test_bad_strategy_args_are_rejected(self, tmp_path, captured_options):
        with pytest.raises(PluginError, match="strategy_args"):
            get_plugin("floatSmith").analysis(_app(tmp_path), strategy_args=5)

    def test_false_turns_off_an_inherited_true(self, tmp_path, captured_options):
        app = _app(tmp_path, prune=True, shadow=True, screen=True)
        self._analyse(app, prune=False, shadow=False, screen=False)
        [options] = captured_options
        assert (options.prune, options.shadow, options.screen) == (False, False, False)

    def test_true_turns_on_an_inherited_false(self, tmp_path, captured_options):
        self._analyse(_app(tmp_path), prune=True, rounding="stochastic",
                      max_evaluations=5)
        [options] = captured_options
        assert options.prune and options.rounding == "stochastic"
        assert options.max_evaluations == 5

    def test_absent_keys_inherit(self, tmp_path, captured_options):
        self._analyse(_app(tmp_path, shadow=True, rounding="stochastic"))
        [options] = captured_options
        assert options.shadow and options.rounding == "stochastic"
        assert options.time_limit_seconds == 3600.0

    def test_yaml_entry_beats_harness_flag_and_extra_args_beat_both(
        self, tmp_path, data_env, captured_options,
    ):
        [entry] = parse_config({"tridiag": {
            "prune": False, "shadow": True, "cache": False, "time_limit_hours": 2,
            "analysis": {"fs": {"name": "floatSmith",
                                "extra_args": {"algorithm": "DD", "shadow": False}}},
        }})
        harness = Harness(
            output_dir=tmp_path / "out",
            options=SearchOptions(prune=True, screen=True),
        )
        with pytest.raises(_Captured):
            harness.run_entry(entry)
        [options] = captured_options
        assert options.prune is False   # YAML entry over the harness flag
        assert options.shadow is False  # extra_args over the YAML entry
        assert options.screen is True   # inherited from the harness flag
        assert options.time_limit_seconds == 7200.0  # the entry's budget

    def test_extra_args_false_turns_off_pruning_end_to_end(self, tmp_path, data_env):
        app = _app(tmp_path, prune=True)
        pruned = get_plugin("floatSmith").analysis(app, algorithm="DD", max_evaluations=4)
        plain = get_plugin("floatSmith").analysis(
            app, algorithm="DD", max_evaluations=4, prune=False,
        )
        assert "prune" in pruned.outcome.metadata
        assert "prune" not in plain.outcome.metadata


class TestProcessPoolCap:
    def test_pool_never_exceeds_cpu_count(self):
        # constructing the pool starts no process: only a batch would
        executor = ProcessExecutor(10**6)
        pool = executor._ensure_pool()
        try:
            assert pool._max_workers == (os.cpu_count() or 1)
            assert executor.workers == 10**6
        finally:
            pool.shutdown(wait=True)
            executor._pool = None

    def test_small_requests_are_kept(self):
        executor = ProcessExecutor(1)
        pool = executor._ensure_pool()
        try:
            assert pool._max_workers == 1
        finally:
            pool.shutdown(wait=True)
            executor._pool = None

    def test_zero_workers_are_refused_not_clamped(self):
        # constructing an executor starts no process
        with pytest.raises(ValueError, match="at least one worker"):
            ProcessExecutor(0)
