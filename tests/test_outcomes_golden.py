"""Outcome goldens for the search-option matrix.

Every (program, algorithm, option set) below runs one capped search
through :func:`repro.harness.scheduler.run_shard` and is pinned in
``tests/data/outcomes_golden.json``: the final configuration, EV, the
analysis hours, the verified error, and digests of the trial log and of
the provenance metadata (``eval_stats`` aside — it records wall time and
executor identity).  A refactor or deletion in the option plumbing, the
guidance passes or the evaluator proves itself by leaving that file
unchanged.

The same outcome must also come out of every entry point that can run
it (``mixpbench search``, ``run_grid``, a YAML harness entry and a
service ``GridSpec``), and out of the process executor.

Regenerate (only for an intended behaviour change, and say why)::

    PYTHONPATH=src python tests/test_outcomes_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.checkpoint import grid_fingerprint
from repro.harness.scheduler import SearchJob, run_grid, run_shard
from repro.service import GridSpec

GOLDEN_PATH = Path(__file__).parent / "data" / "outcomes_golden.json"

PROGRAMS = ("eos", "tridiag", "planckian", "hpccg", "kmeans", "blackscholes")
ALGORITHMS = ("DD", "HR", "GA", "BW")
OPTION_SETS = {
    "plain": {},
    "prune": {"prune": True},
    "shadow": {"shadow": True},
    "screen": {"screen": True},
    "all": {"prune": True, "shadow": True, "screen": True},
}
THRESHOLD = 1e-6
MAX_EVALUATIONS = 16


def _job(program: str, algorithm: str, options: str, **extra) -> SearchJob:
    return SearchJob(
        program, algorithm, THRESHOLD, max_evaluations=MAX_EVALUATIONS,
        **OPTION_SETS[options], **extra,
    )


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _without_eval_stats(outcome_json: dict) -> dict:
    out = json.loads(json.dumps(outcome_json))
    out["metadata"].pop("eval_stats", None)
    return out


def summarize(outcome) -> dict:
    """The pinned fields of one outcome."""
    metadata = dict(outcome.metadata)
    metadata.pop("eval_stats", None)
    return {
        "config": outcome.final.config.digest() if outcome.found_solution else None,
        "ev": outcome.evaluations,
        "hours": repr(outcome.analysis_seconds / 3600.0),
        "error": repr(outcome.error_value),
        "trials": _digest([trial.to_json_dict() for trial in outcome.trials]),
        "metadata": _digest(metadata),
    }


def _key(program: str, algorithm: str, options: str) -> str:
    return f"{program}/{algorithm}/{options}"


def compute(program: str, algorithm: str, options: str) -> dict:
    result = run_shard(_job(program, algorithm, options))
    assert result.ok, result.error
    return summarize(result.outcome)


def _load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


CASES = [
    (program, algorithm, options)
    for program in PROGRAMS
    for algorithm in ALGORITHMS
    for options in OPTION_SETS
]


class TestOutcomeGolden:
    def test_every_case_is_pinned(self):
        assert sorted(_load()) == sorted(_key(*case) for case in CASES)

    @pytest.mark.parametrize("program,algorithm,options", CASES)
    def test_outcome_matches_golden(self, program, algorithm, options):
        expected = _load()[_key(program, algorithm, options)]
        assert compute(program, algorithm, options) == expected


class TestProcessExecutor:
    """A subset under the process executor equals the serial golden."""

    @pytest.mark.parametrize("program,algorithm,options", [
        ("eos", "DD", "all"),
        ("tridiag", "GA", "plain"),
        ("blackscholes", "BW", "screen"),
    ])
    def test_process_equals_serial(self, program, algorithm, options):
        result = run_shard(_job(
            program, algorithm, options, executor="process", executor_workers=2,
        ))
        assert result.ok, result.error
        expected = _load()[_key(program, algorithm, options)]
        assert summarize(result.outcome) == expected


class TestEntryPointsAgree:
    """One (program, algorithm, options) case through every entry point
    gives the same outcome, ``eval_stats`` aside."""

    PROGRAM, ALGORITHM = "eos", "DD"

    def test_search_grid_harness_and_spec_agree(self, tmp_path, monkeypatch):
        from repro.harness.cli import main
        from repro.harness.config import parse_config
        from repro.harness.plugins import FloatSmithPlugin
        from repro.harness.runner import Harness

        reference = run_shard(_job(self.PROGRAM, self.ALGORITHM, "all"))
        assert reference.ok, reference.error
        expected = _without_eval_stats(reference.outcome.to_json_dict())

        saved = tmp_path / "search.json"
        assert main([
            "search", self.PROGRAM, "--algorithm", self.ALGORITHM,
            "--threshold", str(THRESHOLD),
            "--max-evaluations", str(MAX_EVALUATIONS),
            "--prune", "--order", "shadow", "--screen", "--no-cache",
            "--output-dir", str(tmp_path / "search"), "--save", str(saved),
        ]) == 0
        via_search = _without_eval_stats(json.loads(saved.read_text()))

        [grid] = run_grid([_job(self.PROGRAM, self.ALGORITHM, "all")])
        via_grid = _without_eval_stats(grid.outcome.to_json_dict())

        spec = GridSpec(
            programs=(self.PROGRAM,), algorithms=(self.ALGORITHM,),
            thresholds=(THRESHOLD,), max_evaluations=MAX_EVALUATIONS,
            prune=True, shadow=True, screen=True,
        )
        [spec_job] = spec.jobs()
        assert spec_job == _job(self.PROGRAM, self.ALGORITHM, "all")
        via_spec = _without_eval_stats(run_shard(spec_job).outcome.to_json_dict())

        captured = []
        analysis = FloatSmithPlugin.analysis

        def capture(plugin, app, **extra_args):
            result = analysis(plugin, app, **extra_args)
            captured.append(result.outcome)
            return result

        monkeypatch.setattr(FloatSmithPlugin, "analysis", capture)
        [entry] = parse_config({"golden": {
            "benchmark": self.PROGRAM, "threshold": THRESHOLD, "cache": False,
            "prune": True, "shadow": True, "screen": True,
            "analysis": {"fs": {"name": "floatSmith", "extra_args": {
                "algorithm": self.ALGORITHM,
                "max_evaluations": MAX_EVALUATIONS,
            }}},
        }})
        Harness(output_dir=tmp_path / "harness").run_entry(entry)
        [harness_outcome] = captured
        via_harness = _without_eval_stats(harness_outcome.to_json_dict())

        assert via_search == expected
        assert via_grid == expected
        assert via_spec == expected
        assert via_harness == expected


#: (GridSpec keywords, digest, fingerprint, fingerprint with a cache dir)
PINNED_SPECS = [
    (
        dict(programs=("eos",), algorithms=("DD",), thresholds=(1e-8,)),
        "d34af8ad1746", "3e39238a7d88021b1609", "856bcfee14e981a4a724",
    ),
    (
        dict(
            programs=("eos", "hpccg"), algorithms=("DD", "BW"), thresholds=(1e-8,),
            max_evaluations=12, executor="process", executor_workers=2,
            trial_timeout=5.0, max_retries=1, prune=True, shadow=True,
            rounding="stochastic", screen=True,
        ),
        "80143b92954a", "8476eb81cf4e17d2bd57", "d0c3b8f90595fde730c1",
    ),
]


class TestSpecIdentity:
    """Job identifiers and resume fingerprints of journals written by
    earlier releases must keep matching."""

    @pytest.mark.parametrize("kwargs,digest,fingerprint,cached", PINNED_SPECS)
    def test_digest_and_fingerprint_are_pinned(self, kwargs, digest, fingerprint, cached):
        spec = GridSpec(**kwargs)
        assert spec.digest() == digest
        assert grid_fingerprint(spec.jobs()) == fingerprint
        assert grid_fingerprint(spec.jobs(cache_dir="/tmp/c")) == cached
        assert GridSpec.from_json_dict(spec.to_json_dict()) == spec


def _write() -> None:
    golden = {_key(*case): compute(*case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} outcomes to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_outcomes_golden.py --write")
    _write()
