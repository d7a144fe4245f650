"""Determinism gate: kill-and-resume must be invisible in the results.

Mirrors the bit-exactness discipline of test_fastpath_exactness: an
uninterrupted reference grid is the contract, and resuming from a
journal cut at several points — right after the header, mid-way
through a job's trials, and on a torn half-record — must reproduce the
reference trial logs, EV counts and final configurations byte for
byte.  Only the telemetry block (``eval_stats``) may differ: a resumed
run answers journaled trials from the replay store, which it reports
as persistent hits.

The CLI test goes one step further and SIGKILLs a real ``mixpbench
grid`` process mid-run, then resumes it in a fresh process.
"""

from __future__ import annotations

import copy
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import subprocess_env
from repro.harness.scheduler import SearchJob, run_grid

REPO_ROOT = Path(__file__).parent.parent

JOBS = [
    SearchJob("tridiag", "DD", 1e-8, max_evaluations=10),
    SearchJob("tridiag", "GA", 1e-8, max_evaluations=10),
    # prune + shadow guidance together: both provenance blocks must
    # ride through the journal and the resume byte-identically
    SearchJob("eos", "DD", 1e-8, max_evaluations=10, prune=True, shadow=True),
]


def _payloads(results):
    payloads = []
    for result in results:
        payload = copy.deepcopy(result.to_json_dict())
        if payload["outcome"]:
            payload["outcome"]["metadata"].pop("eval_stats", None)
        payloads.append(payload)
    return payloads


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Uninterrupted journaled reference run + its journal lines."""
    patcher = pytest.MonkeyPatch()
    root = tmp_path_factory.mktemp("resume-determinism")
    patcher.setenv("MIXPBENCH_DATA", str(root / "data"))
    runs = root / "runs"
    results = run_grid(JOBS, run_id="reference", runs_dir=runs)
    assert all(result.ok for result in results)
    lines = (runs / "reference" / "journal.jsonl").read_bytes().splitlines(
        keepends=True
    )
    yield {"runs": runs, "payloads": _payloads(results), "lines": lines}
    patcher.undo()


def _cut_points(lines):
    """Three crash points: nothing journaled yet, mid-way through the
    trials, and a torn half-record at the tail."""
    return {
        "after-header": lines[:1],
        "mid-trials": lines[: 1 + (len(lines) - 1) // 2],
        "torn-tail": lines[:-1] + [lines[-1][: max(1, len(lines[-1]) // 2)]],
    }


@pytest.mark.parametrize("cut", ["after-header", "mid-trials", "torn-tail"])
def test_resume_is_bit_identical_to_uninterrupted(reference, cut):
    prefix = _cut_points(reference["lines"])[cut]
    run_id = f"cut-{cut}"
    cut_dir = reference["runs"] / run_id
    cut_dir.mkdir()
    (cut_dir / "journal.jsonl").write_bytes(b"".join(prefix))

    resumed = run_grid(JOBS, resume=run_id, runs_dir=reference["runs"])

    payloads = _payloads(resumed)
    assert payloads == reference["payloads"]
    # the headline numbers, spelled out for the humans reading a failure
    for mine, ref in zip(payloads, reference["payloads"]):
        assert mine["outcome"]["evaluations"] == ref["outcome"]["evaluations"]
        assert mine["outcome"]["final"] == ref["outcome"]["final"]
        assert mine["outcome"]["trials"] == ref["outcome"]["trials"]
    # the prune+shadow job's provenance composed and survived the resume
    guided = payloads[-1]["outcome"]["metadata"]
    assert guided["prune"]["locations_before"] >= guided["prune"]["locations_after"]
    assert guided["shadow"]["variables"] > 0 and guided["shadow"]["ops"] > 0


def test_resumed_journal_can_resume_again(reference):
    """A resume of a resume is still the reference — the journal stays
    consistent after the first recovery appended to it."""
    prefix = _cut_points(reference["lines"])["mid-trials"]
    cut_dir = reference["runs"] / "twice"
    cut_dir.mkdir()
    (cut_dir / "journal.jsonl").write_bytes(b"".join(prefix))
    first = run_grid(JOBS, resume="twice", runs_dir=reference["runs"])
    second = run_grid(JOBS, resume="twice", runs_dir=reference["runs"])
    assert all(result.resumed for result in second)
    assert _payloads(first) == reference["payloads"]
    assert _payloads(second) == reference["payloads"]


# -- CLI crash/recovery ------------------------------------------------------

GRID_ARGS = [
    "grid", "--programs", "tridiag", "--algorithms", "DD", "GA",
    "--thresholds", "1e-8", "--max-evaluations", "10", "--no-cache",
]


def _cli_env(tmp_path):
    return subprocess_env(
        HOME=str(tmp_path), MIXPBENCH_DATA=str(tmp_path / "data"),
        PYTHONPATH=str(REPO_ROOT / "src"),
    )


def _run_cli(args, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", *args],
        capture_output=True, text=True, timeout=600, cwd=REPO_ROOT,
        env=_cli_env(tmp_path),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def _stripped_results(path):
    payloads = json.loads(Path(path).read_text())
    for payload in payloads:
        if payload["outcome"]:
            payload["outcome"]["metadata"].pop("eval_stats", None)
    return payloads


def test_cli_grid_survives_sigkill(tmp_path):
    out = tmp_path / "out"
    _run_cli([*GRID_ARGS, "--output-dir", str(out), "--run-id", "reference"],
             tmp_path)

    victim_journal = out / "runs" / "victim" / "journal.jsonl"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.harness.cli", *GRID_ARGS,
         "--output-dir", str(out), "--run-id", "victim"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        cwd=REPO_ROOT, env=_cli_env(tmp_path),
    )
    try:
        # kill as soon as some trials hit the journal; if the grid is
        # faster than the poll the journal is simply complete, which
        # resumes just as well (and exercises the restore path)
        deadline = time.monotonic() + 120
        while process.poll() is None and time.monotonic() < deadline:
            if (
                victim_journal.exists()
                and victim_journal.read_bytes().count(b'"kind": "trial"') >= 3
            ):
                break
            time.sleep(0.01)
        if process.poll() is None:
            os.kill(process.pid, signal.SIGKILL)
    finally:
        process.wait(timeout=60)

    assert victim_journal.exists(), "the victim never journaled anything"
    _run_cli([*GRID_ARGS, "--output-dir", str(out), "--resume", "victim"],
             tmp_path)

    reference = _stripped_results(out / "runs" / "reference" / "results.json")
    recovered = _stripped_results(out / "runs" / "victim" / "results.json")
    assert recovered == reference
