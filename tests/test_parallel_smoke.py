"""End-to-end smoke: the CLI's parallel executors reproduce serial
results exactly on real suite benchmarks.

This is the regression gate behind CI's smoke job: for a fixed seed,
``mixpbench search --executor process`` must save a SearchOutcome
identical to the serial run (telemetry aside), and a repeat run
against a warm persistent cache must replay instead of re-executing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import subprocess_env

REPO_ROOT = Path(__file__).parent.parent


def run_cli(args, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", *args],
        capture_output=True, text=True, timeout=600, cwd=REPO_ROOT,
        env=subprocess_env(
            HOME=str(tmp_path), MIXPBENCH_DATA=str(tmp_path / "data"),
            PYTHONPATH=str(REPO_ROOT / "src"),
        ),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def saved_outcome(path):
    payload = json.loads(Path(path).read_text())
    stats = payload["metadata"].pop("eval_stats")
    return payload, stats


@pytest.mark.parametrize("algorithm", ["GA", "CB"])
def test_process_executor_matches_serial(algorithm, tmp_path):
    common = [
        "search", "tridiag", "--algorithm", algorithm,
        "--max-evaluations", "12", "--no-cache",
        "--output-dir", str(tmp_path / "out"),
    ]
    run_cli([*common, "--executor", "serial",
             "--save", str(tmp_path / "serial.json")], tmp_path)
    run_cli([*common, "--executor", "process", "--workers", "2",
             "--save", str(tmp_path / "process.json")], tmp_path)

    serial, serial_stats = saved_outcome(tmp_path / "serial.json")
    parallel, parallel_stats = saved_outcome(tmp_path / "process.json")
    assert serial == parallel
    assert parallel_stats["executor"] == "process"
    assert parallel_stats["workers"] == 2
    assert parallel_stats["prefetched_executions"] > 0


def test_warm_cache_replays_instead_of_executing(tmp_path):
    common = [
        "search", "tridiag", "--algorithm", "GA",
        "--max-evaluations", "12",
        "--output-dir", str(tmp_path / "out"),
    ]
    run_cli([*common, "--save", str(tmp_path / "cold.json")], tmp_path)
    run_cli([*common, "--save", str(tmp_path / "warm.json")], tmp_path)

    cold, cold_stats = saved_outcome(tmp_path / "cold.json")
    warm, warm_stats = saved_outcome(tmp_path / "warm.json")
    assert cold == warm
    assert warm_stats["persistent_hits"] > 0
    assert warm_stats["fresh_evaluations"] < cold_stats["fresh_evaluations"]
    assert (tmp_path / "out" / "cache").is_dir()


def test_trace_file_is_written(tmp_path):
    run_cli([
        "search", "tridiag", "--algorithm", "DD", "--max-evaluations", "8",
        "--no-cache", "--trace", "--output-dir", str(tmp_path / "out"),
    ], tmp_path)
    trace = tmp_path / "out" / "traces" / "tridiag-DD.jsonl"
    assert trace.is_file()
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert events, "trace is empty"
    kinds = {event["kind"] for event in events}
    assert "evaluate" in kinds
    assert [event["seq"] for event in events] == list(range(len(events)))
