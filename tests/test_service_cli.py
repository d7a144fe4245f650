"""CLI coverage for the service verbs: serve / submit / status /
attach / cancel.

The daemon runs as a real subprocess (it is one in production); the
client side runs in-process through :func:`repro.harness.cli.main`,
which talks to the daemon only through the spool and the ledger —
exactly what a separate terminal would do.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

import pytest

from repro.harness import scheduler as harness_scheduler
from repro.harness.cli import build_parser, main
from repro.harness.scheduler import JobResult, run_grid, write_results
from repro.service import GridSpec, Scheduler, results_path
from repro.service import scheduler as service_scheduler

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.state_dir == "service"
        assert args.service_workers == 2
        assert args.quota == 8
        assert args.idle_exit is None

    def test_submit_requires_grid_axes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "--programs", "tridiag"])

    def test_submit_flags(self):
        args = build_parser().parse_args([
            "submit", "--programs", "tridiag", "--algorithms", "DD", "GA",
            "--thresholds", "1e-8", "--tenant", "alice", "--attach",
        ])
        assert args.tenant == "alice"
        assert args.attach
        assert args.algorithms == ["DD", "GA"]

    def test_status_job_is_optional(self):
        assert build_parser().parse_args(["status"]).job_id is None
        args = build_parser().parse_args(["status", "job-0001-aaaa"])
        assert args.job_id == "job-0001-aaaa"

    def test_attach_and_cancel_take_a_job(self):
        args = build_parser().parse_args(["attach", "j1", "--save", "out.json"])
        assert args.job_id == "j1"
        assert args.save == "out.json"
        assert build_parser().parse_args(["cancel", "j1"]).job_id == "j1"


def _spawn_daemon(state_dir: Path, tmp_path: Path) -> subprocess.Popen:
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO_ROOT / "src"),
        MIXPBENCH_DATA=str(tmp_path / "data"),
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.harness.cli", "serve",
            "--state-dir", str(state_dir),
            "--poll-seconds", "0.05", "--idle-exit", "30",
        ],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    pid_file = state_dir / "serve.pid"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if pid_file.exists():
            return process
        if process.poll() is not None:
            raise AssertionError(
                f"daemon died on startup:\n{process.stdout.read()}"
            )
        time.sleep(0.05)
    process.kill()
    raise AssertionError("daemon never wrote its pid file")


def _stripped(payload: list[dict]) -> list[dict]:
    out = json.loads(json.dumps(payload))
    for row in out:
        (row.get("outcome") or {}).get("metadata", {}).pop("eval_stats", None)
    return out


class TestResultsWriter:
    """``results.json`` has one writer, shared by ``mixpbench grid
    --run-id`` and the service."""

    @staticmethod
    def _results():
        spec = GridSpec(
            programs=("tridiag",), algorithms=("DD", "GA"), thresholds=(1e-8,),
            max_evaluations=4,
        )
        results = run_grid(spec.jobs())
        try:
            raise RuntimeError("synthetic \"failure\"")
        except RuntimeError:
            results[1] = JobResult(
                job=results[1].job, error=traceback.format_exc(),
                error_kind="RuntimeError",
            )
        return spec, results

    def test_compact_sorted_json_of_the_payloads(self, tmp_path, data_env):
        _, results = self._results()
        path = tmp_path / "results.json"
        write_results(path, results)
        payload = [result.to_json_dict() for result in results]
        assert json.loads(path.read_text()) == payload
        assert path.read_text() == json.dumps(payload, sort_keys=True)

    def test_service_and_grid_write_the_same_bytes(
        self, tmp_path, capsys, data_env, monkeypatch
    ):
        spec, results = self._results()
        by_label = {result.job.label(): result for result in results}
        # both paths serialise these very results, whatever they compute
        monkeypatch.setattr(
            harness_scheduler, "run_grid", lambda jobs, **kwargs: list(results),
        )
        monkeypatch.setattr(
            service_scheduler, "run_shard",
            lambda shard, **kwargs: by_label[shard.label()],
        )
        assert main([
            "grid", "--programs", "tridiag", "--algorithms", "DD", "GA",
            "--thresholds", "1e-8", "--max-evaluations", "4",
            "--run-id", "direct", "--output-dir", str(tmp_path / "direct"),
            "--no-cache",
        ]) == 1  # the failed shard
        capsys.readouterr()
        service = Scheduler(tmp_path / "svc", workers=1)
        service.start()
        try:
            job_id = service.submit(spec)
            assert service.wait_job(job_id, timeout=60) == "failed"
        finally:
            service.stop(drain=True)
        grid_bytes = (
            tmp_path / "direct" / "runs" / "direct" / "results.json"
        ).read_bytes()
        assert results_path(tmp_path / "svc", job_id).read_bytes() == grid_bytes


class TestEndToEnd:
    def test_submit_attach_dedupe_and_grid_equivalence(
        self, tmp_path, capsys, data_env
    ):
        state_dir = tmp_path / "svc"
        grid = [
            "--programs", "tridiag", "--algorithms", "DD", "GA",
            "--thresholds", "1e-8", "--max-evaluations", "8",
        ]
        daemon = _spawn_daemon(state_dir, data_env)
        try:
            # tenant alice submits and stays attached to completion
            assert main([
                "submit", "--state-dir", str(state_dir), "--tenant", "alice",
                "--attach", *grid,
            ]) == 0
            out = capsys.readouterr().out
            assert "submitted job-0001-" in out
            assert "state: done" in out

            # tenant bob submits the same grid, then attaches explicitly
            assert main([
                "submit", "--state-dir", str(state_dir), "--tenant", "bob",
                *grid,
            ]) == 0
            job_id = capsys.readouterr().out.split()[1].rstrip(":")
            saved = tmp_path / "bob-results.json"
            assert main([
                "attach", job_id, "--state-dir", str(state_dir),
                "--timeout", "120", "--save", str(saved),
            ]) == 0
            capsys.readouterr()

            # bob's overlapping grid deduped through the shared cache
            assert main([
                "status", job_id, "--state-dir", str(state_dir),
                "--format", "json",
            ]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["state"] == "done"
            assert payload["stats"]["persistent_hits"] > 0

            # … and is byte-identical to a direct `mixpbench grid`
            assert main([
                "grid", *grid, "--run-id", "direct",
                "--output-dir", str(tmp_path / "direct"), "--no-cache",
            ]) == 0
            capsys.readouterr()
            direct = json.loads(
                (tmp_path / "direct" / "runs" / "direct" / "results.json")
                .read_text()
            )
            assert _stripped(json.loads(saved.read_text())) == _stripped(direct)

            # the human-readable ledger lists both tenants
            assert main(["status", "--state-dir", str(state_dir)]) == 0
            ledger = capsys.readouterr().out
            assert "alice" in ledger and "bob" in ledger
        finally:
            daemon.terminate()
            daemon.wait(timeout=30)

    def test_daemon_sigkill_then_restart_finishes_the_job(
        self, tmp_path, capsys, data_env
    ):
        state_dir = tmp_path / "svc"
        grid = [
            "--programs", "tridiag", "--algorithms", "DD", "GA",
            "--thresholds", "1e-8", "1e-4", "--max-evaluations", "8",
        ]
        daemon = _spawn_daemon(state_dir, data_env)
        try:
            assert main([
                "submit", "--state-dir", str(state_dir), *grid,
            ]) == 0
            job_id = capsys.readouterr().out.split()[1].rstrip(":")
        finally:
            os.kill(daemon.pid, signal.SIGKILL)  # no drain, no goodbye
            daemon.wait(timeout=30)

        # the accepted job survived in the ledger; usually the kill
        # lands mid-run (queued/running) and the restart resumes it —
        # if the daemon won the race, the restart is a pure replay
        assert main([
            "status", job_id, "--state-dir", str(state_dir),
            "--format", "json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["state"] != "failed"

        # … and a restarted daemon resumes and finishes it
        daemon = _spawn_daemon(state_dir, data_env)
        try:
            assert main([
                "attach", job_id, "--state-dir", str(state_dir),
                "--timeout", "180",
            ]) == 0
            out = capsys.readouterr().out
            assert f"{job_id}: done" in out
        finally:
            daemon.terminate()
            daemon.wait(timeout=30)

    def test_cancel_via_spool(self, tmp_path, capsys, data_env):
        state_dir = tmp_path / "svc"
        daemon = _spawn_daemon(state_dir, data_env)
        try:
            # a long grid gives cancel something to interrupt; even if
            # it wins the race and finishes, the verb still round-trips
            assert main([
                "submit", "--state-dir", str(state_dir),
                "--programs", "tridiag", "--algorithms", "DD", "GA", "CB",
                "--thresholds", "1e-8", "1e-6", "--max-evaluations", "8",
            ]) == 0
            job_id = capsys.readouterr().out.split()[1].rstrip(":")
            assert main([
                "cancel", job_id, "--state-dir", str(state_dir),
            ]) == 0
            capsys.readouterr()
            exit_code = main([
                "attach", job_id, "--state-dir", str(state_dir),
                "--timeout", "180",
            ])
            capsys.readouterr()
            assert exit_code in (0, 3)  # done if cancel lost the race
        finally:
            daemon.terminate()
            daemon.wait(timeout=30)
