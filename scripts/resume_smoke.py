#!/usr/bin/env python
"""Crash/recovery smoke: SIGKILL a grid run mid-journal, resume it,
and diff the recovered results against an uninterrupted reference.

This is the end-to-end gate behind CI's resume-smoke job (the in-tree
equivalent lives in tests/test_resume_determinism.py):

1. run a reference ``mixpbench grid`` to completion;
2. start the same grid as a victim process and SIGKILL it as soon as
   its journal shows a few completed trials (if the grid wins the
   race and finishes first, the resume degenerates to a pure restore
   — still worth checking);
3. ``--resume`` the victim and require its ``results.json`` to equal
   the reference's, telemetry aside;
4. ``--resume`` the complete reference in a fresh process: every job
   replays its journaled trials (with a cold baseline memo), so the
   results must be the same, no outcome may count a fresh evaluation,
   and the journal must not change.

Exit status 0 means the recovered run is indistinguishable from the
uninterrupted one and resuming a finished run is read-only.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path


def grid_args(args: argparse.Namespace, output: Path) -> list[str]:
    return [
        sys.executable, "-m", "repro.harness.cli", "grid",
        "--programs", *args.programs,
        "--algorithms", *args.algorithms,
        "--thresholds", *[str(t) for t in args.thresholds],
        "--max-evaluations", str(args.max_evaluations),
        "--no-cache", "--output-dir", str(output),
    ]


def stripped_results(path: Path) -> list[dict]:
    payloads = json.loads(path.read_text())
    for payload in payloads:
        if payload.get("outcome"):
            payload["outcome"]["metadata"].pop("eval_stats", None)
    return payloads


def kill_when_journaled(process: subprocess.Popen, journal: Path, trials: int) -> bool:
    """SIGKILL ``process`` once ``journal`` holds ``trials`` trial
    records; returns whether the kill happened before a clean exit."""
    deadline = time.monotonic() + 300
    while process.poll() is None and time.monotonic() < deadline:
        if (
            journal.exists()
            and journal.read_bytes().count(b'"kind": "trial"') >= trials
        ):
            break
        time.sleep(0.01)
    if process.poll() is None:
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=60)
        return True
    return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", nargs="+", default=["tridiag"])
    parser.add_argument("--algorithms", nargs="+", default=["DD", "GA"])
    parser.add_argument("--thresholds", nargs="+", type=float, default=[1e-8])
    parser.add_argument("--max-evaluations", type=int, default=10)
    parser.add_argument(
        "--kill-after-trials", type=int, default=3,
        help="journal trial records to wait for before the SIGKILL",
    )
    parser.add_argument("--output-dir", default="/tmp/resume-smoke")
    args = parser.parse_args(argv)
    output = Path(args.output_dir)

    print("[1/4] reference grid (uninterrupted)")
    subprocess.run(
        [*grid_args(args, output), "--run-id", "reference"], check=True,
    )

    print("[2/4] victim grid (SIGKILL mid-run)")
    victim_journal = output / "runs" / "victim" / "journal.jsonl"
    victim = subprocess.Popen([*grid_args(args, output), "--run-id", "victim"])
    killed = kill_when_journaled(victim, victim_journal, args.kill_after_trials)
    print(f"      victim {'killed mid-run' if killed else 'finished first'}")
    if not victim_journal.exists():
        print("FAIL: the victim never journaled anything", file=sys.stderr)
        return 1

    print("[3/4] resume the victim and diff against the reference")
    subprocess.run(
        [*grid_args(args, output), "--resume", "victim"], check=True,
    )

    reference = stripped_results(output / "runs" / "reference" / "results.json")
    recovered = stripped_results(output / "runs" / "victim" / "results.json")
    if recovered != reference:
        print("FAIL: recovered results differ from the reference", file=sys.stderr)
        return 1
    print(f"OK: {len(reference)} job(s) recovered bit-identically")

    print("[4/4] resume the finished reference: a read-only replay")
    journal = output / "runs" / "reference" / "journal.jsonl"
    journaled = journal.read_bytes()
    subprocess.run(
        [*grid_args(args, output), "--resume", "reference"], check=True,
    )
    results = output / "runs" / "reference" / "results.json"
    fresh = sum(
        payload["outcome"]["metadata"]["eval_stats"]["fresh_evaluations"]
        for payload in json.loads(results.read_text()) if payload.get("outcome")
    )
    if stripped_results(results) != reference:
        print("FAIL: the replayed reference differs from the reference", file=sys.stderr)
        return 1
    if fresh:
        print(f"FAIL: the replay evaluated {fresh} trial(s) afresh", file=sys.stderr)
        return 1
    if journal.read_bytes() != journaled:
        print("FAIL: resuming a finished run changed its journal", file=sys.stderr)
        return 1
    print(f"OK: {len(reference)} finished job(s) replayed, 0 fresh evaluations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
