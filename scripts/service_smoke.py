#!/usr/bin/env python
"""Service smoke: two tenants, one shared cache, grid-equivalent bytes.

This is the end-to-end gate behind CI's service-smoke job (the in-tree
equivalents live in tests/test_service.py and tests/test_service_cli.py):

1. start a real ``mixpbench serve`` daemon on a fresh state directory;
2. submit the same grid from two tenants and attach to both;
3. require the second job's ledger stats to show shared-cache hits —
   the cross-tenant dedupe the service exists for — and none of its
   shards to have staged a batched execution: under the daemon's
   serial executor no second worker could overlap one, and the replay
   demands none;
4. run the same grid directly through ``mixpbench grid`` and require
   both tenants' parsed results to equal its, telemetry stripped;
5. stop the daemon through its stop file and require a clean exit.

Exit status 0 means a submitted job is indistinguishable from a direct
grid run, and overlapping tenants shared their evaluations.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path


def cli(*tail: str) -> list[str]:
    return [sys.executable, "-m", "repro.harness.cli", *tail]


def grid_axes(args: argparse.Namespace) -> list[str]:
    return [
        "--programs", *args.programs,
        "--algorithms", *args.algorithms,
        "--thresholds", *[str(t) for t in args.thresholds],
        "--max-evaluations", str(args.max_evaluations),
    ]


def stripped_results(path: Path) -> list[dict]:
    payloads = json.loads(path.read_text())
    for payload in payloads:
        if payload.get("outcome"):
            payload["outcome"]["metadata"].pop("eval_stats", None)
    return payloads


def staging_shards(path: Path) -> list[str]:
    """The shards of a saved job whose eval_stats show staged (batched)
    executions."""
    found = []
    for payload in json.loads(path.read_text()):
        outcome = payload.get("outcome")
        if not outcome:
            continue
        staged = outcome["metadata"]["eval_stats"]["prefetched_executions"]
        if staged:
            found.append(f"{outcome['program']} {outcome['strategy']} ({staged} staged)")
    return found


def submit(state_dir: Path, axes: list[str], tenant: str) -> str:
    out = subprocess.run(
        cli("submit", "--state-dir", str(state_dir), "--tenant", tenant, *axes),
        check=True, capture_output=True, text=True,
    ).stdout
    job_id = out.split()[1].rstrip(":")
    print(f"      {tenant}: {job_id}")
    return job_id


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--programs", nargs="+", default=["tridiag"])
    parser.add_argument("--algorithms", nargs="+", default=["DD", "GA"])
    parser.add_argument("--thresholds", nargs="+", type=float, default=[1e-8])
    parser.add_argument("--max-evaluations", type=int, default=10)
    parser.add_argument("--output-dir", default="/tmp/service-smoke")
    args = parser.parse_args(argv)
    output = Path(args.output_dir)
    state_dir = output / "svc"
    axes = grid_axes(args)

    print("[1/5] start the daemon")
    daemon = subprocess.Popen(cli(
        "serve", "--state-dir", str(state_dir),
        "--poll-seconds", "0.05", "--idle-exit", "300",
    ))
    pid_file = state_dir / "serve.pid"
    deadline = time.monotonic() + 60
    while not pid_file.exists():
        if daemon.poll() is not None or time.monotonic() > deadline:
            print("FAIL: the daemon never came up", file=sys.stderr)
            return 1
        time.sleep(0.05)

    try:
        print("[2/5] submit the same grid as two tenants, attach to both")
        saved = {}
        for tenant in ("alice", "bob"):
            job_id = submit(state_dir, axes, tenant)
            saved[tenant] = (job_id, output / f"{tenant}-results.json")
            subprocess.run(cli(
                "attach", job_id, "--state-dir", str(state_dir),
                "--timeout", "600", "--save", str(saved[tenant][1]),
            ), check=True)

        print("[3/5] check cross-tenant dedupe in the ledger")
        bob_job = saved["bob"][0]
        status = json.loads(subprocess.run(
            cli("status", bob_job, "--state-dir", str(state_dir),
                "--format", "json"),
            check=True, capture_output=True, text=True,
        ).stdout)
        hits = status["stats"].get("persistent_hits", 0)
        if hits <= 0:
            print("FAIL: the second tenant's job hit the shared cache "
                  f"{hits} times; overlapping grids did not dedupe",
                  file=sys.stderr)
            return 1
        print(f"      {bob_job}: {hits} shared-cache hit(s), "
              f"{status['stats'].get('fresh_evaluations', 0)} fresh evaluation(s)")
        staged = staging_shards(saved["bob"][1])
        if staged:
            print("FAIL: the second tenant's replay staged executions "
                  f"the serial executor cannot overlap: {', '.join(staged)} "
                  "(GA stages its generations here if the two-worker "
                  "gate regressed)",
                  file=sys.stderr)
            return 1

        print("[4/5] diff both tenants against a direct `mixpbench grid`")
        subprocess.run(cli(
            "grid", *axes, "--no-cache",
            "--run-id", "direct", "--output-dir", str(output / "direct"),
        ), check=True)
        direct = stripped_results(
            output / "direct" / "runs" / "direct" / "results.json"
        )
        for tenant, (job_id, path) in saved.items():
            if stripped_results(path) != direct:
                print(f"FAIL: {tenant}'s {job_id} differs from the direct run",
                      file=sys.stderr)
                return 1
        print(f"      {len(direct)} shard(s) equal for both tenants "
              "(parsed payloads, telemetry stripped)")

        print("[5/5] stop the daemon via its stop file")
        (state_dir / "stop").touch()
        daemon.wait(timeout=120)
    finally:
        if daemon.poll() is None:
            daemon.terminate()
            daemon.wait(timeout=60)
    if daemon.returncode != 0:
        print(f"FAIL: daemon exited {daemon.returncode}", file=sys.stderr)
        return 1
    print("OK: search-as-a-service serves results indistinguishable from "
          "the one-shot grid")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
