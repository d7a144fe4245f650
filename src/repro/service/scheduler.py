"""The search service scheduler: sharded, multi-tenant grid execution.

``mixpbench grid`` runs one grid and exits; the :class:`Scheduler`
turns the same machinery into a long-running service.  Submitted
:class:`~repro.service.spec.GridSpec`\\ s are journaled durably
(:mod:`repro.service.queue`), expanded into their
:class:`~repro.harness.scheduler.SearchJob` shards, and dispatched to
N worker threads over a :class:`~repro.core.batch.WorkStealingQueue`
— each worker drains its own job's lane for locality and steals from
the deepest backlog when idle.  Every shard executes through
:func:`repro.harness.scheduler.run_shard` with

* the job's own :class:`~repro.core.checkpoint.RunJournal`, so every
  completed trial is fsync'd and a crashed shard (or a SIGKILL'd
  service) resumes bit-identically; and
* the service's *shared* :class:`~repro.runtime.cache.EvaluationCache`,
  so overlapping submissions from different tenants replay each
  other's evaluations instead of recomputing them — the cross-tenant
  dedupe the cache-hit counters in job stats surface.

Fault handling at this layer mirrors the executor layer below it: a
worker that dies mid-shard (any exception escaping the shard,
including hook failures) has its shard *redispatched* up to
``shard_retries`` times, replaying the trials the dead attempt already
journaled; exhausting the budget records a ``WorkerCrash`` shard
error, never a lost job.
"""

from __future__ import annotations

import json
import os
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.batch import WorkStealingQueue
from repro.core.checkpoint import JournalError, RunJournal, job_key, load_run_state
from repro.errors import MixPBenchError
from repro.harness.scheduler import JobResult, SearchJob, run_shard
from repro.runtime.cache import EvaluationCache
from repro.service.queue import ServiceJournal, state_paths
from repro.service.spec import GridSpec, JobRecord

__all__ = [
    "QuotaExceeded", "ServiceDraining", "Scheduler", "SchedulerHooks",
    "UnknownJob",
]


class QuotaExceeded(MixPBenchError):
    """A tenant is at its active-job quota."""


class ServiceDraining(MixPBenchError):
    """The service is draining and no longer accepts submissions."""


class UnknownJob(MixPBenchError):
    """No job with the requested identifier exists."""


@dataclass
class SchedulerHooks:
    """Optional instrumentation callbacks, invoked from worker threads.

    ``shard_started(job_id, key)`` fires before a shard executes and
    ``shard_finished(job_id, key, result)`` after; an exception raised
    by either is treated exactly like a worker crash (the shard is
    redispatched), which is also what makes them the deterministic
    crash-injection seam the fault tests use.
    """

    shard_started: Callable[[str, str], None] | None = None
    shard_finished: Callable[[str, str, JobResult], None] | None = None


class _ActiveJob:
    """Scheduler-side bookkeeping for one submitted job."""

    def __init__(
        self,
        record: JobRecord,
        shards: list[SearchJob],
        journal: RunJournal,
    ) -> None:
        self.record = record
        self.shards = shards
        self.keys = [job_key(index, shard) for index, shard in enumerate(shards)]
        self.journal = journal
        self.results: list[JobResult | None] = [None] * len(shards)
        self.restored: set[int] = set()
        self.in_flight = 0
        self.redispatched = 0
        self.cancel_requested = False
        self.finalized = False

    @property
    def unfinished(self) -> int:
        return sum(1 for result in self.results if result is None)


class Scheduler:
    """Accepts, shards, executes and accounts multi-tenant search jobs.

    Parameters
    ----------
    state_dir:
        Root of the durable service state (ledger, shared cache, per-job
        run journals, results, spool).  Reopening a directory recovers
        it: terminal jobs are kept as history, queued/running jobs are
        re-enqueued and resume from their journals.
    workers:
        Worker threads draining the shard queue (work stealing).
    quota:
        Per-tenant ceiling on *active* (queued + running) jobs; the
        quota protects the queue, not history — finished jobs don't
        count.
    shard_retries:
        How many times a shard whose worker crashed is redispatched
        before it is recorded as a ``WorkerCrash`` error.
    hooks:
        Optional :class:`SchedulerHooks` instrumentation.
    """

    def __init__(
        self,
        state_dir: str | Path,
        workers: int = 2,
        quota: int = 8,
        shard_retries: int = 2,
        hooks: SchedulerHooks | None = None,
    ) -> None:
        self.paths = state_paths(state_dir)
        for name in ("root", "cache", "runs", "jobs", "spool"):
            self.paths[name].mkdir(parents=True, exist_ok=True)
        self.workers = max(1, int(workers))
        self.quota = max(1, int(quota))
        self.shard_retries = max(0, int(shard_retries))
        self.hooks = hooks if hooks is not None else SchedulerHooks()
        self.cache = EvaluationCache(self.paths["cache"])

        self._journal = ServiceJournal(self.paths["root"])
        self._sequence = self._journal.state.sequence
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        self._queue = WorkStealingQueue()
        self._active: dict[str, _ActiveJob] = {}
        self._records: dict[str, JobRecord] = dict(self._journal.state.jobs)
        self._threads: list[threading.Thread] = []
        self._draining = False
        self._stopped = False
        self._recover()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._threads:
                return
            self._threads = [
                threading.Thread(
                    target=self._worker_loop, name=f"mixpbench-svc-{i}", daemon=True,
                )
                for i in range(self.workers)
            ]
        for thread in self._threads:
            thread.start()

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service.

        ``drain=True`` stops accepting submissions, lets every queued
        and running shard finish, then stops the workers.  With
        ``drain=False`` workers stop after their current shard; the
        journals make the abandoned jobs resumable on the next start.
        """
        with self._lock:
            self._draining = True
        if drain and self._threads:  # nobody drains a never-started queue
            self.wait_idle(timeout=timeout)
        with self._lock:
            self._stopped = True
        self._queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        self._journal.close()

    def drain(self) -> None:
        """Stop accepting new submissions; keep executing what's queued."""
        with self._lock:
            self._draining = True

    # -- submission / control --------------------------------------------

    def submit(self, spec: GridSpec, tenant: str = "default") -> str:
        """Durably accept one job; returns its identifier.

        The submit record is fsync'd to the service journal *before*
        this returns — an accepted job survives any crash after the
        acknowledgement.
        """
        tenant = _check_tenant(tenant)
        with self._lock:
            if self._draining:
                raise ServiceDraining(
                    "the service is draining and accepts no new jobs"
                )
            active = [
                record for record in self._records.values()
                if record.tenant == tenant and not record.terminal
            ]
            if len(active) >= self.quota:
                raise QuotaExceeded(
                    f"tenant {tenant!r} already has {len(active)} active "
                    f"job(s), the quota; wait for one to finish or cancel it"
                )
            self._sequence += 1
            job_id = f"job-{self._sequence:04d}-{spec.digest()[:8]}"
            record = JobRecord(job_id=job_id, tenant=tenant, spec=spec)
            self._journal.append_submit(record, self._sequence)
            self._records[job_id] = record
            self._enqueue(record, resume=False)
        self._progress(job_id, "state", state="queued", tenant=tenant,
                       label=spec.label(), shards=spec.shards)
        return job_id

    def cancel(self, job_id: str) -> str:
        """Cancel a job; returns its resulting state.

        A queued job cancels immediately.  A running job stops at the
        next shard boundary: unstarted shards are dropped, in-flight
        shards finish (their trials stay journaled and cached).
        Cancelling a terminal job is a no-op returning its state.
        """
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise UnknownJob(f"no such job: {job_id!r}")
            if record.terminal:
                return record.state
            active = self._active.get(job_id)
            if active is None:  # accepted but lost its runtime state?
                self._set_state(record, "cancelled")
                return "cancelled"
            active.cancel_requested = True
            self._queue.drop_lane(job_id)
            if active.in_flight == 0:
                self._finalize(active)
            return self._records[job_id].state

    def status(self, job_id: str | None = None) -> dict:
        """A JSON-able snapshot of one job or the whole service."""
        with self._lock:
            if job_id is not None:
                record = self._records.get(job_id)
                if record is None:
                    raise UnknownJob(f"no such job: {job_id!r}")
                return {"job": self._job_status(record)}
            return {
                "jobs": [
                    self._job_status(record)
                    for record in self._records.values()
                ],
                "workers": self.workers,
                "quota": self.quota,
                "draining": self._draining,
                "cache": {
                    "hits": self.cache.hits,
                    "misses": self.cache.misses,
                    "writes": self.cache.writes,
                },
            }

    def _job_status(self, record: JobRecord) -> dict:
        active = self._active.get(record.job_id)
        done = 0
        total = record.spec.shards
        if active is not None:
            done = total - active.unfinished
        elif record.terminal:
            done = int(record.stats.get("shards_done", 0))
        return {
            "job_id": record.job_id,
            "tenant": record.tenant,
            "state": record.state,
            "label": record.spec.label(),
            "shards": total,
            "shards_finished": done,
            "error": record.error,
            "stats": dict(record.stats),
        }

    # -- waiting ----------------------------------------------------------

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or running."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while any(not r.terminal for r in self._records.values()):
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def wait_job(self, job_id: str, timeout: float | None = None) -> str:
        """Block until one job reaches a terminal state; returns it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while True:
                record = self._records.get(job_id)
                if record is None:
                    raise UnknownJob(f"no such job: {job_id!r}")
                if record.terminal:
                    return record.state
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return record.state
                self._idle.wait(remaining)

    # -- serve loop -------------------------------------------------------

    def serve(
        self,
        poll_seconds: float = 0.1,
        idle_exit_seconds: float | None = None,
    ) -> None:
        """Run the daemon loop: ingest spool submissions until stopped.

        The loop exits when ``<state_dir>/stop`` appears (graceful
        drain) or, with ``idle_exit_seconds``, after that long with no
        active jobs and an empty spool — the self-terminating mode CI
        uses.  A PID file is kept at ``<state_dir>/serve.pid`` while
        the loop runs.
        """
        stop_file = self.paths["root"] / "stop"
        pid_file = self.paths["root"] / "serve.pid"
        pid_file.write_text(str(os.getpid()) + "\n")
        self.start()
        idle_since: float | None = None
        try:
            while True:
                ingested = self.poll_spool()
                with self._lock:
                    busy = any(not r.terminal for r in self._records.values())
                if stop_file.exists():
                    break
                if ingested or busy:
                    idle_since = None
                elif idle_exit_seconds is not None:
                    now = time.monotonic()
                    if idle_since is None:
                        idle_since = now
                    elif now - idle_since >= idle_exit_seconds:
                        break
                time.sleep(poll_seconds)
        finally:
            self.stop(drain=True)
            pid_file.unlink(missing_ok=True)
            stop_file.unlink(missing_ok=True)

    def poll_spool(self) -> int:
        """Ingest pending spool requests (submit/cancel); returns how many."""
        handled = 0
        for request in sorted(self.paths["spool"].glob("*.json")):
            if request.name.endswith(".ack.json"):
                continue
            try:
                payload = json.loads(request.read_text())
            except (OSError, json.JSONDecodeError):
                continue  # mid-write; the atomic rename hasn't landed yet
            ack: dict
            try:
                if not isinstance(payload, dict):
                    raise MixPBenchError(
                        f"request must be a JSON object, got {type(payload).__name__}"
                    )
                if request.name.endswith(".cancel.json"):
                    state = self.cancel(str(payload.get("job_id", "")))
                    ack = {"ok": True, "state": state}
                else:
                    spec = GridSpec.from_json_dict(payload.get("spec", {}))
                    job_id = self.submit(spec, payload.get("tenant", "default"))
                    ack = {"ok": True, "job_id": job_id}
            except MixPBenchError as error:
                ack = {"ok": False, "error": str(error)}
            ack_path = request.with_name(request.stem + ".ack.json")
            tmp = ack_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(ack, sort_keys=True))
            tmp.replace(ack_path)
            request.unlink(missing_ok=True)
            handled += 1
        return handled

    # -- internals --------------------------------------------------------

    def _recover(self) -> None:
        """Re-enqueue every non-terminal job from the reopened ledger.

        A job whose run journal cannot be resumed (written for a
        different grid fingerprint or journal version) is failed with
        the reason; the other jobs still recover."""
        for record in self._records.values():
            if record.terminal:
                continue
            with self._lock:
                if record.state == "running":
                    # back to the queue; the run journal replays its trials
                    self._set_state(record, "queued")
                try:
                    self._enqueue(record, resume=True)
                except JournalError as error:
                    self._set_state(record, "failed", error=str(error))

    def _enqueue(self, record: JobRecord, resume: bool) -> None:
        shards = record.spec.jobs()
        journal_path = (
            self.paths["runs"] / record.job_id / "journal.jsonl"
        )
        journal = RunJournal(
            self.paths["runs"], record.job_id, shards,
            resume=resume and journal_path.exists(),
        )
        active = _ActiveJob(record, shards, journal)
        state = getattr(journal, "state", None)
        pushed = 0
        for index, key in enumerate(active.keys):
            payload = state.finished.get(key) if state is not None else None
            if payload is not None:
                restored = JobResult.from_json_dict(payload, shards[index])
                restored.resumed = True
                active.results[index] = restored
                active.restored.add(index)
            else:
                self._queue.push(record.job_id, index)
                pushed += 1
        self._active[record.job_id] = active
        if pushed == 0:
            # every shard was journaled as done before the crash;
            # nothing to execute, only the terminal transition was lost
            self._finalize(active)

    def _worker_loop(self) -> None:
        affinity: str | None = None
        while True:
            popped = self._queue.pop(preferred=affinity, timeout=0.2)
            if popped is None:
                with self._lock:
                    if self._stopped:
                        return
                continue
            lane, index = popped
            affinity = lane
            self._run_one(lane, index)

    def _run_one(self, job_id: str, index: int) -> None:
        with self._lock:
            active = self._active.get(job_id)
            if active is None:
                return
            if active.cancel_requested:
                if active.in_flight == 0:
                    self._finalize(active)
                return
            record = active.record
            if record.state == "queued":
                self._set_state(record, "running")
                self._progress(job_id, "state", state="running")
            active.in_flight += 1
            shard = active.shards[index]
            key = active.keys[index]
            journal = active.journal
            replay = (
                journal.state.job_trials(key)
                if getattr(journal, "state", None) is not None else None
            )

        attempts = 0
        while True:
            try:
                if self.hooks.shard_started is not None:
                    self.hooks.shard_started(job_id, key)
                result = run_shard(
                    shard, journal=journal, key=key, replay=replay,
                    cache=self.cache,
                )
                if self.hooks.shard_finished is not None:
                    self.hooks.shard_finished(job_id, key, result)
                break
            except Exception:  # noqa: BLE001 — the worker "crashed"
                if attempts >= self.shard_retries:
                    result = JobResult(
                        job=shard, error=traceback.format_exc(),
                        error_kind="WorkerCrash",
                    )
                    break
                attempts += 1
                with self._lock:
                    active.redispatched += 1
                # replay what the dead attempt already journaled, so the
                # redispatched shard resumes instead of recomputing
                replay = load_run_state(journal.path).job_trials(key)

        self._progress(
            job_id, "shard", shard=shard.label(),
            status="ok" if result.ok else f"error:{result.error_kind}",
            evaluations=result.outcome.evaluations if result.ok else None,
        )
        with self._lock:
            active.results[index] = result
            active.in_flight -= 1
            done = (
                active.in_flight == 0
                if active.cancel_requested else active.unfinished == 0
            )
            if done:
                self._finalize(active)

    def _finalize(self, active: _ActiveJob) -> None:
        """Terminal transition: stats, results.json, journal, ledger.

        Caller holds the scheduler lock.
        """
        if active.finalized:
            return
        active.finalized = True
        record = active.record
        results = [result for result in active.results if result is not None]
        stats = _aggregate_stats(active)
        if active.cancel_requested:
            state = "cancelled"
        elif any(not result.ok for result in results):
            state = "failed"
        else:
            state = "done"
        error = None
        if state == "failed":
            kinds = sorted({
                result.error_kind or "unknown"
                for result in results if not result.ok
            })
            error = f"{len([r for r in results if not r.ok])} shard(s) failed: " \
                    + ", ".join(kinds)
        if state != "cancelled":
            job_dir = self.paths["jobs"] / record.job_id
            job_dir.mkdir(parents=True, exist_ok=True)
            # byte-for-byte the payload `mixpbench grid` saves for the
            # same spec (the attach/grid equivalence contract)
            (job_dir / "results.json").write_text(json.dumps(
                [result.to_json_dict() for result in results],
                indent=2, sort_keys=True,
            ))
        active.journal.close()
        self._set_state(record, state, error=error, stats=stats)
        self._active.pop(record.job_id, None)
        self._progress(record.job_id, "state", state=state, stats=stats)

    def _set_state(
        self,
        record: JobRecord,
        state: str,
        error: str | None = None,
        stats: dict | None = None,
    ) -> None:
        record.state = state
        if error is not None:
            record.error = error
        if stats is not None:
            record.stats = dict(stats)
        self._journal.append_state(record.job_id, state, error=error, stats=stats)
        if state in ("done", "failed", "cancelled"):
            self._idle.notify_all()

    def _progress(self, job_id: str, kind: str, **fields) -> None:
        """Advisory per-job event stream for ``mixpbench attach``."""
        job_dir = self.paths["jobs"] / job_id
        try:
            job_dir.mkdir(parents=True, exist_ok=True)
            event = {"kind": kind, "ts": round(time.time(), 3)}
            event.update(fields)
            with (job_dir / "progress.jsonl").open("a") as handle:
                handle.write(json.dumps(event, sort_keys=True, default=str) + "\n")
        except OSError:
            pass  # progress is best-effort; the journal is the ledger


def _aggregate_stats(active: _ActiveJob) -> dict:
    stats = {
        "shards": len(active.shards),
        "shards_done": sum(1 for r in active.results if r is not None and r.ok),
        "shards_failed": sum(
            1 for r in active.results if r is not None and not r.ok
        ),
        "shards_restored": len(active.restored),
        "redispatched_shards": active.redispatched,
        "evaluations": 0,
        "fresh_evaluations": 0,
        "persistent_hits": 0,
        "cache_hits": 0,
    }
    for result in active.results:
        if result is None or result.outcome is None:
            continue
        eval_stats = result.outcome.metadata.get("eval_stats") or {}
        for field in (
            "evaluations", "fresh_evaluations", "persistent_hits", "cache_hits",
        ):
            stats[field] += int(eval_stats.get(field, 0))
    return stats


def _check_tenant(tenant: str) -> str:
    tenant = (tenant if isinstance(tenant, str) else "").strip()
    if not tenant or not all(c.isalnum() or c in "-_." for c in tenant):
        raise MixPBenchError(
            f"invalid tenant {tenant!r}: use letters, digits, '-', '_', '.'"
        )
    return tenant
