"""Durable on-disk job queue: the service's own crash-safe ledger.

Layout of a service state directory::

    <state_dir>/
        service.jsonl          # this module: the job ledger
        cache/                 # shared EvaluationCache (cross-tenant dedupe)
        runs/<job_id>/         # per-job RunJournal (trial-level resume)
            journal.jsonl
        jobs/<job_id>/
            results.json       # same payload `mixpbench grid` writes
            progress.jsonl     # event stream `mixpbench attach` tails
        spool/                 # client → daemon submission handshake

The ledger journal records two kinds of events — ``submit`` (the full
:class:`~repro.service.spec.JobRecord` including its spec) and
``state`` (a lifecycle transition, with aggregate stats at terminal
transitions) — using the same fsync'd single-line append discipline as
the grid :class:`~repro.core.checkpoint.RunJournal`.  A SIGKILL'd
service therefore loses at most the torn last line; on restart
:func:`load_service_state` rebuilds the ledger, the torn tail is
truncated, and every non-terminal job is re-enqueued (running jobs
resume trial-by-trial through their own run journals).
"""

from __future__ import annotations

from pathlib import Path

from repro.core.checkpoint import JournalError, JsonlJournal, read_journal_records
from repro.service.spec import JobRecord

__all__ = [
    "SERVICE_JOURNAL_VERSION", "ServiceJournal", "ServiceState",
    "load_service_state", "state_paths",
]

#: bump when the ledger record schema changes; a mismatch refuses to
#: reopen the state directory instead of silently mis-reading it
SERVICE_JOURNAL_VERSION = 1


def state_paths(state_dir: str | Path) -> dict[str, Path]:
    """The canonical layout of one service state directory."""
    root = Path(state_dir)
    return {
        "root": root,
        "journal": root / "service.jsonl",
        "cache": root / "cache",
        "runs": root / "runs",
        "jobs": root / "jobs",
        "spool": root / "spool",
    }


class ServiceState:
    """Everything the ledger knows: job records, in submission order."""

    def __init__(self) -> None:
        self.jobs: dict[str, JobRecord] = {}
        self.sequence = 0
        self.valid_bytes = 0
        self.torn_tail = False
        self.version: int | None = None

    def active(self, tenant: str | None = None) -> list[JobRecord]:
        """Non-terminal jobs, optionally restricted to one tenant."""
        return [
            record for record in self.jobs.values()
            if not record.terminal and (tenant is None or record.tenant == tenant)
        ]


def load_service_state(path: str | Path) -> ServiceState:
    """Rebuild the ledger from the journal, tolerating a torn tail."""
    state = ServiceState()
    records, state.valid_bytes, state.torn_tail = read_journal_records(path)
    for record in records:
        kind = record["kind"]
        if kind == "service":
            state.version = record.get("version")
        elif kind == "submit":
            job = JobRecord.from_json_dict(record.get("job", {}))
            state.jobs[job.job_id] = job
            state.sequence = max(state.sequence, int(record.get("sequence", 0)))
        elif kind == "state":
            job = state.jobs.get(record.get("job_id", ""))
            if job is not None:
                job.state = record.get("state", job.state)
                job.error = record.get("error", job.error)
                if record.get("stats"):
                    job.stats = dict(record["stats"])
        # unknown kinds are forward-compatible no-ops
    return state


class ServiceJournal(JsonlJournal):
    """The fsync'd job ledger of one service state directory.

    Opening an existing directory verifies the journal version and
    truncates any torn tail; a fresh directory gets a header record.
    The loaded :class:`ServiceState` is exposed as ``state`` so the
    scheduler can re-enqueue survivors.
    """

    def __init__(self, state_dir: str | Path) -> None:
        path = state_paths(state_dir)["journal"]
        self.state = load_service_state(path)
        if path.exists() and self.state.version is None and self.state.jobs:
            raise JournalError(
                f"service journal {path} has records but no header; "
                "refusing to reopen"
            )
        if (
            self.state.version is not None
            and self.state.version != SERVICE_JOURNAL_VERSION
        ):
            raise JournalError(
                f"service journal {path} has version {self.state.version!r}, "
                f"this code writes {SERVICE_JOURNAL_VERSION}; refusing to reopen"
            )
        truncate_at = self.state.valid_bytes if self.state.torn_tail else None
        super().__init__(path, truncate_at=truncate_at)
        if self.state.version is None:
            self.append("service", version=SERVICE_JOURNAL_VERSION)
            self.state.version = SERVICE_JOURNAL_VERSION

    def append_submit(self, record: JobRecord, sequence: int) -> None:
        self.append("submit", job=record.to_json_dict(), sequence=sequence)

    def append_state(
        self,
        job_id: str,
        state: str,
        error: str | None = None,
        stats: dict | None = None,
    ) -> None:
        fields: dict = {"job_id": job_id, "state": state}
        if error is not None:
            fields["error"] = error
        if stats:
            fields["stats"] = dict(stats)
        self.append("state", **fields)
