"""Crash-safe checkpoint/resume for grid search runs.

The paper's evaluation schedules the full (program x algorithm x
threshold) grid on a cluster with 24-hour per-analysis limits
(Section IV); a crash there loses one node's analysis, not the grid.
Our single-node :func:`~repro.harness.scheduler.run_grid` used to lose
*everything* in flight when the process died.  This module makes a
grid run durable:

* :class:`RunJournal` appends one JSON record per event — the run
  header, every fresh trial of every job, and every finished job — to
  ``<runs_dir>/<run-id>/journal.jsonl``.  Each append is a single
  ``write`` of one full line followed by ``flush`` + ``fsync``, so a
  crash can only ever lose (or tear) the *last* record, never corrupt
  an earlier one.
* :func:`load_run_state` parses a journal back into a
  :class:`RunState`, stopping at the first incomplete record.  A torn
  tail (the page the crash interrupted) is detected — by a missing
  trailing newline or an unparsable line — and dropped; resuming
  truncates the file back to the last complete record before
  appending, so the journal never accretes garbage.
* On resume, finished jobs are restored straight from their journaled
  :class:`~repro.harness.scheduler.JobResult` payloads, and in-flight
  jobs replay their journaled trials *through the evaluator* (the same
  replay path the persistent cache uses: identical simulated cost,
  identical EV increment, no program execution).  The search strategy
  then re-runs deterministically over the replayed prefix and
  continues fresh from the cut point, so a resumed grid produces
  bit-identical ``SearchOutcome``\\ s, tables and trial logs to an
  uninterrupted one.

The journal deliberately does *not* record anything derived (best-so-
far, budgets, strategy internals): strategies are deterministic
functions of the trial results, so the trial prefix is the whole
state.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import MixPBenchError

__all__ = [
    "JOURNAL_VERSION", "JournalError", "JsonlJournal", "RunJournal",
    "RunState", "JournalTrialStore", "grid_fingerprint", "job_key",
    "load_run_state", "read_journal_records",
]

#: bump when the journal record schema changes; a mismatch refuses to
#: resume instead of silently mis-replaying
JOURNAL_VERSION = 1

#: default root for run journals, relative to the working directory
DEFAULT_RUNS_DIR = Path("results") / "runs"


class JournalError(MixPBenchError):
    """A journal cannot be (re)opened for the requested run."""


def grid_fingerprint(jobs: Sequence[Any]) -> str:
    """Stable hash of a job list.

    Folds in every field of every job, in order, so a resume against a
    *different* grid (changed thresholds, reordered programs, new
    executor settings) is rejected instead of replaying the wrong
    trials.
    """
    blob = json.dumps(
        [_job_payload(job) for job in jobs], sort_keys=True, default=str
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def _job_payload(job: Any) -> dict:
    from dataclasses import asdict, is_dataclass

    if is_dataclass(job):
        return asdict(job)
    return dict(job)


def job_key(index: int, job: Any) -> str:
    """Journal identifier of one job: position plus human-readable label.

    A job whose label cannot be computed (say, an unknown algorithm
    name) still needs a stable key — its *failure* is journaled too —
    so fall back to the raw field values.
    """
    try:
        label = job.label() if hasattr(job, "label") else str(job)
    except Exception:  # noqa: BLE001 — key must always be derivable
        label = f"{job.program}/{job.algorithm}@{job.threshold:g}"
    return f"{index:04d}:{label}"


@dataclass
class RunState:
    """Everything a journal knows about one run.

    ``finished`` maps job keys to their journaled ``JobResult``
    payloads; ``trials`` maps in-flight job keys to an *ordered*
    ``{config digest: {"context": ..., "record": ...}}`` table of the
    fresh trials the crashed run completed.  ``valid_bytes`` is the
    offset of the last complete record — resuming truncates the file
    there — and ``torn_tail`` reports whether a crash left a partial
    record behind it.
    """

    run_id: str = ""
    meta: dict | None = None
    finished: dict[str, dict] = field(default_factory=dict)
    trials: dict[str, dict[str, dict]] = field(default_factory=dict)
    valid_bytes: int = 0
    torn_tail: bool = False

    @property
    def grid(self) -> str | None:
        return self.meta.get("grid") if self.meta else None

    def job_trials(self, key: str) -> dict[str, dict]:
        """The journaled trial table of one job (empty when unseen)."""
        return self.trials.get(key, {})


def read_journal_records(path: str | Path) -> tuple[list[dict], int, bool]:
    """Parse any fsync'd JSON-lines journal, tolerating a torn tail.

    Records are consumed in order up to the first incomplete one: a
    line that is not valid JSON, is missing its trailing newline, or
    does not carry a ``kind`` marks the crash point — everything from
    there on is ignored.  Returns ``(records, valid_bytes, torn_tail)``
    where ``valid_bytes`` is the offset of the last complete record (a
    resuming writer truncates the file there).  A mid-file torn record
    also fences off the records after it; with fsync'd single-line
    appends that can only be the tail.
    """
    path = Path(path)
    records: list[dict] = []
    if not path.exists():
        return records, 0, False
    data = path.read_bytes()
    offset = 0
    torn = False
    for raw_line in data.splitlines(keepends=True):
        if not raw_line.endswith(b"\n"):
            torn = True
            break
        try:
            record = json.loads(raw_line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            torn = True
            break
        if not isinstance(record, dict) or "kind" not in record:
            torn = True
            break
        records.append(record)
        offset += len(raw_line)
    if offset < len(data):
        torn = True
    return records, offset, torn


def load_run_state(path: str | Path) -> RunState:
    """Parse a grid-run journal back into a :class:`RunState`."""
    state = RunState()
    records, state.valid_bytes, state.torn_tail = read_journal_records(path)
    for record in records:
        _apply_record(state, record)
    return state


def _apply_record(state: RunState, record: dict) -> None:
    kind = record["kind"]
    if kind == "run":
        state.meta = record
        state.run_id = record.get("run_id", "")
    elif kind == "trial":
        table = state.trials.setdefault(record.get("job", ""), {})
        table[str(record.get("config"))] = {
            "context": record.get("context"),
            "record": record.get("record", {}),
        }
    elif kind == "job_done":
        key = record.get("job", "")
        state.finished[key] = record.get("result", {})
        state.trials.pop(key, None)
    # unknown kinds are forward-compatible no-ops


class JsonlJournal:
    """Append-only, fsync'd JSON-lines journal.

    The durable-logging substrate shared by :class:`RunJournal` (one
    grid run) and the service journal (:mod:`repro.service.queue`).
    Each :meth:`append` is a single ``write`` of one full line followed
    by ``flush`` + ``fsync``, so a crash can only ever lose or tear the
    *last* record; :func:`read_journal_records` drops the torn tail on
    the way back in.  Appends are thread-safe.

    ``truncate_at`` (the ``valid_bytes`` of a prior read) is applied
    before opening for append, so a resuming writer starts on a record
    boundary instead of accreting garbage after a torn record.
    """

    def __init__(self, path: str | Path, truncate_at: int | None = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        if truncate_at is not None and self.path.exists():
            if self.path.stat().st_size > truncate_at:
                with self.path.open("r+b") as handle:
                    handle.truncate(truncate_at)
        self._handle = self.path.open("ab")

    def append(self, kind: str, **fields: Any) -> None:
        """Durably append one record: one write, one flush, one fsync."""
        record = {"kind": kind}
        record.update(fields)
        line = (json.dumps(record, sort_keys=True, default=str) + "\n").encode()
        with self._lock:
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "JsonlJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class RunJournal(JsonlJournal):
    """Append-only, fsync'd journal of one grid run.

    Opening for a *fresh* run writes the header record; opening with
    ``resume=True`` loads the prior state, verifies the run is the
    same grid (fingerprint and journal version), and truncates any
    torn tail so subsequent appends start on a record boundary.
    Appends are thread-safe — grid workers journal concurrently.
    """

    def __init__(
        self,
        runs_dir: str | Path,
        run_id: str,
        jobs: Sequence[Any],
        resume: bool = False,
    ) -> None:
        if not run_id or any(sep in run_id for sep in ("/", "\\", "\0")):
            raise JournalError(f"invalid run id {run_id!r}")
        self.run_id = run_id
        self.directory = Path(runs_dir) / run_id
        path = self.directory / "journal.jsonl"
        fingerprint = grid_fingerprint(jobs)

        truncate_at = None
        if resume:
            if not path.exists():
                raise JournalError(
                    f"cannot resume run {run_id!r}: no journal at {path}"
                )
            self.state = load_run_state(path)
            self._check_resumable(fingerprint, path)
            if self.state.torn_tail:
                truncate_at = self.state.valid_bytes
        else:
            if path.exists() and path.stat().st_size > 0:
                raise JournalError(
                    f"run {run_id!r} already has a journal at {path}; "
                    "pass resume to continue it or pick a fresh run id"
                )
            self.state = RunState(run_id=run_id)

        super().__init__(path, truncate_at=truncate_at)
        if not resume:
            self.append(
                "run", run_id=run_id, version=JOURNAL_VERSION,
                grid=fingerprint, jobs=[job_key(i, j) for i, j in enumerate(jobs)],
            )

    def _check_resumable(self, fingerprint: str, path: Path) -> None:
        meta = self.state.meta
        if meta is None:
            raise JournalError(
                f"journal {path} has no run header; refusing to resume"
            )
        if meta.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {path} has version {meta.get('version')!r}, "
                f"this code writes {JOURNAL_VERSION}; refusing to resume"
            )
        if meta.get("grid") != fingerprint:
            raise JournalError(
                f"run {self.run_id!r} journaled a different job grid "
                f"({meta.get('grid')} != {fingerprint}); refusing to resume"
            )

    def append_trial(
        self, key: str, context: str, config_digest: str, record: Mapping
    ) -> None:
        self.append(
            "trial", job=key, context=context, config=config_digest,
            record=dict(record),
        )

    def append_job_done(self, key: str, result_payload: Mapping) -> None:
        self.append("job_done", job=key, result=dict(result_payload))


class JournalTrialStore:
    """Evaluation-cache adapter backed by a run journal.

    Speaks the :class:`~repro.runtime.cache.EvaluationCache` protocol
    the evaluator already understands (``get``/``contains``/``put``),
    so journaled trials replay through the exact code path
    persistent-cache hits do — same simulated cost, same EV increment,
    bit-identical trial records.  Fresh evaluations are journaled
    before being forwarded to the optional inner cache; replays
    consult the journal first, then the inner cache.
    """

    def __init__(
        self,
        journal: RunJournal,
        key: str,
        replay: Mapping[str, dict] | None = None,
        inner: Any | None = None,
    ) -> None:
        self._journal = journal
        self._key = key
        self._replay = dict(replay or {})
        self._inner = inner

    def get(self, program: str, context: str, config_digest: str) -> dict | None:
        entry = self._replay.get(config_digest)
        if entry is not None and entry.get("context") == context:
            return entry.get("record")
        if self._inner is not None:
            return self._inner.get(program, context, config_digest)
        return None

    def contains(self, program: str, context: str, config_digest: str) -> bool:
        entry = self._replay.get(config_digest)
        if entry is not None and entry.get("context") == context:
            return True
        return self._inner is not None and self._inner.contains(program, context, config_digest)

    def put(
        self, program: str, context: str, config_digest: str, record: Mapping
    ) -> None:
        self._journal.append_trial(self._key, context, config_digest, record)
        if self._inner is not None:
            self._inner.put(program, context, config_digest, record)
