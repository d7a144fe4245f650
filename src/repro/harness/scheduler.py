"""Parallel scheduling of analysis jobs.

"We use the support of HPC-MixPBench's harness to schedule each
analysis in parallel on a cluster ...  The harness offloads the search
for each combination of an application/algorithm to a separate node
but executes all the final binaries on the same node for consistency"
(paper Section IV).  A SLURM cluster is unavailable here, so the
scheduler fans the (program × algorithm × threshold) grid out over a
local worker pool instead; the *final* verification runs serially
through the Harness on "the same node", preserving the paper's
consistency discipline.

Durability (see docs/fault-tolerance.md): pass ``run_id`` to journal
the run under ``<runs_dir>/<run-id>/journal.jsonl`` — every completed
trial and every finished job is fsync'd to disk as it happens — and
``resume=<run-id>`` to continue a crashed run.  Finished jobs are
restored from the journal without re-running; in-flight jobs replay
their journaled trials through the evaluator (same simulated cost,
same EV) and continue from the cut point, so a resumed grid's results
are bit-identical to an uninterrupted run's.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.benchmarks.base import get_benchmark
from repro.core.checkpoint import (
    DEFAULT_RUNS_DIR, JournalTrialStore, RunJournal, job_key,
)
from repro.core.results import SearchOutcome
from repro.harness.options import SearchOptions, build_evaluator
from repro.runtime.cache import EvaluationCache
from repro.search.registry import canonical_name, make_strategy, strategy_kwargs
from repro.verify.quality import QualitySpec

__all__ = ["SearchJob", "JobResult", "run_grid", "run_shard", "grid_jobs"]


@dataclass(frozen=True)
class SearchJob(SearchOptions):
    """One (program, algorithm, threshold) analysis to schedule, with
    its :class:`~repro.harness.options.SearchOptions`.

    ``executor``/``executor_workers`` select the *intra-job* batch
    backend (how one search evaluates its configuration batches);
    the ``workers`` argument of :func:`run_grid` remains the
    *inter-job* parallelism.  ``cache_dir`` attaches a persistent
    evaluation cache shared by every job that names the same path.
    """

    program: str
    algorithm: str
    threshold: float
    metric: str | None = None
    cache_dir: str | None = None

    def label(self) -> str:
        return f"{self.program}/{canonical_name(self.algorithm)}@{self.threshold:g}"


@dataclass
class JobResult:
    """Outcome (or failure) of one scheduled job.

    A failed job carries both the full traceback (``error``) and the
    exception class name (``error_kind``) so schedulers and tables can
    surface *what* went wrong without parsing tracebacks.  ``resumed``
    marks results restored from a run journal rather than recomputed;
    it is session state, not part of the interchange payload.
    """

    job: SearchJob
    outcome: SearchOutcome | None = None
    error: str | None = None
    error_kind: str | None = None
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.outcome is not None

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome.to_json_dict() if self.outcome else None,
            "error": self.error,
            "error_kind": self.error_kind,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping, job: SearchJob) -> "JobResult":
        outcome = payload.get("outcome")
        return cls(
            job=job,
            outcome=SearchOutcome.from_json_dict(outcome) if outcome else None,
            error=payload.get("error"),
            error_kind=payload.get("error_kind"),
        )


def grid_jobs(
    programs: Sequence[str],
    algorithms: Sequence[str],
    thresholds: Sequence[float],
    options: SearchOptions = SearchOptions(),
    cache_dir: str | Path | None = None,
) -> list[SearchJob]:
    """The full cross product the paper's evaluation runs."""
    values = options.option_values()
    return [
        SearchJob(
            program=program, algorithm=algorithm, threshold=threshold,
            cache_dir=str(cache_dir) if cache_dir else None, **values,
        )
        for program in programs
        for algorithm in algorithms
        for threshold in thresholds
    ]


def run_shard(
    job: SearchJob,
    journal: RunJournal | None = None,
    key: str | None = None,
    replay: Mapping[str, dict] | None = None,
    cache: EvaluationCache | None = None,
) -> JobResult:
    """Run one (program, algorithm, threshold) shard to completion.

    This is the unit both :func:`run_grid` and the
    :class:`repro.service.scheduler.Scheduler` dispatch to workers.
    With a ``journal``/``key`` the shard's fresh trials are fsync'd as
    they complete and ``replay`` trials are replayed through the
    evaluator's cache path (bit-identical resume).  ``cache`` injects a
    shared :class:`~repro.runtime.cache.EvaluationCache` *instance*
    (the service's cross-tenant dedupe store); without it, one is
    opened from ``job.cache_dir`` when set.
    """
    try:
        bench = get_benchmark(job.program)
        quality = QualitySpec(job.metric or bench.metric, job.threshold)
        batch_executor = job.make_executor()
        if cache is None:
            cache = EvaluationCache(job.cache_dir) if job.cache_dir else None
        if journal is not None and key is not None:
            # fresh trials are journaled as they complete; journaled
            # ones replay with identical cost/EV (see repro.core.checkpoint)
            cache = JournalTrialStore(journal, key, replay, inner=cache)
        try:
            evaluator = build_evaluator(
                bench, quality, job, executor=batch_executor, cache=cache,
            )
            strategy = make_strategy(
                job.algorithm, **strategy_kwargs(job.algorithm, rounding=job.rounding)
            )
            result = JobResult(job=job, outcome=strategy.run(evaluator))
        finally:
            batch_executor.close()
    except Exception as exc:  # noqa: BLE001 — a failed job must not sink the grid
        result = JobResult(
            job=job, error=traceback.format_exc(), error_kind=type(exc).__name__,
        )
    if journal is not None and key is not None:
        journal.append_job_done(key, result.to_json_dict())
    return result


def run_grid(
    jobs: Iterable[SearchJob],
    workers: int = 1,
    run_id: str | None = None,
    resume: str | None = None,
    runs_dir: str | Path | None = None,
) -> list[JobResult]:
    """Run analysis jobs, optionally on a worker pool.

    Results are returned in submission order regardless of completion
    order, so downstream tables are deterministic.  A job that fails —
    even with an exception that escapes :func:`run_shard` itself — is
    reported as an error :class:`JobResult`; it never aborts the
    collection of the remaining jobs.

    With ``run_id`` the run is journaled (crash-safe, fsync'd);
    ``resume`` names a previously journaled run to continue.  Passing
    both is allowed only when they agree.
    """
    jobs = list(jobs)
    if resume is not None:
        if run_id is not None and run_id != resume:
            raise ValueError(
                f"run_id {run_id!r} and resume {resume!r} name different runs"
            )
        run_id = resume
    journal: RunJournal | None = None
    if run_id is not None:
        journal = RunJournal(
            runs_dir if runs_dir is not None else DEFAULT_RUNS_DIR,
            run_id, jobs, resume=resume is not None,
        )
    try:
        state = journal.state if journal is not None else None
        results: list[JobResult | None] = [None] * len(jobs)
        pending: list[tuple[int, SearchJob, str]] = []
        for index, job in enumerate(jobs):
            key = job_key(index, job)
            payload = state.finished.get(key) if state is not None else None
            if payload is not None:
                restored = JobResult.from_json_dict(payload, job)
                restored.resumed = True
                results[index] = restored
            else:
                pending.append((index, job, key))

        def _execute(index: int, job: SearchJob, key: str) -> JobResult:
            replay = state.job_trials(key) if state is not None else None
            return run_shard(job, journal=journal, key=key, replay=replay)

        if workers <= 1:
            for index, job, key in pending:
                results[index] = _collect(job, _execute, index, job, key)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    (index, job, pool.submit(_execute, index, job, key))
                    for index, job, key in pending
                ]
                # collect via futures in submission order: one worker's
                # exception maps to *its* JobResult and nothing else
                for index, job, future in futures:
                    results[index] = _collect(job, future.result)
        return [result for result in results if result is not None]
    finally:
        if journal is not None:
            journal.close()


def _collect(job: SearchJob, invoke, *args) -> JobResult:
    """Invoke one job, mapping any escaped exception to an error result."""
    try:
        return invoke(*args)
    except Exception as exc:  # noqa: BLE001 — keep collecting the other jobs
        return JobResult(
            job=job, error=traceback.format_exc(), error_kind=type(exc).__name__,
        )
