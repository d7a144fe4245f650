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
``resume=<run-id>`` to continue a crashed run.  Every job, finished or
not, replays its journaled trials through the evaluator (same
simulated cost, same EV) and continues from the cut point, so a
resumed grid's results are bit-identical to an uninterrupted run's; a
finished job executes no trial afresh.
"""

from __future__ import annotations

import json
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.benchmarks.base import get_benchmark
from repro.core.checkpoint import (
    DEFAULT_RUNS_DIR, JournalTrialStore, RunJournal, job_key,
)
from repro.core.results import SearchOutcome
from repro.errors import MixPBenchError
from repro.harness.options import SearchOptions, build_evaluator
from repro.runtime.cache import EvaluationCache
from repro.search.registry import canonical_name, make_strategy, strategy_kwargs
from repro.verify.quality import QualitySpec

__all__ = [
    "SearchJob", "JobResult", "run_grid", "run_shard", "grid_jobs",
    "write_results",
]


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
        """``program/ALGO@threshold``; an unknown algorithm name is
        shown as given (the shard itself then fails cleanly)."""
        try:
            algorithm = canonical_name(self.algorithm)
        except MixPBenchError:
            algorithm = self.algorithm
        return f"{self.program}/{algorithm}@{self.threshold:g}"


@dataclass
class JobResult:
    """Outcome (or failure) of one scheduled job.

    A failed job carries both the full traceback (``error``) and the
    exception class name (``error_kind``) so schedulers and tables can
    surface *what* went wrong without parsing tracebacks.  ``resumed``
    marks a job its run journal already held as finished, so its
    trials were replayed rather than run; it is session state, not
    part of the interchange payload.
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


def write_results(path: str | Path, results: Iterable[JobResult]) -> None:
    """Save a grid's results as compact, key-sorted interchange JSON.

    The one writer of ``results.json``, for ``mixpbench grid --run-id``
    and the service alike, so both write the same bytes for the same
    results.  No ``indent``: CPython's C encoder does not indent, and an
    indented payload costs several times as long to encode (read it with
    ``python -m json.tool``).
    """
    Path(path).write_text(json.dumps(
        [result.to_json_dict() for result in results], sort_keys=True,
    ))


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
    cache: EvaluationCache | None = None,
) -> JobResult:
    """Run one (program, algorithm, threshold) shard to completion.

    This is the unit both :func:`run_grid` and the
    :class:`repro.service.scheduler.Scheduler` dispatch to workers.
    With a ``journal``/``key`` the shard's fresh trials are fsync'd as
    they complete, and the trials the journal already holds for ``key``
    (a crashed run's, a dead attempt's, or a finished run's) are
    replayed through the evaluator's cache path (bit-identical
    resume); a ``job_done`` marker is appended unless the journal
    already holds one for ``key``.  ``cache`` injects a
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
            cache = JournalTrialStore(
                journal, key, journal.state.job_trials(key), inner=cache,
            )
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
    if journal is not None and key is not None and key not in journal.state.finished:
        journal.append_job_done(key)
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
        # resumed: finished when the journal was opened, so replayed
        finished = set(journal.state.finished) if journal is not None else set()
        keys = [job_key(index, job) for index, job in enumerate(jobs)]
        if workers <= 1:
            results = [
                _collect(job, run_shard, job, journal=journal, key=key)
                for job, key in zip(jobs, keys)
            ]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(run_shard, job, journal=journal, key=key)
                    for job, key in zip(jobs, keys)
                ]
                # collect via futures in submission order: one worker's
                # exception maps to *its* JobResult and nothing else
                results = [
                    _collect(job, future.result)
                    for job, future in zip(jobs, futures)
                ]
        for key, result in zip(keys, results):
            result.resumed = key in finished
        return results
    finally:
        if journal is not None:
            journal.close()


def _collect(job: SearchJob, invoke, *args, **kwargs) -> JobResult:
    """Invoke one job, mapping any escaped exception to an error result."""
    try:
        return invoke(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 — keep collecting the other jobs
        return JobResult(
            job=job, error=traceback.format_exc(), error_kind=type(exc).__name__,
        )
