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
from repro.core.batch import make_executor
from repro.core.checkpoint import (
    DEFAULT_RUNS_DIR, JournalTrialStore, RunJournal, job_key,
)
from repro.core.evaluator import ConfigurationEvaluator
from repro.core.results import SearchOutcome
from repro.runtime.cache import EvaluationCache
from repro.search.registry import canonical_name, make_strategy, strategy_kwargs
from repro.verify.quality import QualitySpec

__all__ = ["SearchJob", "JobResult", "run_grid", "run_shard", "grid_jobs"]

_DEFAULT_TIME_LIMIT = 24 * 3600.0


@dataclass(frozen=True)
class SearchJob:
    """One (program, algorithm, threshold) analysis to schedule.

    ``executor``/``executor_workers`` select the *intra-job* batch
    backend (how one search evaluates its configuration batches);
    the ``workers`` argument of :func:`run_grid` remains the
    *inter-job* parallelism.  ``cache_dir`` attaches a persistent
    evaluation cache shared by every job that names the same path.
    ``trial_timeout``/``max_retries`` configure the executor's
    fault policy (per-trial wall-clock budget, transient-failure
    retries); see :class:`repro.core.batch.FaultPolicy`.
    """

    program: str
    algorithm: str
    threshold: float
    metric: str | None = None
    time_limit_seconds: float = _DEFAULT_TIME_LIMIT
    max_evaluations: int | None = None
    executor: str = "serial"
    executor_workers: int | None = None
    cache_dir: str | None = None
    trial_timeout: float | None = None
    max_retries: int = 0
    #: restrict the search space with the static dataflow pruner
    prune: bool = False
    #: order search locations by shadow-run sensitivity
    shadow: bool = False
    #: store-rounding mode for emulated formats ("nearest" or
    #: "stochastic"); consumed by the bit-width bisection strategy,
    #: ignored by strategies that never emit custom formats
    rounding: str = "nearest"
    #: skip configurations whose statically certified error bound
    #: violates the threshold (sound: skips only, never accepts)
    screen: bool = False

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
    time_limit_seconds: float = _DEFAULT_TIME_LIMIT,
    max_evaluations: int | None = None,
    executor: str = "serial",
    executor_workers: int | None = None,
    cache_dir: str | Path | None = None,
    trial_timeout: float | None = None,
    max_retries: int = 0,
    prune: bool = False,
    shadow: bool = False,
    rounding: str = "nearest",
    screen: bool = False,
) -> list[SearchJob]:
    """The full cross product the paper's evaluation runs."""
    return [
        SearchJob(
            program=program,
            algorithm=algorithm,
            threshold=threshold,
            time_limit_seconds=time_limit_seconds,
            max_evaluations=max_evaluations,
            executor=executor,
            executor_workers=executor_workers,
            cache_dir=str(cache_dir) if cache_dir else None,
            trial_timeout=trial_timeout,
            max_retries=max_retries,
            prune=prune,
            shadow=shadow,
            rounding=rounding,
            screen=screen,
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
        batch_executor = make_executor(
            job.executor, job.executor_workers,
            trial_timeout=job.trial_timeout, max_retries=job.max_retries,
        )
        if cache is None:
            cache = EvaluationCache(job.cache_dir) if job.cache_dir else None
        if journal is not None and key is not None:
            # fresh trials are journaled as they complete; journaled
            # ones replay with identical cost/EV (see repro.core.checkpoint)
            cache = JournalTrialStore(journal, key, replay, inner=cache)
        space_override = None
        prune_info = None
        if job.prune:
            from repro.typeforge.prune import prune_report

            report = bench.report()
            pruned = prune_report(report)
            space_override = pruned.space
            prune_info = pruned.stats(report.search_space())
        location_order = None
        shadow_info = None
        if job.shadow:
            # The shadow report is a pure function of the benchmark's
            # inputs fingerprint, computed once per worker process and
            # shared by every later shard (and by --screen below), so
            # it is identical across serial/thread/process execution.
            from repro.shadow import shadow_guidance

            location_order, shadow_info = shadow_guidance(bench)
        certificate = None
        screen_info = None
        if job.screen:
            # Certification calibrates against that same shared
            # shadow report; it adds no shadow run of its own.
            from repro.typeforge.errorbound import certify_benchmark

            _, certificate = certify_benchmark(bench)
            screen_info = certificate.info()
        try:
            evaluator = ConfigurationEvaluator(
                bench,
                quality=quality,
                time_limit_seconds=job.time_limit_seconds,
                max_evaluations=job.max_evaluations,
                executor=batch_executor,
                cache=cache,
                space_override=space_override,
                prune_info=prune_info,
                location_order=location_order,
                shadow_info=shadow_info,
                screen=certificate,
                screen_info=screen_info,
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
