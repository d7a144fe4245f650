"""Configuration evaluation: compile-check, run, verify, time, budget.

The evaluator is the CRAFT back end every search strategy talks to.
For each candidate configuration it:

1. checks compilability — a configuration that splits a Typeforge
   cluster is rejected with :class:`~repro.core.results.EvaluationStatus`
   ``COMPILE_ERROR`` (it still costs an evaluation and simulated build
   time, reproducing the waste the paper attributes to
   variable-granularity searches);
2. executes the program and verifies its output against the all-double
   baseline with the program's quality metric;
3. "times" it with the paper's methodology — ten measured runs, best
   and worst discarded — on the modeled clock, with small deterministic
   per-run jitter standing in for measurement noise;
4. charges compile + run time against the simulated 24-hour analysis
   budget and raises :class:`SearchBudgetExceeded` when it runs out.

Identical configurations are cached (cache hits cost nothing and do not
increment the evaluated-configurations counter EV).

Two further layers sit on top of the serial contract:

* **Batching** — :meth:`ConfigurationEvaluator.prefetch` fans the raw
  executions of not-yet-seen configurations out to a pluggable
  :class:`~repro.core.batch.BatchExecutor`; the bookkeeping (trial
  index, budget, quality check) is then replayed serially, so
  :meth:`evaluate_many` produces a trial log bit-identical to calling
  :meth:`evaluate` in a loop.
* **Persistence** — with an
  :class:`~repro.runtime.cache.EvaluationCache` attached, every fresh
  evaluation is written to disk and replayed on later runs.  A replay
  charges the *same* simulated cost and EV increment as the original
  evaluation (tables stay identical); only real host time is saved.
"""

from __future__ import annotations

import enum
import hashlib
import math
import time
from typing import Iterable, Sequence

import numpy as np

from repro.core.batch import RUNTIME_ERRORS, BatchExecutor, ExecutionFailure
from repro.core.program import ExecutionResult, Program
from repro.core.results import EvaluationStatus, TrialRecord
from repro.core.telemetry import EvalStats, TraceWriter
from repro.core.types import PrecisionConfig
from repro.core.variables import Granularity, SearchSpace
from repro.errors import MixPBenchError, SearchBudgetExceeded
from repro.runtime.cache import EvaluationCache, context_fingerprint
from repro.verify.quality import QualitySpec
from repro.runtime.machine import DEFAULT_MACHINE, MachineModel

__all__ = ["ConfigurationEvaluator", "TimingMode", "measured_seconds"]

_DEFAULT_TIME_LIMIT = 24 * 3600.0  # the paper's per-search limit


class TimingMode(enum.Enum):
    """Where a configuration's runtime comes from.

    ``MODELED`` (default) uses the roofline machine model — fully
    deterministic and faithful to the C mechanisms (see DESIGN.md).
    ``WALL_CLOCK`` times the host-side Python execution with
    ``perf_counter`` — the paper's literal methodology, but measuring
    interpreter-and-NumPy performance, which does *not* reflect the
    compiled programs the paper ran; it is provided for experimenting
    with the harness itself.
    """

    MODELED = "modeled"
    WALL_CLOCK = "wall_clock"


def measured_seconds(modeled: float, digest: str, runs: int, noise: float = 0.01) -> float:
    """Apply the paper's timing methodology to a modeled runtime.

    Generates ``runs`` jittered measurements (deterministic per
    configuration digest), drops the best and the worst, and averages
    the rest.  With fewer than three runs the modeled time is returned
    unchanged.
    """
    if runs < 3 or noise <= 0:
        return modeled
    seed = int.from_bytes(hashlib.sha256(digest.encode()).digest()[:8], "big")
    rng = np.random.default_rng(seed)
    samples = modeled * (1.0 + noise * rng.standard_normal(runs))
    samples.sort()
    return float(np.mean(samples[1:-1]))


class ConfigurationEvaluator:
    """Evaluates precision configurations for one program.

    Parameters
    ----------
    program:
        Anything satisfying :class:`repro.core.program.Program`.
    quality:
        Quality spec to verify against (defaults to the program's own).
    machine:
        Machine model used to convert operation profiles into time.
    time_limit_seconds:
        Simulated analysis budget (paper: 24 hours).
    max_evaluations:
        Optional hard ceiling on EV, independent of the clock.
    measurement_noise:
        Relative sigma of the per-run timing jitter.
    executor:
        Optional :class:`~repro.core.batch.BatchExecutor` used by
        :meth:`prefetch` / :meth:`evaluate_many` to run executions in
        parallel.  ``None`` keeps everything in-line.
    cache:
        Optional :class:`~repro.runtime.cache.EvaluationCache`;
        fresh evaluations are persisted and replayed across runs.
    stats:
        Optional :class:`~repro.core.telemetry.EvalStats` to update
        (shared when several evaluators feed one report); a private
        block is created when omitted.
    trace:
        Optional :class:`~repro.core.telemetry.TraceWriter` receiving
        one JSON-lines event per evaluation and batch.
    space_override:
        Optional reduced :class:`~repro.core.variables.SearchSpace`
        (e.g. from :func:`repro.typeforge.prune.prune_report`) that
        :meth:`space` serves to search strategies instead of the
        program's full space.  Compile checks still use the *full*
        cluster partition, and the persistent-cache context is
        unchanged: a configuration evaluates identically with or
        without the override, the override only restricts which
        configurations strategies enumerate.
    prune_info:
        Free-form provenance for the override (frozen/merged counts),
        surfaced in search outcome metadata and reports.
    location_order:
        Optional :class:`~repro.shadow.order.ShadowOrder` (or anything
        with its ``arrange(locations, space)`` shape).  Search
        strategies consult it through
        ``SearchStrategy.ordered_locations`` to enumerate locations
        most-sensitive-first; ``None`` (the default) keeps every
        strategy byte-identical to the unguided behaviour.  Like the
        space override, it never changes what one evaluation returns.
    shadow_info:
        Free-form provenance for the order (shadow-run summary),
        surfaced in search outcome metadata and reports alongside
        ``prune_info``.
    screen:
        Optional :class:`~repro.typeforge.errorbound.CertifiedBound`.
        When attached, :meth:`evaluate` first asks the certificate
        whether the configuration provably violates the quality
        threshold; certified rejects are recorded as
        :attr:`~repro.core.results.EvaluationStatus.SCREENED` trials
        that cost nothing — no execution, no simulated budget, no EV
        increment.  Screening may only *skip*, never accept: every
        configuration the certificate cannot reject evaluates exactly
        as it would have without one, so behaviour with ``screen=None``
        is byte-identical and the verified error of the final
        configuration is unchanged.
    screen_info:
        Free-form provenance for the certificate (calibration anchor,
        safety factor), surfaced in search outcome metadata and
        reports; the live ``screened`` skip count is appended by
        :meth:`SearchStrategy.run <repro.search.base.SearchStrategy.run>`.
    """

    def __init__(
        self,
        program: Program,
        quality: QualitySpec | None = None,
        machine: MachineModel = DEFAULT_MACHINE,
        time_limit_seconds: float = _DEFAULT_TIME_LIMIT,
        max_evaluations: int | None = None,
        measurement_noise: float = 0.01,
        timing: TimingMode = TimingMode.MODELED,
        executor: BatchExecutor | None = None,
        cache: EvaluationCache | None = None,
        stats: EvalStats | None = None,
        trace: TraceWriter | None = None,
        space_override: SearchSpace | None = None,
        prune_info: dict | None = None,
        location_order=None,
        shadow_info: dict | None = None,
        screen=None,
        screen_info: dict | None = None,
    ) -> None:
        self.program = program
        self.quality = quality if quality is not None else program.quality
        self.machine = machine
        self.time_limit_seconds = time_limit_seconds
        self.max_evaluations = max_evaluations
        self.measurement_noise = measurement_noise
        self.timing = timing
        self.executor = executor
        self.cache = cache
        self.trace = trace
        self.stats = stats if stats is not None else EvalStats()
        if executor is not None:
            self.stats.executor = executor.name
            self.stats.workers = executor.workers
        #: last-seen executor incident counters, so shared executors
        #: contribute only the *delta* produced under this evaluator
        self._fault_seen = executor.fault_counters() if executor is not None else {}

        self._cluster_space = program.search_space(Granularity.CLUSTER)
        self.space_override = space_override
        self.prune_info = prune_info
        self.location_order = location_order
        self.shadow_info = shadow_info
        self.screen = screen
        self.screen_info = screen_info
        self._cache: dict[PrecisionConfig, TrialRecord] = {}
        self._staged: dict[PrecisionConfig, ExecutionResult | ExecutionFailure] = {}
        self._trials: list[TrialRecord] = []
        self.evaluations = 0
        self.analysis_seconds = 0.0
        # Everything that changes what an evaluation would return or
        # cost is folded into the persistent-cache context; a mismatch
        # on any field gives a cold cache instead of a wrong replay.
        self._cache_context = context_fingerprint(
            program=program.name,
            program_seed=getattr(program, "seed", None),
            metric=self.quality.metric,
            threshold=self.quality.threshold,
            machine=machine.name,
            runs_per_config=program.runs_per_config,
            noise=self._effective_noise(),
            timing=self.timing.value,
            compile_seconds=program.compile_seconds,
            nominal_seconds=program.nominal_seconds,
        )

        # Reference execution: the original all-double program.  Its
        # output is the verification reference; its measured time is
        # the speedup denominator.  FloatSmith profiles the original
        # before searching, so we charge its cost to the clock but not
        # to the EV counter.  Under the modeled clock, programs with a
        # ``baseline()`` serve it from their per-process memo (shared,
        # read-only output); a wall-clock baseline must be measured.
        baseline_config = PrecisionConfig()
        if self.timing is TimingMode.MODELED and hasattr(program, "baseline"):
            baseline = program.baseline()
            baseline_seconds = baseline.modeled_seconds
            self._baseline_output = baseline.output
        else:
            baseline, baseline_seconds = self._timed_execute(baseline_config)
            self._baseline_output = np.asarray(baseline.output, dtype=np.float64).copy()
        if baseline.has_nonfinite_output:
            raise MixPBenchError(
                f"{program.name}: baseline (double) output is not finite; "
                "the reference program itself is broken"
            )
        self._time_scale = (
            program.nominal_seconds / baseline_seconds
            if baseline_seconds > 0
            else 1.0
        )
        self._baseline_measured = measured_seconds(
            baseline_seconds, "baseline:" + baseline_config.digest(),
            program.runs_per_config, self._effective_noise(),
        )
        self.analysis_seconds += self._run_cost(baseline_seconds)

    def _effective_noise(self) -> float:
        """Wall-clock timings carry their own physical jitter; only the
        modeled clock needs synthetic measurement noise."""
        return self.measurement_noise if self.timing is TimingMode.MODELED else 0.0

    def _timed_execute(self, config: PrecisionConfig):
        """Execute and return (result, seconds-under-the-active-mode)."""
        started = time.perf_counter()
        execution = self.program.execute(config)
        if self.timing is TimingMode.WALL_CLOCK:
            return execution, time.perf_counter() - started
        return execution, execution.modeled_seconds

    # -- public API -------------------------------------------------------
    def space(self, granularity: Granularity = Granularity.CLUSTER) -> SearchSpace:
        """The search space strategies enumerate, at the requested
        granularity (the pruned space when an override is active)."""
        if self.space_override is not None:
            return self.space_override.at(granularity)
        return self._cluster_space.at(granularity)

    @property
    def baseline_output(self) -> np.ndarray:
        return self._baseline_output

    @property
    def trials(self) -> tuple[TrialRecord, ...]:
        return tuple(self._trials)

    @property
    def remaining_seconds(self) -> float:
        return max(0.0, self.time_limit_seconds - self.analysis_seconds)

    def best_passing(self) -> TrialRecord | None:
        """The fastest configuration seen so far that passed."""
        passing = [t for t in self._trials if t.passed]
        if not passing:
            return None
        return max(passing, key=lambda t: t.speedup)

    def evaluate(self, config: PrecisionConfig) -> TrialRecord:
        """Evaluate one configuration, consuming budget.

        Raises
        ------
        SearchBudgetExceeded
            When the simulated clock or the evaluation ceiling is
            exhausted *before* this configuration could be evaluated.
        """
        cached = self._cache.get(config)
        if cached is not None:
            self.stats.memory_hits += 1
            if self.trace is not None:
                self.trace.emit(
                    "cache_hit", level="memory", config=config.digest(),
                    index=cached.index,
                )
            hit = TrialRecord(
                index=cached.index,
                config=config,
                status=cached.status,
                error_value=cached.error_value,
                speedup=cached.speedup,
                modeled_seconds=cached.modeled_seconds,
                analysis_seconds=0.0,
                from_cache=True,
            )
            return hit

        if self.screen is not None and self.screen.rejects(
            config, self.quality.threshold
        ):
            # Certified over-threshold: skip without executing.  The
            # skip is free — no EV increment, no simulated budget — and
            # the record carries the certificate's best error estimate
            # so strategies that rank failing trials (GA fitness) see a
            # value on the same scale as a measured one.
            self.stats.screened += 1
            record = TrialRecord(
                index=self.evaluations,
                config=config,
                status=EvaluationStatus.SCREENED,
                error_value=self.screen.predict(config),
            )
            self._cache[config] = record
            self._trials.append(record)
            if self.trace is not None:
                self.trace.emit(
                    "screened", config=config.digest(),
                    lower_bound=self.screen.lower(config),
                    threshold=self.quality.threshold,
                )
            return record

        if self.analysis_seconds >= self.time_limit_seconds:
            raise SearchBudgetExceeded(
                f"{self.program.name}: simulated analysis budget "
                f"({self.time_limit_seconds:.0f}s) exhausted after "
                f"{self.evaluations} evaluations"
            )
        if self.max_evaluations is not None and self.evaluations >= self.max_evaluations:
            raise SearchBudgetExceeded(
                f"{self.program.name}: evaluation ceiling "
                f"({self.max_evaluations}) reached"
            )

        record = self._evaluate_fresh(config)
        self._cache[config] = record
        self._trials.append(record)
        return record

    def prefetch(self, configs: Iterable[PrecisionConfig]) -> int:
        """Speculatively execute configurations on the batch executor.

        Only configurations that would actually execute are shipped:
        repeats, persistent-cache hits, non-compilable candidates and
        already-staged configurations are filtered out.  Results are
        staged so a later :meth:`evaluate` consumes them instead of
        executing — budget accounting, trial order and indices are
        untouched.  A no-op without an executor, and under wall-clock
        timing (concurrent wall timings would not be comparable).

        Returns the number of executions fanned out.
        """
        if self.executor is None or self.timing is not TimingMode.MODELED:
            return 0
        pending: list[PrecisionConfig] = []
        seen: set[PrecisionConfig] = set()
        for config in configs:
            if config in seen or config in self._cache or config in self._staged:
                continue
            seen.add(config)
            if self.screen is not None and self.screen.rejects(
                config, self.quality.threshold
            ):
                continue  # evaluate() will screen it; nothing to stage
            if not self._cluster_space.is_compilable(config):
                continue  # rejected before running; nothing to stage
            if self.cache is not None and self.cache.contains(
                self.program.name, self._cache_context, config.digest()
            ):
                continue  # will replay from the persistent cache
            pending.append(config)
        self.stats.batches += 1
        self.stats.batched_configs += len(seen)
        if not pending:
            return 0
        started = time.perf_counter()
        results = self.executor.run(self.program, pending)
        self.stats.wall_seconds += time.perf_counter() - started
        self._sync_fault_stats()
        self.stats.prefetched_executions += len(pending)
        self._staged.update(zip(pending, results))
        if self.trace is not None:
            self.trace.emit(
                "batch", requested=len(seen), executed=len(pending),
                executor=self.executor.name, workers=self.executor.workers,
            )
        return len(pending)

    def evaluate_many(
        self, configs: Sequence[PrecisionConfig]
    ) -> list[TrialRecord]:
        """Evaluate a batch: parallel execution, serial bookkeeping.

        Equivalent to ``[self.evaluate(c) for c in configs]`` in every
        observable way (trial log, EV, simulated clock, budget
        exhaustion point); the raw executions of cache misses are
        computed on the executor first.
        """
        configs = list(configs)
        self.prefetch(configs)
        return [self.evaluate(config) for config in configs]

    # -- internals -----------------------------------------------------------
    def _run_cost(self, modeled_seconds: float) -> float:
        """Simulated wall-clock cost of building + timing one config."""
        return (
            self.program.compile_seconds
            + self.program.runs_per_config * modeled_seconds * self._time_scale
        )

    def _evaluate_fresh(self, config: PrecisionConfig) -> TrialRecord:
        self.evaluations += 1
        self.stats.evaluations += 1
        index = self.evaluations

        replayed = self._replay_persistent(config, index)
        if replayed is not None:
            return replayed

        record = self._run_fresh(config, index)
        self.stats.fresh_evaluations += 1
        if record.status is EvaluationStatus.COMPILE_ERROR:
            self.stats.compile_errors += 1
        if self.cache is not None:
            self.cache.put(
                self.program.name, self._cache_context, config.digest(),
                record.to_json_dict(),
            )
        if self.trace is not None:
            self.trace.emit(
                "evaluate", source="fresh", index=index,
                config=config.digest(), status=record.status.value,
                analysis_seconds=record.analysis_seconds,
            )
        return record

    def _replay_persistent(
        self, config: PrecisionConfig, index: int
    ) -> TrialRecord | None:
        """Replay a prior run's record: same simulated cost, same EV
        increment, no program execution."""
        if self.cache is None:
            return None
        payload = self.cache.get(
            self.program.name, self._cache_context, config.digest()
        )
        if payload is None:
            return None
        stored = TrialRecord.from_json_dict(payload)
        record = TrialRecord(
            index=index, config=config, status=stored.status,
            error_value=stored.error_value, speedup=stored.speedup,
            modeled_seconds=stored.modeled_seconds,
            analysis_seconds=stored.analysis_seconds,
        )
        self.analysis_seconds += record.analysis_seconds
        self.stats.persistent_hits += 1
        if record.status is EvaluationStatus.COMPILE_ERROR:
            self.stats.compile_errors += 1
        if self.trace is not None:
            self.trace.emit(
                "evaluate", source="persistent", index=index,
                config=config.digest(), status=record.status.value,
                analysis_seconds=record.analysis_seconds,
            )
        return record

    def _sync_fault_stats(self) -> None:
        """Fold the executor's incident counters into this evaluator's
        stats (delta-based: executors may be shared across evaluators)."""
        if self.executor is None:
            return
        current = self.executor.fault_counters()
        for name, value in current.items():
            delta = value - self._fault_seen.get(name, 0)
            if delta:
                setattr(self.stats, name, getattr(self.stats, name) + delta)
        self._fault_seen = current

    def _execute_or_fail(
        self, config: PrecisionConfig
    ) -> tuple[ExecutionResult, float] | None:
        """Staged (prefetched) or in-line execution; ``None`` on a
        runtime error of the configuration."""
        staged = self._staged.pop(config, None)
        if staged is not None:
            if isinstance(staged, ExecutionFailure):
                return None
            return staged, staged.modeled_seconds
        executor = self.executor
        if (
            executor is not None
            and executor.policy.active
            and self.timing is TimingMode.MODELED
        ):
            # route even single executions through the executor, so its
            # timeout/retry envelope protects non-batched strategies too
            started = time.perf_counter()
            try:
                result = executor.run(self.program, [config])[0]
            finally:
                self.stats.wall_seconds += time.perf_counter() - started
                self._sync_fault_stats()
            if isinstance(result, ExecutionFailure):
                return None
            return result, result.modeled_seconds
        started = time.perf_counter()
        try:
            return self._timed_execute(config)
        except RUNTIME_ERRORS:
            return None
        finally:
            self.stats.wall_seconds += time.perf_counter() - started

    def _run_fresh(self, config: PrecisionConfig, index: int) -> TrialRecord:
        if not self._cluster_space.is_compilable(config):
            cost = self.program.compile_seconds  # build fails, nothing runs
            self.analysis_seconds += cost
            return TrialRecord(
                index=index, config=config,
                status=EvaluationStatus.COMPILE_ERROR,
                analysis_seconds=cost,
            )

        executed = self._execute_or_fail(config)
        if executed is None:
            cost = self._run_cost(0.0)
            self.analysis_seconds += cost
            return TrialRecord(
                index=index, config=config,
                status=EvaluationStatus.RUNTIME_ERROR,
                analysis_seconds=cost,
            )
        execution, seconds = executed

        cost = self._run_cost(seconds)
        self.analysis_seconds += cost

        result = self.quality.check(self._baseline_output, execution.output)
        measured = measured_seconds(
            seconds, config.digest(),
            self.program.runs_per_config, self._effective_noise(),
        )
        speedup = self._baseline_measured / measured if measured > 0 else math.nan
        status = (
            EvaluationStatus.PASSED if result.passed
            else EvaluationStatus.FAILED_QUALITY
        )
        return TrialRecord(
            index=index, config=config, status=status,
            error_value=result.value, speedup=speedup,
            modeled_seconds=execution.modeled_seconds,
            analysis_seconds=cost,
        )
