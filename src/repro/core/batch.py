"""Batch execution backends for the configuration evaluator.

The paper's harness "offloads the search analysis in parallel on a
cluster"; this module is the single-node analogue.  An executor takes
a list of precision configurations and produces their raw
:class:`~repro.core.program.ExecutionResult`\\ s — the *pure*,
side-effect-free part of an evaluation.  All bookkeeping (trial
indices, the simulated analysis clock, the 24-hour budget, quality
verification) stays in the evaluator and is replayed serially, so a
parallel run produces a trial log bit-identical to the serial one.

Three backends are provided:

``serial``
    In-line execution; the degenerate executor used for reference runs.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  NumPy releases
    the GIL inside large kernels, so threads already overlap real work.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` fed *picklable
    work items* — ``(benchmark name, machine model, config JSON)``
    triples — so nothing unpicklable crosses the process boundary.
    Workers rebuild the benchmark from the suite registry (once per
    process) and regenerate its inputs deterministically from the
    benchmark seed.  Programs that are not registry benchmarks
    (e.g. ad-hoc :class:`~repro.core.program.Program` objects) fall
    back to in-process threads transparently.

Executions are deterministic functions of the configuration, so *where*
they run never changes *what* they return.

Fault tolerance (see docs/fault-tolerance.md) is opt-in through a
:class:`FaultPolicy`:

* **Per-trial wall-clock timeouts.**  Every backend applies a post-hoc
  elapsed-time check (an execution that took longer than the timeout
  is reported as an ``ExecutionFailure("Timeout")`` even though it
  finished), which keeps the accounting identical across backends.
  The process backend additionally *preempts* true hangs: a worker
  that does not answer within the timeout is killed, the pool is
  respawned, and the work items that died with it are re-dispatched.
  The thread backend cannot kill a hung thread; it abandons the wait,
  respawns the pool to restore capacity, and lets the stuck thread
  finish in the background.
* **Bounded retry with exponential backoff.**  Exceptions that are
  *not* runtime errors of the configuration (those stay
  ``ExecutionFailure``\\ s, never retried) are treated as transient
  worker failures and retried up to ``max_retries`` times with
  deterministic jittered backoff.
* **Process-pool recovery.**  A worker that dies outright (segfault,
  ``os._exit``) breaks the whole :class:`ProcessPoolExecutor`; the
  executor respawns the pool, re-dispatches the lost work items, and
  switches to one-at-a-time isolation dispatch so the poison item
  charges only its own retry budget.

All incidents are counted (``timeouts`` / ``retries`` /
``worker_restarts`` / ``redispatched``) and surfaced through
:class:`~repro.core.telemetry.EvalStats`.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.program import ExecutionResult, Program
from repro.core.types import PrecisionConfig

__all__ = [
    "ExecutionFailure", "FaultPolicy", "BatchExecutor", "SerialExecutor",
    "ThreadExecutor", "ProcessExecutor", "WorkStealingQueue", "make_executor",
    "chunked", "EXECUTOR_NAMES", "DEFAULT_BATCH_SIZE",
]

EXECUTOR_NAMES = ("serial", "thread", "process")

#: how many configurations the batching strategies hand to
#: ``evaluate_many`` at a time
DEFAULT_BATCH_SIZE = 32

#: exceptions that mean "the worker process is gone", not "the work is bad"
_POOL_FAILURES = (BrokenProcessPool, BrokenPipeError, EOFError)


def chunked(iterable, size: int):
    """Yield lists of up to ``size`` items, preserving order."""
    if size < 1:
        raise ValueError("chunk size must be positive")
    chunk: list = []
    for item in iterable:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk

#: exception types the evaluator treats as a runtime error of the
#: configuration (not of the harness)
RUNTIME_ERRORS = (FloatingPointError, ZeroDivisionError, ValueError, OverflowError)


class WorkStealingQueue:
    """Multi-lane FIFO with work stealing, for sharded schedulers.

    Each *lane* (one submitted grid job, in the service) holds its
    shards in FIFO order.  A worker :meth:`pop`\\ s from its preferred
    lane while that lane has work — shard locality keeps one job's
    warm benchmark instances on one worker — and *steals* from the
    longest other lane when its own runs dry, so a wide job's backlog
    is drained by every idle worker instead of serialising behind one.
    Ties are broken by lane name so scheduling is deterministic under
    a single worker.

    ``close()`` wakes every blocked ``pop`` permanently; a pop on a
    closed, empty queue returns ``None``.  :meth:`drop_lane` removes a
    lane wholesale (job cancellation) and returns the unstarted items.
    """

    def __init__(self) -> None:
        self._lanes: dict[str, deque] = {}
        self._condition = threading.Condition()
        self._closed = False

    def push(self, lane: str, item) -> None:
        with self._condition:
            if self._closed:
                raise RuntimeError("queue is closed")
            self._lanes.setdefault(lane, deque()).append(item)
            self._condition.notify()

    def _select_lane(self, preferred: str | None) -> str | None:
        if preferred is not None and self._lanes.get(preferred):
            return preferred
        candidates = [(lane, q) for lane, q in self._lanes.items() if q]
        if not candidates:
            return None
        # steal from the deepest backlog; lane-name tie-break for
        # deterministic single-worker schedules
        return max(candidates, key=lambda pair: (len(pair[1]), pair[0]))[0]

    def pop(
        self, preferred: str | None = None, timeout: float | None = None
    ) -> tuple[str, Any] | None:
        """Next ``(lane, item)``; ``None`` on timeout or closed-and-empty."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while True:
                lane = self._select_lane(preferred)
                if lane is not None:
                    queue = self._lanes[lane]
                    item = queue.popleft()
                    if not queue:
                        del self._lanes[lane]
                    return lane, item
                if self._closed:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._condition.wait(remaining)

    def drop_lane(self, lane: str) -> list:
        """Remove one lane; returns its not-yet-popped items."""
        with self._condition:
            queue = self._lanes.pop(lane, None)
            return list(queue) if queue else []

    def close(self) -> None:
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    def __len__(self) -> int:
        with self._condition:
            return sum(len(q) for q in self._lanes.values())


class ExecutionFailure:
    """A configuration whose execution raised a runtime error.

    Carries the exception type name across process boundaries; the
    evaluator converts it back into a ``RUNTIME_ERROR`` trial.  Fault
    handling reuses it with synthetic kinds: ``"Timeout"`` for a trial
    that blew its wall-clock budget and ``"WorkerCrash"`` for one that
    repeatedly took its worker process down.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def __repr__(self) -> str:
        return f"ExecutionFailure({self.kind})"


@dataclass(frozen=True)
class FaultPolicy:
    """Retry/timeout envelope for one executor.

    ``trial_timeout`` is the per-trial wall-clock budget in real host
    seconds (``None`` disables it); ``max_retries`` bounds how often a
    *transient* failure — an exception outside ``RUNTIME_ERRORS``, or
    a worker death — is retried before the trial is reported as
    failed.  Backoff between retries grows exponentially from
    ``backoff_base`` up to ``backoff_cap`` with deterministic
    per-(trial, attempt) jitter, so a thundering herd of retries
    spreads out yet tests stay reproducible.
    """

    trial_timeout: float | None = None
    max_retries: int = 0
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    @property
    def active(self) -> bool:
        return self.trial_timeout is not None or self.max_retries > 0

    def backoff_seconds(self, token: str, attempt: int) -> float:
        """Deterministic jittered exponential backoff for one retry."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1)))
        digest = hashlib.sha256(f"{token}:{attempt}".encode()).digest()
        return base * (0.5 + 0.5 * digest[0] / 255.0)


#: the do-nothing default policy (no timeout, no retries)
NO_FAULTS = FaultPolicy()


def execute_guarded(program: Program, config: PrecisionConfig):
    """Execute in-process, mapping runtime errors to a failure marker."""
    try:
        return program.execute(config)
    except RUNTIME_ERRORS as exc:
        return ExecutionFailure(type(exc).__name__)


class BatchExecutor:
    """Base class: run a batch of configuration executions."""

    name = "serial"

    def __init__(self, workers: int = 1, policy: FaultPolicy | None = None) -> None:
        if workers < 1:
            raise ValueError(f"an executor needs at least one worker, got {workers!r}")
        self.workers = int(workers)
        self.policy = policy if policy is not None else NO_FAULTS
        #: fault-tolerance incident counters (see fault_counters)
        self.timeouts = 0
        self.retries = 0
        self.worker_restarts = 0
        self.redispatched = 0

    def run(
        self, program: Program, configs: Sequence[PrecisionConfig]
    ) -> list[ExecutionResult | ExecutionFailure]:
        """Execute ``configs``; results align with the input order."""
        if not self.policy.active:
            return [execute_guarded(program, config) for config in configs]
        results = [self._policy_execute(program, config) for config in configs]
        self._count_timeouts(results)
        return results

    def fault_counters(self) -> dict[str, int]:
        """Incident counters, merged into EvalStats by the evaluator."""
        return {
            "timeouts": self.timeouts,
            "retries": self.retries,
            "worker_restarts": self.worker_restarts,
            "redispatched": self.redispatched,
        }

    def _policy_execute(self, program: Program, config: PrecisionConfig):
        """One in-process execution under the fault policy.

        Runtime errors of the configuration fail immediately (they are
        deterministic properties of the config); any other exception is
        transient and retried with backoff.  An execution that outlives
        the trial timeout is reported as a ``Timeout`` failure — the
        in-process backends cannot preempt it, but the *accounting*
        matches the process backend's preemptive kill.
        """
        policy = self.policy
        attempt = 0
        while True:
            started = time.perf_counter()
            try:
                result = program.execute(config)
            except RUNTIME_ERRORS as exc:
                return ExecutionFailure(type(exc).__name__)
            except Exception as exc:  # noqa: BLE001 — transient worker failure
                if attempt >= policy.max_retries:
                    return ExecutionFailure(type(exc).__name__)
                attempt += 1
                self.retries += 1
                time.sleep(policy.backoff_seconds(config.digest(), attempt))
                continue
            elapsed = time.perf_counter() - started
            if policy.trial_timeout is not None and elapsed > policy.trial_timeout:
                return ExecutionFailure("Timeout")
            return result

    def _count_timeouts(self, results) -> None:
        self.timeouts += sum(
            1 for r in results
            if isinstance(r, ExecutionFailure) and r.kind == "Timeout"
        )

    def close(self) -> None:
        """Release pooled workers (no-op for in-line backends)."""

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} workers={self.workers}>"


class SerialExecutor(BatchExecutor):
    """In-line execution — the reference backend."""

    name = "serial"


class ThreadExecutor(BatchExecutor):
    """Thread-pool execution; the pool persists across batches.

    With a fault policy attached, each configuration runs through the
    retrying executor and the collection of each future is bounded by
    the trial timeout.  A thread cannot be killed, so a timed-out
    trial's thread keeps running in the background; the pool is
    respawned so pool capacity is not silently eaten by hung tasks.
    """

    name = "thread"

    def __init__(self, workers: int = 4, policy: FaultPolicy | None = None) -> None:
        super().__init__(workers, policy)
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="mixpbench-eval",
            )
        return self._pool

    def run(self, program, configs):
        if not self.policy.active:
            if len(configs) <= 1:
                return [execute_guarded(program, config) for config in configs]
            pool = self._ensure_pool()
            return list(pool.map(lambda c: execute_guarded(program, c), configs))

        pool = self._ensure_pool()
        futures = [
            pool.submit(self._policy_execute, program, config)
            for config in configs
        ]
        results: list[ExecutionResult | ExecutionFailure] = []
        for future in futures:
            try:
                results.append(future.result(timeout=self.policy.trial_timeout))
            except FuturesTimeout:
                # the task is stuck past its budget: give up on the
                # wait, abandon the pool (its threads drain and exit on
                # their own) and restore full capacity with a fresh one
                results.append(ExecutionFailure("Timeout"))
                pool.shutdown(wait=False)
                self._pool = None
                self.worker_restarts += 1
                pool = self._ensure_pool()
        self._count_timeouts(results)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# -- process backend ---------------------------------------------------------

#: per-worker-process benchmark instances, keyed by (name, machine name)
_WORKER_BENCHMARKS: dict[tuple[str, str], Any] = {}


def _execute_work_item(item: tuple) -> tuple:
    """Worker-side execution of one picklable work item.

    Returns a plain ``("ok", output, modeled_seconds)``,
    ``("error", exception_name)`` or ``("timeout",)`` tuple — nothing
    richer than NumPy arrays and strings crosses back to the parent.
    Transient (non-runtime) exceptions propagate to the parent, which
    owns the retry budget.  The optional fourth item field is the
    trial timeout for the post-hoc elapsed check (worker warm-up —
    input generation, Typeforge analysis — is deliberately excluded
    from the measured window).
    """
    program_name, machine, config_payload = item[:3]
    timeout = item[3] if len(item) > 3 else None
    key = (program_name, machine.name)
    bench = _WORKER_BENCHMARKS.get(key)
    if bench is None:
        from repro.benchmarks.base import get_benchmark

        bench = get_benchmark(program_name, machine=machine)
        bench.inputs()  # deterministic regeneration, once per process
        _WORKER_BENCHMARKS[key] = bench
    config = PrecisionConfig.from_json_dict(config_payload)
    started = time.perf_counter()
    try:
        result = bench.execute(config)
    except RUNTIME_ERRORS as exc:
        return ("error", type(exc).__name__)
    if timeout is not None and time.perf_counter() - started > timeout:
        return ("timeout",)
    output = np.asarray(result.output, dtype=np.float64)
    return ("ok", output, float(result.modeled_seconds))


class ProcessExecutor(BatchExecutor):
    """Process-pool execution over picklable work items.

    Only registry benchmarks can be shipped by name; other programs
    degrade to an in-process thread pool so callers never have to
    special-case the backend.

    With a fault policy attached this is the one backend that can
    truly *recover*: a hung worker is killed at the trial timeout, a
    dead worker (segfault/``os._exit``) is detected through the broken
    pool, and in both cases the pool is respawned and the work items
    that were lost with it are re-dispatched — completed items are
    never re-executed.  After a crash the executor dispatches one item
    at a time until the culprit is identified, so a poison item burns
    only its own retry budget.
    """

    name = "process"

    def __init__(self, workers: int = 2, policy: FaultPolicy | None = None) -> None:
        super().__init__(workers, policy)
        self._pool: ProcessPoolExecutor | None = None
        self._thread_fallback: ThreadExecutor | None = None

    def _resolvable(self, program: Program) -> bool:
        name = getattr(program, "name", None)
        if not name:
            return False
        from repro.benchmarks.base import available_benchmarks

        return name in available_benchmarks()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # More processes than CPUs buy nothing for CPU-bound trials,
            # and a fork pool starts all of them at the first batch: a
            # requested worker count never becomes that many processes.
            # ``self.workers`` (reported in eval_stats) keeps the request.
            self._pool = ProcessPoolExecutor(
                max_workers=min(self.workers, os.cpu_count() or 1),
            )
        return self._pool

    def _kill_pool(self) -> None:
        """Tear a (hung or broken) pool down hard and forget it."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        self.worker_restarts += 1
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.kill()
            except OSError:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def fault_counters(self) -> dict[str, int]:
        counters = super().fault_counters()
        if self._thread_fallback is not None:
            for key, value in self._thread_fallback.fault_counters().items():
                counters[key] += value
        return counters

    def run(self, program, configs):
        if not self.policy.active and len(configs) <= 1:
            return [execute_guarded(program, config) for config in configs]
        if not self._resolvable(program):
            if self._thread_fallback is None:
                self._thread_fallback = ThreadExecutor(self.workers, self.policy)
            return self._thread_fallback.run(program, configs)

        machine = getattr(program, "machine", None)
        if machine is None:
            from repro.runtime.machine import DEFAULT_MACHINE

            machine = DEFAULT_MACHINE
        timeout = self.policy.trial_timeout
        items = [
            (program.name, machine, config.to_json_dict(), timeout)
            for config in configs
        ]
        if not self.policy.active:
            pool = self._ensure_pool()
            return [
                self._payload_to_result(payload)
                for payload in pool.map(_execute_work_item, items)
            ]
        tokens = [config.digest() for config in configs]
        results = self._run_fault_tolerant(items, tokens)
        self._count_timeouts(results)
        return results

    @staticmethod
    def _payload_to_result(payload: tuple) -> ExecutionResult | ExecutionFailure:
        if payload[0] == "error":
            return ExecutionFailure(payload[1])
        if payload[0] == "timeout":
            return ExecutionFailure("Timeout")
        _tag, output, modeled = payload
        return ExecutionResult(output=output, profile=None, modeled_seconds=modeled)

    def _run_fault_tolerant(self, items: list, tokens: list[str]) -> list:
        """Dispatch work items, surviving hangs, crashes and transients.

        Every loop iteration permanently resolves at least one item
        (success, configuration failure, timeout, or an exhausted retry
        budget) or flips into isolation mode, so the loop terminates
        after a bounded number of dispatches.
        """
        results: list = [None] * len(items)
        attempts = [0] * len(items)
        pending: deque[int] = deque(range(len(items)))
        isolate = False
        while pending:
            if isolate:
                batch = [pending.popleft()]
            else:
                batch = list(pending)
                pending.clear()
            requeue, broke = self._dispatch(items, tokens, batch, attempts, results)
            pending.extend(requeue)
            if broke and not isolate and len(batch) > 1:
                isolate = True  # identify the poison item one by one
        return results

    def _dispatch(
        self, items: list, tokens: list[str], batch: list[int],
        attempts: list[int], results: list,
    ) -> tuple[list[int], bool]:
        """Run one batch; fill ``results``; return (requeue, pool broke)."""
        policy = self.policy
        isolated = len(batch) == 1
        try:
            pool = self._ensure_pool()
            futures = [(i, pool.submit(_execute_work_item, items[i])) for i in batch]
        except _POOL_FAILURES:
            self._kill_pool()
            self.redispatched += len(batch)
            return list(batch), True
        broke = False
        requeue: list[int] = []
        for i, future in futures:
            if broke:
                # the pool died while this item was in flight: keep a
                # result that already materialised, otherwise re-dispatch
                # the lost item (exactly once per incident)
                payload = None
                if future.done() and not future.cancelled():
                    try:
                        payload = future.result(timeout=0)
                    except Exception:  # noqa: BLE001 — died with the pool
                        payload = None
                if payload is not None:
                    results[i] = self._payload_to_result(payload)
                else:
                    requeue.append(i)
                    self.redispatched += 1
                continue
            try:
                payload = future.result(timeout=policy.trial_timeout)
            except FuturesTimeout:
                # hung worker: the trial is charged as a timeout, the
                # pool is killed, and everything else in flight gets
                # re-dispatched on a fresh pool
                results[i] = ExecutionFailure("Timeout")
                self._kill_pool()
                broke = True
            except _POOL_FAILURES:
                self._kill_pool()
                broke = True
                if isolated:
                    # dispatched alone, so this item *is* the culprit
                    if attempts[i] >= policy.max_retries:
                        results[i] = ExecutionFailure("WorkerCrash")
                    else:
                        attempts[i] += 1
                        self.retries += 1
                        time.sleep(policy.backoff_seconds(tokens[i], attempts[i]))
                        requeue.append(i)
                else:
                    # culprit unknown: re-dispatch without charging
                    requeue.append(i)
                    self.redispatched += 1
            except Exception as exc:  # noqa: BLE001 — transient remote failure
                if attempts[i] >= policy.max_retries:
                    results[i] = ExecutionFailure(type(exc).__name__)
                else:
                    attempts[i] += 1
                    self.retries += 1
                    time.sleep(policy.backoff_seconds(tokens[i], attempts[i]))
                    requeue.append(i)
            else:
                results[i] = self._payload_to_result(payload)
        return requeue, broke

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._thread_fallback is not None:
            self._thread_fallback.close()
            self._thread_fallback = None


def make_executor(
    name: str,
    workers: int | None = None,
    trial_timeout: float | None = None,
    max_retries: int = 0,
    backoff_base: float = 0.05,
) -> BatchExecutor:
    """Build an executor from its CLI/YAML name.

    ``trial_timeout``/``max_retries``/``backoff_base`` configure the
    executor's :class:`FaultPolicy`; the defaults leave fault handling
    off, preserving the exact legacy execution paths.
    """
    key = (name or "serial").strip().lower()
    policy = FaultPolicy(
        trial_timeout=trial_timeout,
        max_retries=max(0, int(max_retries)),
        backoff_base=backoff_base,
    )
    if key == "serial":
        return SerialExecutor(policy=policy)
    if key == "thread":
        return ThreadExecutor(workers if workers is not None else 4, policy=policy)
    if key == "process":
        return ProcessExecutor(workers if workers is not None else 2, policy=policy)
    raise ValueError(
        f"unknown executor {name!r}; choose one of {EXECUTOR_NAMES}"
    )
