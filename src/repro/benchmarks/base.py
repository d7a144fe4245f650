"""Benchmark framework: base classes and the suite registry.

A benchmark binds together everything the paper's harness needs to know
about one program (Section III): the precision-configurable code (an
MPB-style module), how to generate its inputs, which quality metric
verifies its output, and the timing parameters used by the simulated
analysis clock.

Concrete benchmarks subclass :class:`KernelBenchmark` (randomly
initialised, no I/O — the paper's Table I codes) or
:class:`ApplicationBenchmark` (proxy/mini apps, possibly file-driven)
and register themselves with :func:`register_benchmark`.
"""

from __future__ import annotations

import importlib
import os
import tempfile
import threading
from abc import ABC, abstractmethod
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterable

import numpy as np

from repro.core.program import ExecutionResult
from repro.core.types import PrecisionConfig
from repro.core.variables import Granularity, SearchSpace
from repro.errors import BenchmarkNotFound
from repro.runtime.machine import DEFAULT_MACHINE, MachineModel
from repro.runtime.memory import Workspace
from repro.runtime.mparray import unwrap
from repro.runtime.profiler import Profile
from repro.typeforge import TypeforgeReport, analyze
from repro.verify.quality import QualitySpec

__all__ = [
    "Benchmark", "KernelBenchmark", "ApplicationBenchmark",
    "register_benchmark", "get_benchmark", "available_benchmarks",
    "kernel_benchmarks", "application_benchmarks", "collect_output",
    "clear_process_caches",
]


def collect_output(result: Any) -> np.ndarray:
    """Flatten a benchmark's return value into one float64 vector.

    Benchmarks may return a single array or a tuple of arrays (e.g.
    LavaMD returns positions and velocities); verification metrics
    compare the concatenation.
    """
    parts = result if isinstance(result, tuple) else (result,)
    flat = [np.asarray(unwrap(p), dtype=np.float64).ravel() for p in parts]
    return np.concatenate(flat) if len(flat) > 1 else flat[0]


class Benchmark(ABC):
    """A precision-configurable program of the suite.

    Class attributes configure identity and timing; subclasses
    implement :meth:`setup` (deterministic input generation) and point
    at their MPB-style compute module via :attr:`module_name` and
    :attr:`entry`.
    """

    #: unique suite-wide identifier, e.g. ``"hydro-1d"``
    name: str = ""
    #: one-line description (paper Table I / Section III-B)
    description: str = ""
    #: ``"kernel"`` or ``"application"``
    category: str = "kernel"
    #: dotted module path of the MPB-style compute code
    module_name: str = ""
    #: additional module paths for multi-module applications
    extra_module_names: tuple[str, ...] = ()
    #: entry function name inside :attr:`module_name`
    entry: str = "kernel"
    #: quality metric used to verify this benchmark
    metric: str = "MAE"
    #: default acceptance threshold
    default_threshold: float = 1e-6
    #: paper methodology: 10 timed runs per configuration
    runs_per_config: int = 10
    #: plausible per-run wall seconds on the paper's testbed (scales
    #: modeled time onto the simulated 24-hour analysis clock)
    nominal_seconds: float = 2.0
    #: simulated build time per configuration
    compile_seconds: float = 10.0
    #: seed for deterministic input generation
    seed: int = 20200901

    def __init__(self, machine: MachineModel = DEFAULT_MACHINE) -> None:
        if not self.name or not self.module_name:
            raise TypeError(
                f"{type(self).__name__} must define class attributes "
                "'name' and 'module_name'"
            )
        self.machine = machine
        self._report: TypeforgeReport | None = None
        self._inputs: dict[str, Any] | None = None
        self._state: dict | None = None
        self._entry: Callable | None = None

    def inputs_fingerprint(self) -> tuple:
        """Key identifying one deterministic input set.

        Everything that changes what :meth:`setup` produces is folded
        in: the concrete benchmark class, the input seed, and the data
        directory root (``MIXPBENCH_DATA``) that file-driven
        applications write their generated inputs under.  Executions
        sharing a fingerprint share one set of inputs; changing any
        component gives a cold cache entry, never stale inputs.
        """
        cls = type(self)
        return (
            f"{cls.__module__}.{cls.__qualname__}",
            self.name,
            self.seed,
            os.environ.get("MIXPBENCH_DATA", ""),
        )

    def _shared_state(self) -> dict:
        """Per-process cache slot for this fingerprint (inputs, report,
        shadow sensitivity report, all-double baseline) shared across
        benchmark instances."""
        state = self._state
        if state is None:
            key = self.inputs_fingerprint()
            with _PROCESS_STATE_LOCK:
                state = _PROCESS_STATE.get(key)
                if state is None:
                    state = _PROCESS_STATE[key] = {"lock": threading.RLock()}
            self._state = state
        return state

    def _shared(self, name: str, compute: Callable[[], Any]) -> Any:
        """Entry ``name`` of the fingerprint slot, computed at most once.

        Concurrent first callers (service worker threads reaching a new
        fingerprint together) serialise on the slot's lock, so
        ``compute`` runs once — :meth:`setup` may write input files.
        The lock is re-entrant because filling one entry can fill
        another: the shadow run reads :meth:`report` and :meth:`inputs`.
        """
        state = self._shared_state()
        value = state.get(name)
        if value is None:
            with state["lock"]:
                value = state.get(name)
                if value is None:
                    value = state[name] = compute()
        return value

    # -- to implement -------------------------------------------------------
    @abstractmethod
    def setup(self) -> dict[str, Any]:
        """Generate the benchmark's inputs, deterministically.

        Returned mapping is passed to the entry function as keyword
        arguments (after ``ws``).  Random inputs are drawn here, from
        ``np.random.default_rng(self.seed)``, never in the entry
        function; problem sizes are keyword defaults, so
        ``bench.setup(n=100)`` builds a smaller input set.  May write
        input files for applications that exercise the typed-I/O
        runtime API.
        """

    # -- derived machinery ----------------------------------------------------
    @property
    def quality(self) -> QualitySpec:
        return QualitySpec(self.metric, self.default_threshold)

    def modules(self) -> list[ModuleType]:
        names = (self.module_name, *self.extra_module_names)
        return [importlib.import_module(n) for n in names]

    def report(self) -> TypeforgeReport:
        """Typeforge analysis of this benchmark (cached per process —
        the analysis is a pure function of the benchmark's modules)."""
        if self._report is None:
            self._report = self._shared(
                "report", lambda: analyze(self.modules(), entry=self.entry, program=self.name)
            )
        return self._report

    def search_space(self, granularity: Granularity = Granularity.CLUSTER) -> SearchSpace:
        return self.report().search_space(granularity)

    def inputs(self) -> dict[str, Any]:
        """Deterministic inputs, generated once per process.

        :meth:`setup` output is precision-agnostic (plain fp64 arrays,
        sizes, file paths) and a pure function of the inputs
        fingerprint, so fresh benchmark instances — one per trial in
        the harness's fresh-execution path — share a single generation
        instead of redrawing arrays and rewriting input files.  Every
        array in it is read-only: an entry that writes into a shared
        input raises ``ValueError`` instead of corrupting later trials.
        """
        if self._inputs is None:
            self._inputs = self._shared("inputs", self._read_only_setup)
        return self._inputs

    def _read_only_setup(self) -> dict[str, Any]:
        inputs = self.setup()
        for value in inputs.values():
            for item in value if isinstance(value, (list, tuple)) else (value,):
                if isinstance(item, np.ndarray):
                    item.flags.writeable = False
        return inputs

    def data_dir(self) -> Path:
        """Directory for generated input files (the paper's benchmarks
        ship binary inputs; ours are generated deterministically).
        Override location with ``MIXPBENCH_DATA``."""
        root = os.environ.get("MIXPBENCH_DATA")
        base = Path(root) if root else Path(tempfile.gettempdir()) / "hpc-mixpbench"
        path = base / self.name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def entry_point(self) -> Callable:
        entry = self._entry
        if entry is None:
            entry = self._entry = getattr(
                importlib.import_module(self.module_name), self.entry
            )
        return entry

    def execute(
        self,
        config: PrecisionConfig,
        inputs: dict[str, Any] | None = None,
    ) -> ExecutionResult:
        """Run under ``config``: same inputs, same seed, only the
        precision assignment differs between executions."""
        report = self._report if self._report is not None else self.report()
        ws = Workspace(config, name_map=report.name_map, seed=self.seed)
        raw = self.entry_point()(ws, **(inputs if inputs is not None else self.inputs()))
        output = collect_output(raw)
        return ExecutionResult(
            output=output,
            profile=ws.profile,
            modeled_seconds=self.machine.time(ws.profile),
        )

    def baseline(self) -> ExecutionResult:
        """The all-double reference execution, run once per process.

        Its output is what every evaluator, the harness's final
        re-verification and the Table IV style experiments verify
        against.  Like :meth:`inputs` it is a pure function of the
        inputs fingerprint, so instances share one execution; the
        shared output is read-only.  The fingerprint does not include
        the machine, so the stored profile is priced on
        :attr:`machine` on every call.
        """
        output, profile = self._shared("baseline", self._run_baseline)
        return ExecutionResult(
            output=output,
            profile=profile,
            modeled_seconds=self.machine.time(profile),
        )

    def _run_baseline(self) -> tuple[np.ndarray, Profile]:
        result = self.execute(PrecisionConfig())
        # Keep a copy made after the run's temporaries are freed:
        # holding the run's own output array raised peak RSS (about
        # 2.5% on the service-replay benchmark), the copy did not.
        output = result.output.copy()
        output.flags.writeable = False
        return output, result.profile

    def manual_inputs(self, precision) -> dict[str, Any]:
        """Inputs for the paper's Table IV *manual* whole-program
        conversion.  A human rewriting the source also converts what no
        tool can touch (e.g. literals); benchmarks with such elements
        override this hook."""
        return self.inputs()

    def execute_manual(self, precision) -> ExecutionResult:
        """Run the manual uniform-precision version (Table IV)."""
        config = self.search_space().uniform_config(precision)
        return self.execute(config, inputs=self.manual_inputs(precision))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class KernelBenchmark(Benchmark):
    """Table-I style kernel: no I/O, randomly initialised inputs."""

    category = "kernel"
    nominal_seconds = 2.0
    compile_seconds = 10.0
    default_threshold = 1e-8


class ApplicationBenchmark(Benchmark):
    """Proxy/mini application (PARSEC, Rodinia, Mantevo origins)."""

    category = "application"
    nominal_seconds = 5.0
    compile_seconds = 20.0
    default_threshold = 1e-6


#: per-process shared state: inputs fingerprint -> {"inputs", "report",
#: "shadow", "baseline", "lock"}.  See
#: :meth:`Benchmark.inputs_fingerprint` for the invalidation rule.
_PROCESS_STATE: dict[tuple, dict] = {}
_PROCESS_STATE_LOCK = threading.Lock()


def _reset_state_locks() -> None:
    """Fresh locks in a forked child: a slot lock held by another
    thread of the parent (mid-``setup()`` or mid-shadow run) would
    otherwise stay held forever in a process-pool worker."""
    global _PROCESS_STATE_LOCK
    _PROCESS_STATE_LOCK = threading.Lock()
    for state in _PROCESS_STATE.values():
        state["lock"] = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_state_locks)


def clear_process_caches() -> None:
    """Drop all per-process benchmark state (tests, long-lived servers)."""
    _PROCESS_STATE.clear()


_REGISTRY: dict[str, type[Benchmark]] = {}


def register_benchmark(cls: type[Benchmark]) -> type[Benchmark]:
    """Class decorator adding a benchmark to the suite registry."""
    if not cls.name:
        raise TypeError(f"{cls.__name__} has no name; cannot register")
    if cls.name in _REGISTRY:
        raise ValueError(f"benchmark {cls.name!r} registered twice")
    _REGISTRY[cls.name] = cls
    return cls


def get_benchmark(name: str, machine: MachineModel = DEFAULT_MACHINE) -> Benchmark:
    """Instantiate a registered benchmark by name."""
    _ensure_suite_loaded()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise BenchmarkNotFound(
            f"no benchmark named {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(machine=machine)


def available_benchmarks() -> tuple[str, ...]:
    _ensure_suite_loaded()
    return tuple(sorted(_REGISTRY))


def kernel_benchmarks() -> tuple[str, ...]:
    _ensure_suite_loaded()
    return tuple(sorted(n for n, c in _REGISTRY.items() if c.category == "kernel"))


def application_benchmarks() -> tuple[str, ...]:
    _ensure_suite_loaded()
    return tuple(sorted(n for n, c in _REGISTRY.items() if c.category == "application"))


def _iter_registered() -> Iterable[type[Benchmark]]:
    _ensure_suite_loaded()
    return _REGISTRY.values()


_SUITE_MODULES = (
    "repro.benchmarks.kernels",
    "repro.benchmarks.apps",
)
_loaded = False
_load_lock = threading.Lock()


def _ensure_suite_loaded() -> None:
    """Import the suite packages so their @register_benchmark run.

    Thread-safe: concurrent first callers (e.g. service scheduler
    workers racing through their first ``get_benchmark``) serialise on
    the lock, and the loaded flag only flips once every registration
    has run — no caller can observe a half-populated registry.
    """
    global _loaded
    if _loaded:
        return
    with _load_lock:
        if _loaded:
            return
        for module in _SUITE_MODULES:
            importlib.import_module(module)
        _loaded = True
