"""The program abstraction the evaluator and search algorithms consume.

FloatSmith asks the user for "instructions on how to acquire, build,
and run the program as well as how to verify the output" — the
:class:`Program` protocol is that contract: anything exposing a search
space, an execute-under-configuration entry point, a quality spec and
a couple of timing knobs can be tuned by every search strategy in
:mod:`repro.search`.  The concrete implementation for suite benchmarks
lives in :mod:`repro.benchmarks.base`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.types import PrecisionConfig
from repro.core.variables import Granularity, SearchSpace
from repro.runtime.profiler import Profile
from repro.verify.quality import QualitySpec

__all__ = ["ExecutionResult", "Program"]


@dataclass
class ExecutionResult:
    """One execution of a program under a precision configuration."""

    output: np.ndarray
    profile: Profile
    modeled_seconds: float

    @property
    def has_nonfinite_output(self) -> bool:
        return not bool(np.all(np.isfinite(self.output)))


@runtime_checkable
class Program(Protocol):
    """What a tunable program must provide.

    Attributes
    ----------
    name:
        Unique program identifier (e.g. ``"lavamd"``).
    quality:
        Default quality metric + threshold for this program.
    runs_per_config:
        How many timed runs the evaluator averages (the paper uses 10,
        discarding the best and worst).
    nominal_seconds:
        Wall-clock seconds one double-precision run would plausibly
        take on the paper's testbed; used only to scale modeled time
        onto the simulated 24-hour analysis clock.
    compile_seconds:
        Simulated build time charged per evaluated configuration.

    A program may also provide ``baseline() -> ExecutionResult``: the
    all-double execution, memoised and with a read-only output (see
    :meth:`repro.benchmarks.base.Benchmark.baseline`).  Under the
    modeled clock the evaluator takes its reference from it instead of
    executing ``PrecisionConfig()`` itself.
    """

    name: str
    quality: QualitySpec
    runs_per_config: int
    nominal_seconds: float
    compile_seconds: float

    def search_space(self, granularity: Granularity = Granularity.CLUSTER) -> SearchSpace:
        """The program's locations at the requested granularity."""
        ...

    def execute(self, config: PrecisionConfig) -> ExecutionResult:
        """Run the program under ``config`` and return its output,
        operation profile and modeled runtime."""
        ...
