"""Per-run search options and the one evaluator factory.

A search option (prune, shadow order, screen, rounding, the executor
and its fault knobs, the budgets) is declared once, as a field of
:class:`SearchOptions`: its type, default, validator and JSON form
live on that one line.  Every layer that carries options reuses it:

* :class:`repro.harness.scheduler.SearchJob` and
  :class:`repro.service.spec.GridSpec` *are* ``SearchOptions`` plus
  their own fields (``kw_only`` keeps their positional constructors and
  keeps ``asdict(job)`` flat, so resume fingerprints are unchanged);
* the YAML harness and the ``floatSmith`` plugin validate their option
  keys by building a ``SearchOptions`` value, the most specific level
  winning (``extra_args``, then the YAML entry, then the harness-wide
  flag);
* the CLI declares each flag once (``repro.harness.cli.add_search_options``).

:func:`build_evaluator` is the one place the guidance passes (static
pruning, shadow ordering, certified screening) are run and handed to a
:class:`~repro.core.evaluator.ConfigurationEvaluator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable

from repro.core.batch import EXECUTOR_NAMES, BatchExecutor
from repro.core.batch import make_executor as _make_executor
from repro.core.evaluator import DEFAULT_TIME_LIMIT, ConfigurationEvaluator, TimingMode
from repro.errors import MixPBenchError
from repro.search.bitwidth import ROUNDING_MODES

__all__ = [
    "OPTION_NAMES", "OptionError", "SearchOptions", "build_evaluator",
    "as_number", "as_count", "as_flag",
]


class OptionError(MixPBenchError):
    """A search option holds a value of the wrong type or range.

    ``requirement`` says what the value must be, ``value`` is what it
    was, and ``reason`` joins the two."""

    def __init__(self, name: str, requirement: str, value: Any) -> None:
        self.name = name
        self.requirement = requirement
        self.value = value
        self.reason = f"{requirement}, got {value!r}"
        super().__init__(f"option {name!r} {self.reason}")


# The validators below raise ValueError with the requirement alone; the
# caller adds the offending value in the terms its user typed it.

def as_number(value: Any, *, positive: bool = False, allow_inf: bool = False) -> float:
    """``value`` as a float; ``ValueError`` if it is not a number
    (booleans are not), is NaN, or breaks the range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if math.isnan(number) or (math.isinf(number) and not allow_inf):
        raise ValueError("must be finite")
    if positive and number <= 0:
        raise ValueError("must be positive")
    return number


def as_count(value: Any, minimum: int = 0) -> int:
    """``value`` as an integer of at least ``minimum``; ``ValueError``
    otherwise (booleans and floats are not integers)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("must be an integer")
    if value < minimum:
        raise ValueError(f"must be at least {minimum}")
    return value


def as_flag(value: Any) -> bool:
    """``value`` if it is a boolean; ``ValueError`` otherwise."""
    if not isinstance(value, bool):
        raise ValueError("must be a boolean")
    return value


def _choice(names: tuple[str, ...]) -> Callable[[Any], str]:
    def check(value: Any) -> str:
        key = value.strip().lower() if isinstance(value, str) else value
        if key not in names:
            raise ValueError(f"must be one of {list(names)}")
        return key
    return check


def _optional(check: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else check(value)


def _option(default: Any, check: Callable[[Any], Any], *, emit_default: bool = True):
    """One option: its default, its validator (returns the normalised
    value, raises ``ValueError`` with the reason) and whether its JSON
    form is emitted when it holds the default."""
    return field(default=default, metadata={"check": check, "emit_default": emit_default})


@dataclass(frozen=True, kw_only=True)
class SearchOptions:
    """How one search runs, independent of what it searches."""

    #: evaluation-count ceiling; None leaves only the time limit
    max_evaluations: int | None = _option(None, _optional(lambda v: as_count(v, 1)))
    #: simulated analysis budget (the paper's 24 hours)
    time_limit_seconds: float = _option(
        DEFAULT_TIME_LIMIT, lambda v: as_number(v, positive=True, allow_inf=True),
    )
    #: batch backend evaluating one search's configuration batches
    executor: str = _option("serial", _choice(EXECUTOR_NAMES))
    #: worker count of the thread/process executors (None: their default)
    executor_workers: int | None = _option(None, _optional(lambda v: as_count(v, 1)))
    #: per-trial wall-clock budget in real seconds (see FaultPolicy)
    trial_timeout: float | None = _option(
        None, _optional(lambda v: as_number(v, positive=True)),
    )
    #: transient worker-failure retries
    max_retries: int = _option(0, as_count)
    #: restrict the search space with the static dataflow pruner
    prune: bool = _option(False, as_flag)
    #: order search locations by shadow-run sensitivity
    shadow: bool = _option(False, as_flag)
    #: store-rounding mode for emulated formats; consumed by the
    #: bit-width bisection strategy, ignored by strategies that never
    #: emit custom formats.  Added after the JSON form was fixed, so it
    #: is serialised only when set: older content digests still hold.
    rounding: str = _option("nearest", _choice(ROUNDING_MODES), emit_default=False)
    #: skip configurations whose statically certified error bound
    #: violates the threshold (sound: skips only, never accepts)
    screen: bool = _option(False, as_flag, emit_default=False)

    def __post_init__(self) -> None:
        for spec in fields(SearchOptions):
            value = getattr(self, spec.name)
            try:
                object.__setattr__(self, spec.name, spec.metadata["check"](value))
            except ValueError as error:
                raise OptionError(spec.name, str(error), value) from None

    def option_values(self) -> dict[str, Any]:
        """The option fields by name (also of a subclass value)."""
        return {name: getattr(self, name) for name in OPTION_NAMES}

    def options_json(self) -> dict[str, Any]:
        """The JSON form of the option fields."""
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(SearchOptions)
            if spec.metadata["emit_default"] or getattr(self, spec.name) != spec.default
        }

    def make_executor(self) -> BatchExecutor:
        """A fresh batch executor for these options (the caller closes it)."""
        return _make_executor(
            self.executor, self.executor_workers,
            trial_timeout=self.trial_timeout, max_retries=self.max_retries,
        )


OPTION_NAMES = tuple(spec.name for spec in fields(SearchOptions))


def build_evaluator(
    bench,
    quality,
    options: SearchOptions,
    *,
    executor: BatchExecutor | None = None,
    cache=None,
    trace=None,
    timing: TimingMode = TimingMode.MODELED,
) -> ConfigurationEvaluator:
    """The evaluator one search runs against, with the guidance the
    options ask for.

    Each guidance pass is imported when it runs (the shadow engine is
    never loaded by a search that does not use it), and looked up by
    module attribute at call time, so wrappers installed on those
    functions see every call.  The shadow report is a pure function of
    the benchmark's inputs, computed once per process and shared by the
    shadow order and the certificate's calibration.
    """
    guidance: dict[str, Any] = {}
    if options.prune:
        from repro.typeforge.prune import prune_report

        report = bench.report()
        pruned = prune_report(report)
        guidance["space_override"] = pruned.space
        guidance["prune_info"] = pruned.stats(report.search_space())
    if options.shadow:
        from repro.shadow import shadow_guidance

        guidance["location_order"], guidance["shadow_info"] = shadow_guidance(bench)
    if options.screen:
        from repro.typeforge.errorbound import certify_benchmark

        _, certificate = certify_benchmark(bench)
        guidance["screen"] = certificate
        guidance["screen_info"] = certificate.info()
    return ConfigurationEvaluator(
        bench,
        quality=quality,
        time_limit_seconds=options.time_limit_seconds,
        max_evaluations=options.max_evaluations,
        timing=timing,
        executor=executor,
        cache=cache,
        trace=trace,
        **guidance,
    )
