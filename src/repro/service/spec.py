"""Job specifications and records for the search service.

A *grid spec* is the client-side description of one search job: the
(program × algorithm × threshold) cross product plus the execution
options ``mixpbench grid`` takes.  It is deliberately the same shape
:func:`repro.harness.scheduler.grid_jobs` expands, so a submitted job
and a direct ``mixpbench grid`` of the same spec run the *same*
:class:`~repro.harness.scheduler.SearchJob` shards and produce
byte-identical outcomes (modulo the ``eval_stats`` telemetry block,
which records wall time and executor identity).

A *job record* is the service-side ledger entry: who submitted what,
and where it is in the ``queued → running → done/failed/cancelled``
lifecycle.  Both serialise to plain JSON for the service journal.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.core.batch import EXECUTOR_NAMES
from repro.errors import MixPBenchError
from repro.harness.scheduler import SearchJob, grid_jobs

__all__ = [
    "JOB_STATES", "TERMINAL_STATES", "GridSpec", "JobRecord", "SpecError",
]

#: the full job lifecycle; the first three are live, the rest terminal
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

_DEFAULT_TIME_LIMIT = 24 * 3600.0


class SpecError(MixPBenchError):
    """A submitted grid spec is malformed."""


@dataclass(frozen=True)
class GridSpec:
    """One submittable search job: a grid plus its execution options.

    The shared evaluation cache is *not* part of the spec — the service
    owns it (every tenant's evaluations route through one store, which
    is what makes overlapping submissions dedupe); a direct
    ``mixpbench grid`` chooses its own.
    """

    programs: tuple[str, ...]
    algorithms: tuple[str, ...]
    thresholds: tuple[float, ...]
    max_evaluations: int | None = None
    time_limit_seconds: float = _DEFAULT_TIME_LIMIT
    executor: str = "serial"
    executor_workers: int | None = None
    trial_timeout: float | None = None
    max_retries: int = 0
    prune: bool = False
    shadow: bool = False
    #: store-rounding mode for emulated formats ("nearest" or
    #: "stochastic"); only the bit-width bisection strategy consumes it
    rounding: str = "nearest"
    #: skip configurations whose statically certified error bound
    #: violates the threshold (sound: skips only, never accepts)
    screen: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "programs", tuple(self.programs))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(
            self, "thresholds", tuple(float(t) for t in self.thresholds)
        )
        if not self.programs or not self.algorithms or not self.thresholds:
            raise SpecError(
                "a grid spec needs at least one program, algorithm and threshold"
            )
        if self.executor not in EXECUTOR_NAMES:
            raise SpecError(
                f"unknown executor {self.executor!r}; "
                f"choose one of {EXECUTOR_NAMES}"
            )
        if self.rounding not in ("nearest", "stochastic"):
            raise SpecError(
                f"unknown rounding mode {self.rounding!r}; "
                "choose 'nearest' or 'stochastic'"
            )

    def jobs(self, cache_dir: str | None = None) -> list[SearchJob]:
        """Expand into the shards a scheduler dispatches."""
        return grid_jobs(
            self.programs, self.algorithms, self.thresholds,
            time_limit_seconds=self.time_limit_seconds,
            max_evaluations=self.max_evaluations,
            executor=self.executor,
            executor_workers=self.executor_workers,
            cache_dir=cache_dir,
            trial_timeout=self.trial_timeout,
            max_retries=self.max_retries,
            prune=self.prune,
            shadow=self.shadow,
            rounding=self.rounding,
            screen=self.screen,
        )

    @property
    def shards(self) -> int:
        return len(self.programs) * len(self.algorithms) * len(self.thresholds)

    def digest(self) -> str:
        """Stable content hash of the spec (used in job identifiers)."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def label(self) -> str:
        programs = ",".join(self.programs)
        algorithms = ",".join(self.algorithms)
        thresholds = ",".join(f"{t:g}" for t in self.thresholds)
        return f"{programs} x {algorithms} @ {thresholds}"

    def to_json_dict(self) -> dict:
        return {
            "programs": list(self.programs),
            "algorithms": list(self.algorithms),
            "thresholds": list(self.thresholds),
            "max_evaluations": self.max_evaluations,
            "time_limit_seconds": self.time_limit_seconds,
            "executor": self.executor,
            "executor_workers": self.executor_workers,
            "trial_timeout": self.trial_timeout,
            "max_retries": self.max_retries,
            "prune": self.prune,
            "shadow": self.shadow,
            # Only serialised when set: specs that never touch emulated
            # formats keep their pre-format JSON shape, so their content
            # digests (and therefore job identifiers) are unchanged.
            **({"rounding": self.rounding} if self.rounding != "nearest" else {}),
            **({"screen": True} if self.screen else {}),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "GridSpec":
        """Parse a submitted or journaled spec.  Any malformed payload
        raises :class:`SpecError`, never another exception: the daemon
        answers it with a rejection instead of dying on it."""
        if not isinstance(payload, Mapping):
            raise SpecError(f"grid spec must be an object, got {type(payload).__name__}")
        unknown = set(payload) - _SPEC_FIELDS - _RETIRED_FIELDS
        if unknown:
            raise SpecError(f"unknown grid spec field(s): {sorted(unknown)}")
        trial_timeout = payload.get("trial_timeout")
        return cls(
            programs=_strings(payload, "programs"),
            algorithms=_strings(payload, "algorithms"),
            thresholds=tuple(
                _number("thresholds", value)
                for value in _sequence(payload, "thresholds")
            ),
            max_evaluations=_optional_int(payload, "max_evaluations"),
            time_limit_seconds=_number(
                "time_limit_seconds",
                payload.get("time_limit_seconds", _DEFAULT_TIME_LIMIT),
                allow_inf=True,
            ),
            executor=payload.get("executor", "serial"),
            executor_workers=_optional_int(payload, "executor_workers"),
            trial_timeout=(
                None if trial_timeout is None
                else _number("trial_timeout", trial_timeout)
            ),
            max_retries=_optional_int(payload, "max_retries") or 0,
            prune=_flag(payload, "prune"),
            shadow=_flag(payload, "shadow"),
            rounding=payload.get("rounding", "nearest"),
            screen=_flag(payload, "screen"),
        )


_SPEC_FIELDS = {
    "programs", "algorithms", "thresholds", "max_evaluations",
    "time_limit_seconds", "executor", "executor_workers",
    "trial_timeout", "max_retries", "prune", "shadow", "rounding", "screen",
}
#: fields earlier releases wrote, accepted (with any value) and ignored
#: so ledgers and spool files written by those releases still load
_RETIRED_FIELDS = {"fuse"}


def _sequence(payload: Mapping, name: str) -> list:
    if name not in payload:
        raise SpecError(f"grid spec is missing {name!r}")
    value = payload[name]
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"grid spec field {name!r} must be a list")
    return list(value)


def _strings(payload: Mapping, name: str) -> tuple[str, ...]:
    values = _sequence(payload, name)
    if not all(isinstance(value, str) for value in values):
        raise SpecError(f"grid spec field {name!r} must list strings")
    return tuple(values)


def _number(name: str, value, allow_inf: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"grid spec field {name!r} must hold numbers, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a float
        number = math.inf
    if math.isnan(number) or (math.isinf(number) and not allow_inf):
        raise SpecError(f"grid spec field {name!r} must be finite, got {value!r}")
    return number


def _optional_int(payload: Mapping, name: str) -> int | None:
    value = payload.get(name)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise SpecError(f"grid spec field {name!r} must be an integer, got {value!r}")
    return value


def _flag(payload: Mapping, name: str) -> bool:
    value = payload.get(name, False)
    if not isinstance(value, bool):
        raise SpecError(f"grid spec field {name!r} must be a boolean, got {value!r}")
    return value


@dataclass
class JobRecord:
    """The service ledger's view of one submitted job."""

    job_id: str
    tenant: str
    spec: GridSpec
    state: str = "queued"
    error: str | None = None
    #: aggregate outcome statistics, filled at the terminal transition
    #: (shard counts, evaluations, shared-cache hits, redispatches)
    stats: dict = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def with_state(self, state: str) -> "JobRecord":
        return replace(self, state=state)

    def to_json_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "spec": self.spec.to_json_dict(),
            "state": self.state,
            "error": self.error,
            "stats": dict(self.stats),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "JobRecord":
        return cls(
            job_id=payload["job_id"],
            tenant=payload.get("tenant", "default"),
            spec=GridSpec.from_json_dict(payload["spec"]),
            state=payload.get("state", "queued"),
            error=payload.get("error"),
            stats=dict(payload.get("stats", {})),
        )
