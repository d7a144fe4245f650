"""Trial records, search outcomes, and the JSON interchange format.

FloatSmith integrates its tool chain through a JSON-based interchange
format; this module plays that role.  Every configuration an evaluator
tries becomes a :class:`TrialRecord`; a finished search is a
:class:`SearchOutcome`.  Both serialise to plain JSON dictionaries so
harness results can be stored, diffed and re-loaded.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.core.types import PrecisionConfig

__all__ = ["EvaluationStatus", "TrialRecord", "SearchOutcome"]


class EvaluationStatus(enum.Enum):
    """What happened when a configuration was evaluated."""

    PASSED = "passed"                # compiled, ran, met the quality threshold
    FAILED_QUALITY = "failed_quality"  # ran but the error exceeded the threshold
    COMPILE_ERROR = "compile_error"  # split a Typeforge cluster (would not compile)
    RUNTIME_ERROR = "runtime_error"  # crashed / produced no output
    SCREENED = "screened"            # statically certified over-threshold; never ran


@dataclass(frozen=True)
class TrialRecord:
    """One evaluated configuration.

    ``speedup`` follows the paper's methodology: each version is
    "executed" ten times, the best and worst are discarded, and the
    averages are compared.  ``analysis_seconds`` is what the trial cost
    on the simulated analysis clock (compile + timed runs).
    """

    index: int
    config: PrecisionConfig
    status: EvaluationStatus
    error_value: float = math.nan
    speedup: float = math.nan
    modeled_seconds: float = math.nan
    analysis_seconds: float = 0.0
    from_cache: bool = False

    @property
    def passed(self) -> bool:
        return self.status is EvaluationStatus.PASSED

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "config": self.config.to_json_dict(),
            "status": self.status.value,
            "error_value": _json_float(self.error_value),
            "speedup": _json_float(self.speedup),
            "modeled_seconds": _json_float(self.modeled_seconds),
            "analysis_seconds": self.analysis_seconds,
            "from_cache": self.from_cache,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "TrialRecord":
        return cls.replay(
            payload, int(payload["index"]),
            PrecisionConfig.from_json_dict(payload["config"]),
            from_cache=bool(payload.get("from_cache", False)),
        )

    @classmethod
    def replay(
        cls,
        payload: Mapping,
        index: int,
        config: PrecisionConfig,
        from_cache: bool = False,
    ) -> "TrialRecord":
        """A stored trial's status, error, speedup and costs as trial
        ``index`` of ``config``: the payload's own index and config are
        neither parsed nor kept (a cache replay already holds both)."""
        return cls(
            index=index,
            config=config,
            status=EvaluationStatus(payload["status"]),
            error_value=_parse_float(payload.get("error_value")),
            speedup=_parse_float(payload.get("speedup")),
            modeled_seconds=_parse_float(payload.get("modeled_seconds")),
            analysis_seconds=float(payload.get("analysis_seconds", 0.0)),
            from_cache=from_cache,
        )


@dataclass
class SearchOutcome:
    """The result of running one search strategy on one program."""

    strategy: str
    program: str
    threshold: float
    final: TrialRecord | None
    evaluations: int
    analysis_seconds: float
    timed_out: bool
    trials: list[TrialRecord] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def found_solution(self) -> bool:
        return self.final is not None and self.final.passed

    @property
    def speedup(self) -> float:
        """Speedup of the found configuration (SU); NaN if none found."""
        if not self.found_solution:
            return math.nan
        return self.final.speedup

    @property
    def error_value(self) -> float:
        """Quality (AC) of the found configuration; NaN if none found."""
        if not self.found_solution:
            return math.nan
        return self.final.error_value

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "program": self.program,
            "threshold": self.threshold,
            "final": self.final.to_json_dict() if self.final else None,
            "evaluations": self.evaluations,
            "analysis_seconds": self.analysis_seconds,
            "timed_out": self.timed_out,
            "trials": [t.to_json_dict() for t in self.trials],
            "metadata": self.metadata,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "SearchOutcome":
        final = payload.get("final")
        return cls(
            strategy=payload["strategy"],
            program=payload["program"],
            threshold=float(payload["threshold"]),
            final=TrialRecord.from_json_dict(final) if final else None,
            evaluations=int(payload["evaluations"]),
            analysis_seconds=float(payload["analysis_seconds"]),
            timed_out=bool(payload["timed_out"]),
            trials=[TrialRecord.from_json_dict(t) for t in payload.get("trials", [])],
            metadata=dict(payload.get("metadata", {})),
        )

    def save(self, path: str | Path) -> None:
        """Write the outcome as interchange JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "SearchOutcome":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def _json_float(value: float) -> float | str | None:
    """JSON has no NaN/Inf; encode them as strings."""
    if value is None or math.isfinite(value):
        return value
    return str(value)


def _parse_float(value: Any) -> float:
    if value is None:
        return math.nan
    return float(value)
