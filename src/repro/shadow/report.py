"""Sensitivity reports: one shadow run, per-variable error attribution.

:func:`run_shadow_analysis` executes a benchmark once with the
:mod:`repro.shadow.engine` workspace and distils the collected
per-variable statistics into a :class:`SensitivityReport` — the
artifact behind ``mixpbench sensitivity``, the ``--order shadow``
guided-search ordering and the ``shadow-stats`` experiment table.

The analysis is a pure in-process function of the benchmark (inputs
are the same deterministic set every trial uses), so it is trivially
identical across serial/thread/process executors — nothing here ever
routes through :mod:`repro.core.batch`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.benchmarks.base import Benchmark, collect_output
from repro.core.types import PrecisionConfig
from repro.shadow.engine import ShadowArray, ShadowContext, ShadowWorkspace
from repro.shadow.order import ShadowOrder
from repro.verify.metrics import _relative_divergence_core

__all__ = [
    "VariableSensitivity", "SensitivityReport", "run_shadow_analysis",
    "shadow_guidance",
]

#: default shadow precisions: fp32 always; fp16 is opt-in (it
#: saturates on most benchmarks, which is informative for the half
#: extension studies but noise for fp32-targeted search guidance).
DEFAULT_PRECISIONS = ("single",)


def _enc(value: float | int | None):
    """JSON-safe float encoding: inf/nan become strings."""
    if value is None or isinstance(value, int):
        return value
    if math.isfinite(value):
        return float(value)
    return repr(float(value))


def _dec(value):
    if isinstance(value, str):
        return float(value)
    return value


@dataclass(frozen=True)
class VariableSensitivity:
    """Attribution record for one (variable, shadow precision) pair."""

    uid: str
    precision: str
    #: rounding introduced by storing the declared fp64 values at the
    #: shadow precision (divergence at declaration time)
    storage_error: float
    #: worst divergence over every operation the variable tainted
    max_divergence: float
    #: 1-based index of the first operation (or declaration) at which
    #: any divergence appeared; None if the shadow stayed exact
    first_divergence_op: int | None
    #: sum of positive (d_out - d_in) deltas — error *created* by
    #: operations this variable participated in, the accumulator signal
    amplification: float
    #: worst divergence observed at a verification sink
    sink_divergence: float
    #: number of propagated operations the variable tainted
    ops: int

    @property
    def score(self) -> float:
        """Joint sensitivity: how badly things went in the run this
        variable participated in.  Sink divergence is what verification
        sees; max divergence catches error that later cancels; storage
        error floors both.  In a single shadow run every replica is
        lowered at once, so this saturates to the shared worst
        divergence for every variable touching the same operations —
        use :attr:`marginal` when variables must be *discriminated*."""
        return max(self.storage_error, self.max_divergence, self.sink_divergence)

    @property
    def marginal(self) -> float:
        """Per-variable sensitivity that survives the joint-run
        confounding: the rounding the variable's own stored values
        incur, grown by the error its operations manufactured.  A
        dyadic coefficient table has marginal 0 even when the run as a
        whole diverges badly.  This is the signal behind guided-search
        ordering and the predict-and-verify recommendation."""
        return self.storage_error * (1.0 + self.amplification)

    def to_json_dict(self) -> dict:
        return {
            "uid": self.uid,
            "precision": self.precision,
            "storage_error": _enc(self.storage_error),
            "max_divergence": _enc(self.max_divergence),
            "first_divergence_op": self.first_divergence_op,
            "amplification": _enc(self.amplification),
            "sink_divergence": _enc(self.sink_divergence),
            "ops": self.ops,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "VariableSensitivity":
        return cls(
            uid=payload["uid"],
            precision=payload["precision"],
            storage_error=_dec(payload["storage_error"]),
            max_divergence=_dec(payload["max_divergence"]),
            first_divergence_op=payload["first_divergence_op"],
            amplification=_dec(payload["amplification"]),
            sink_divergence=_dec(payload["sink_divergence"]),
            ops=payload["ops"],
        )


@dataclass(frozen=True)
class SensitivityReport:
    """Everything one shadow execution learned about a program."""

    program: str
    metric: str
    precisions: tuple[str, ...]
    #: total propagated operations (declarations + compute)
    op_count: int
    #: sorted by (uid, precision) — deterministic regardless of
    #: accumulation order
    variables: tuple[VariableSensitivity, ...] = field(default_factory=tuple)
    #: per shadow precision: the program's quality metric measured on
    #: the uniformly-lowered shadow output — the "predicted error" of
    #: lowering everything to that precision
    predicted_error: dict = field(default_factory=dict)
    #: mean |reference output|, the scale that maps relative
    #: divergences into absolute-metric units for prediction
    output_scale: float = 0.0

    def for_precision(self, precision: str) -> tuple[VariableSensitivity, ...]:
        return tuple(v for v in self.variables if v.precision == precision)

    def variable_scores(self, precision: str = "single") -> dict[str, float]:
        """Joint per-variable scores (see VariableSensitivity.score)."""
        return {v.uid: v.score for v in self.for_precision(precision)}

    def marginal_scores(self, precision: str = "single") -> dict[str, float]:
        """Discriminating per-variable scores (``marginal``) — what
        guided search and the recommender rank by."""
        return {v.uid: v.marginal for v in self.for_precision(precision)}

    def ordering(self, precision: str = "single") -> ShadowOrder:
        """Sensitivity-derived location ordering for guided search.

        Ranks by the *marginal* signal: the joint score saturates to
        the run's shared worst divergence and would collapse the
        ordering back to name order."""
        return ShadowOrder(
            program=self.program,
            precision=precision,
            scores=self.marginal_scores(precision),
            predicted_error=self.predicted_error.get(precision),
        )

    def summary(self, precision: str = "single", top: int = 5) -> dict:
        """Compact JSON-safe digest for ``SearchOutcome.metadata``;
        ``top`` lists the highest-marginal variables, matching the
        guided-search ordering."""
        ranked = sorted(
            self.for_precision(precision),
            key=lambda v: (-min(v.marginal, 1e308), v.uid),
        )
        return {
            "program": self.program,
            "precision": precision,
            "variables": len(ranked),
            "ops": self.op_count,
            "predicted_error": _enc(self.predicted_error.get(precision)),
            "top": [[v.uid, _enc(v.marginal)] for v in ranked[:top]],
        }

    def to_json_dict(self) -> dict:
        return {
            "program": self.program,
            "metric": self.metric,
            "precisions": list(self.precisions),
            "op_count": self.op_count,
            "variables": [v.to_json_dict() for v in self.variables],
            "predicted_error": {k: _enc(v) for k, v in sorted(self.predicted_error.items())},
            "output_scale": _enc(self.output_scale),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SensitivityReport":
        return cls(
            program=payload["program"],
            metric=payload["metric"],
            precisions=tuple(payload["precisions"]),
            op_count=payload["op_count"],
            variables=tuple(
                VariableSensitivity.from_json_dict(v) for v in payload["variables"]
            ),
            predicted_error={k: _dec(v) for k, v in payload["predicted_error"].items()},
            output_scale=_dec(payload["output_scale"]),
        )

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "SensitivityReport":
        return cls.from_json_dict(json.loads(Path(path).read_text()))

    def render(self, precision: str | None = None) -> str:
        """Human-readable table, most sensitive variable first."""
        from repro.harness.reporting import format_table

        precisions = (precision,) if precision else self.precisions
        rows = []
        for p in precisions:
            for v in sorted(
                self.for_precision(p), key=lambda v: (-min(v.marginal, 1e308), v.uid)
            ):
                rows.append([
                    v.uid, p, f"{v.marginal:.3e}", f"{v.score:.3e}",
                    f"{v.storage_error:.3e}",
                    f"{v.max_divergence:.3e}", f"{v.sink_divergence:.3e}",
                    f"{v.amplification:.3e}",
                    v.first_divergence_op if v.first_divergence_op is not None else "-",
                    v.ops,
                ])
        headers = (
            "Variable", "Shadow", "Marginal", "Joint", "Storage", "MaxDiv",
            "SinkDiv", "Amplif", "FirstOp", "Ops",
        )
        predicted = ", ".join(
            f"{p}={self.predicted_error.get(p, float('nan')):.3e}" for p in precisions
        )
        title = (
            f"Shadow sensitivity for {self.program} "
            f"({self.op_count} ops; predicted {self.metric} {predicted})"
        )
        return format_table(headers, rows, title)


def shadow_guidance(benchmark: Benchmark) -> tuple[ShadowOrder, dict]:
    """One shadow run distilled into evaluator guidance: the
    ``(location_order, shadow_info)`` pair CLI/harness/scheduler hand
    to :class:`~repro.core.evaluator.ConfigurationEvaluator`."""
    report = run_shadow_analysis(benchmark)
    return report.ordering(), report.summary()


def run_shadow_analysis(
    benchmark: Benchmark,
    include_half: bool = False,
    precisions: tuple[str, ...] | None = None,
    replicas: tuple[str, ...] = (),
) -> SensitivityReport:
    """Execute ``benchmark`` once in shadow mode and attribute error.

    The fp64 reference path of the run is bit-identical to a normal
    instrumented execution (same inputs, same seed, same RNG replay
    stream); only the bookkeeping differs.

    ``replicas`` appends extra shadow precisions — typically emulated
    formats such as ``e8m10`` (see docs/precision-formats.md) — to the
    default set, letting one run attribute error at custom mantissa
    widths alongside fp32.
    """
    if precisions is None:
        precisions = ("single", "half") if include_half else DEFAULT_PRECISIONS
    for extra in replicas:
        if extra not in precisions:
            precisions = tuple(precisions) + (extra,)
    ctx = ShadowContext(precisions)
    report = benchmark.report()
    ws = ShadowWorkspace(
        PrecisionConfig(),
        name_map=report.name_map,
        seed=benchmark.seed,
        rng_cache=benchmark._shared_state()["rng"],
        shadow_context=ctx,
    )
    raw = benchmark.entry_point()(ws, **benchmark.inputs())
    ref_output = collect_output(raw)
    output_scale = float(np.mean(np.abs(ref_output))) if ref_output.size else 0.0

    # Verification sinks: every returned part, compared at each shadow
    # precision, both per-variable (sink divergence attribution) and
    # whole-output (the predicted quality-metric value for the
    # uniformly-lowered program).
    parts = raw if isinstance(raw, tuple) else (raw,)
    predicted: dict[str, float] = {}
    quality = benchmark.quality
    for k, precision in enumerate(ctx.precisions):
        shadow_parts = []
        for part in parts:
            if isinstance(part, ShadowArray):
                ctx.observe_sink(part._taint, part._data, part._shadows[k], k)
                shadow_parts.append(
                    np.asarray(part._shadows[k], dtype=np.float64).ravel()
                )
            else:
                shadow_parts.append(
                    np.asarray(np.asarray(part), dtype=np.float64).ravel()
                )
        shadow_output = (
            np.concatenate(shadow_parts) if len(shadow_parts) > 1 else shadow_parts[0]
        )
        predicted[precision] = quality.measure(ref_output, shadow_output)

    variables = []
    for uid in sorted(ctx.stats):
        table = ctx.stats[uid]
        for k, precision in enumerate(ctx.precisions):
            st = table[k]
            variables.append(VariableSensitivity(
                uid=uid,
                precision=precision,
                storage_error=st.storage_error,
                max_divergence=st.max_divergence,
                first_divergence_op=st.first_divergence_op,
                amplification=st.amplification,
                sink_divergence=st.sink_divergence,
                ops=st.ops,
            ))
    return SensitivityReport(
        program=benchmark.name,
        metric=benchmark.metric,
        precisions=ctx.precisions,
        op_count=ctx.op_index,
        variables=tuple(variables),
        predicted_error=predicted,
        output_scale=output_scale,
    )
