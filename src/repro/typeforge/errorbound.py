"""Static first-order rounding-error bounds over MPB dataflow facts.

The search strategies in :mod:`repro.search` pay a full instrumented
trial to learn that a candidate configuration was hopeless.  This
module prices configurations *statically*: a single analysis of the
scanned program produces, for every variable, an **amplification
factor** — how strongly one unit of rounding error introduced at that
variable's stores can show up at the verified output — and the
resulting per-sink worst-case error bound is a symbolic function of
each location's unit roundoff.  One model therefore prices every
configuration in the space, including the whole emulated ``e8m*`` /
``e11m*`` width ladder, for free.

The model is the classic first-order one: every store into a variable
held at precision ``p`` introduces at most ``u(p) = 2**-(m+1)``
relative error; that error is carried along the forward value-flow
edges of :func:`repro.typeforge.dataflow.analyze_dataflow` and
multiplied by per-site weights on the way:

* a reduction/accumulation store (the MPB203 pattern) contributes once
  per loop iteration, so it multiplies by the trip count ``N`` — exact
  when a recorded :class:`~repro.runtime.profiler.Profile` bounds the
  iteration count, the symbolic default :data:`DEFAULT_TRIP_COUNT`
  otherwise;
* a store fed by a subtraction (the MPB204 cancellation pattern)
  multiplies by :data:`CANCELLATION_FACTOR`, the stand-in for the
  unbounded relative blow-up cancellation can cause.

Amplifications are propagated sink-to-source with a finalize-once
max-product traversal, so feedback cycles contribute their weight once
instead of diverging, and saturate at :data:`AMPLIFICATION_CAP`.

Static amplifications alone are unitless and wildly conservative.
:func:`calibrate_bound` anchors them against one measured shadow run
(:mod:`repro.shadow.report`): each statically output-reachable
variable receives the share of the *measured* uniform-fp32 error that
its shadow marginal accounts for, and a :class:`CertifiedBound` then
prices a configuration in metric units.  The certified *lower* bound
divides that estimate by a safety factor (default
:data:`DEFAULT_SAFETY`) so model bias can only make screening less
aggressive, never unsound:

* **soundness contract** — ``lower(config) > threshold`` is the only
  statement screening acts on, and it may only *skip* a configuration
  (treat it as failing), never accept one.  A configuration whose
  bound is below the threshold is evaluated normally.  With screening
  disabled, behaviour is byte-identical; with it enabled, a search
  reaches the same verified error while spending fewer trials.

The MPB3xx lint rules rendered by ``mixpbench lint`` come from the
same model: see :data:`BOUND_RULES`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.typeforge.astscan import FunctionScan, ModuleScan, Slot
from repro.typeforge.dataflow import DataflowResult, analyze_dataflow
from repro.typeforge.dependence import DependenceResult

__all__ = [
    "BOUND_RULES",
    "CANCELLATION_FACTOR",
    "DEFAULT_SAFETY",
    "DEFAULT_TRIP_COUNT",
    "CertifiedBound",
    "ErrorBoundModel",
    "SiteAmplification",
    "analyze_error_bounds",
    "calibrate_bound",
    "certify_benchmark",
]

#: MPB3xx — error-bound findings surfaced through ``mixpbench lint``
BOUND_RULES = {
    "MPB301": "site dominates the certified error bound",
    "MPB302": "reduction trip count is not trace-bounded",
    "MPB303": "bound blow-up through cancellation",
}

#: symbolic trip count assumed for reductions when no recorded trace
#: bounds the real iteration count
DEFAULT_TRIP_COUNT = 1024

#: first-order stand-in for the relative blow-up of a cancellation-fed
#: store (subtraction of close operands has unbounded condition number;
#: a fixed factor keeps the bound finite and the ordering meaningful)
CANCELLATION_FACTOR = 8.0

#: amplification saturation value — feedback cycles stop here
AMPLIFICATION_CAP = 2.0 ** 40

#: MPB303 fires when a cancellation site amplifies by at least this
BLOWUP_THRESHOLD = 64.0

#: divisor between the calibrated error estimate and the *certified*
#: lower bound used for screening.  Probing the suite showed the
#: proportional-share model overestimating single-variable errors by
#: up to ~60x (hpccg's ``vals``); 128 keeps a 2x margin beyond the
#: worst observed bias, so rejects stay sound in practice while tight
#: thresholds and narrow emulated widths still screen usefully.
DEFAULT_SAFETY = 128.0

#: reference unit roundoff — fp32, the calibration precision; the
#: certified bound scales a measured fp32 anchor by u(p)/U_REF
U_REF = 2.0 ** -24


def _excess_roundoff(precision) -> float:
    """Unit roundoff of ``precision`` in excess of the fp64 reference
    the quality metrics compare against (so an all-double configuration
    prices to exactly zero)."""
    from repro.core.types import Precision, unit_roundoff

    return max(0.0, unit_roundoff(precision) - unit_roundoff(Precision.DOUBLE))


@dataclass(frozen=True)
class SiteAmplification:
    """One source site the bound model attributes amplification to."""

    rule: str               # "MPB301" | "MPB302" | "MPB303"
    message: str
    function: str
    module: str
    file: str | None = None
    line: int = 0
    col: int = 0
    names: tuple[str, ...] = ()   # variable uids involved
    factor: float = 1.0           # amplification contributed by the site

    def location(self) -> str:
        base = self.file or self.module
        return f"{base}:{self.line}:{self.col}"


@dataclass
class ErrorBoundModel:
    """The static half of the certifier: per-variable amplifications.

    ``terms`` maps a variable uid to its amplification factor ``A``;
    the first-order output error bound of a configuration is
    ``sum(A[uid] * u(precision_of(uid)))`` in relative units.
    """

    entry: str | None
    trip_count: int
    #: True when ``trip_count`` came from a recorded trace (profile)
    #: rather than the symbolic default
    trip_bounded: bool
    terms: dict[str, float] = field(default_factory=dict)
    sites: tuple[SiteAmplification, ...] = ()

    def amplification(self, uid: str) -> float:
        """Amplification factor of one variable (0 when the variable
        provably cannot influence the verified output)."""
        return self.terms.get(uid, 0.0)

    def bound(self, config) -> float:
        """First-order relative error bound of a configuration.

        Prices every location at its assigned precision; locations
        without a term (output-irrelevant) contribute nothing, and the
        fp64 default contributes zero by construction.
        """
        total = 0.0
        for uid, amplification in self.terms.items():
            total += amplification * _excess_roundoff(config.precision_of(uid))
        return total

    def dominating(self) -> tuple[str, float] | None:
        """The (uid, amplification) pair that dominates the bound."""
        if not self.terms:
            return None
        uid = max(self.terms, key=lambda u: (self.terms[u], u))
        return uid, self.terms[uid]

    def summary(self) -> dict:
        dom = self.dominating()
        return {
            "entry": self.entry,
            "trip_count": self.trip_count,
            "trip_bounded": self.trip_bounded,
            "terms": len(self.terms),
            "dominating": list(dom) if dom else None,
            "sites": {
                rule: sum(1 for s in self.sites if s.rule == rule)
                for rule in sorted(BOUND_RULES)
            },
        }

    def to_json_dict(self) -> dict:
        return {
            "entry": self.entry,
            "trip_count": self.trip_count,
            "trip_bounded": self.trip_bounded,
            "terms": {uid: self.terms[uid] for uid in sorted(self.terms)},
            "sites": [
                {
                    "rule": s.rule, "message": s.message,
                    "function": s.function, "module": s.module,
                    "file": s.file, "line": s.line, "col": s.col,
                    "names": list(s.names), "factor": s.factor,
                }
                for s in self.sites
            ],
        }


def _profile_trip_bound(profile) -> int | None:
    """A trace-derived upper bound on any reduction trip count: every
    loop iteration performs at least one recorded element-operation, so
    the total recorded count bounds every loop's trips."""
    if profile is None:
        return None
    try:
        total = sum(profile.ops.values())
    except AttributeError:
        return None
    if not total or not math.isfinite(total):
        return None
    return max(1, int(total))


def analyze_error_bounds(
    scans: Iterable[ModuleScan],
    entry: str | None = None,
    *,
    dependence: DependenceResult | None = None,
    dataflow: DataflowResult | None = None,
    profile=None,
    trip_count: int | None = None,
) -> ErrorBoundModel:
    """Build the static error-bound model for scanned modules.

    ``trip_count`` (or a recorded ``profile``) bounds the reduction
    loop factor exactly; without either the symbolic
    :data:`DEFAULT_TRIP_COUNT` is assumed and every reduction site is
    flagged MPB302.
    """
    scans = list(scans)
    if dataflow is None:
        dataflow = analyze_dataflow(scans, entry=entry, dependence=dependence)
    dependence = dataflow.dependence

    functions: dict[str, FunctionScan] = {}
    for scan in scans:
        functions.update(scan.functions)

    bounded = True
    if trip_count is None:
        trip_count = _profile_trip_bound(profile)
        if trip_count is None:
            trip_count = DEFAULT_TRIP_COUNT
            bounded = False
    trips = max(1, int(trip_count))

    # -- per-slot store-site weights --------------------------------------
    # A slot's weight is the amplification one store into it applies to
    # the incoming error: xN for accumulation stores, xC for stores fed
    # by a subtraction.  Both factors are idempotent per slot (nested
    # repeats of the same pattern are not distinguishable statically).
    reduction_sites: dict[Slot, tuple[FunctionScan, int, int]] = {}
    cancel_sites: dict[Slot, tuple[FunctionScan, int, int]] = {}
    for fn in functions.values():
        sub_lines = {binop.line for binop in fn.binops if binop.op == "-"}
        for flow in fn.flows:
            for target in flow.targets:
                slot = Slot(fn.name, target)
                is_reduction = (
                    flow.in_loop
                    and len(flow.targets) == 1
                    and (flow.augmented or target in flow.sources)
                )
                if is_reduction and slot not in reduction_sites:
                    reduction_sites[slot] = (fn, flow.line, flow.col)
                if flow.line in sub_lines and slot not in cancel_sites:
                    cancel_sites[slot] = (fn, flow.line, flow.col)

    def weight_into(slot: Slot) -> float:
        weight = 1.0
        if slot in reduction_sites:
            weight *= trips
        if slot in cancel_sites:
            weight *= CANCELLATION_FACTOR
        return weight

    # -- sink-to-source max-product propagation ---------------------------
    # downstream[s] = largest product of store weights along a value
    # path from s to a sink (1 at the sinks themselves).  Finalize-once
    # keeps feedback cycles from multiplying their own weight forever:
    # each slot contributes once per path, and everything saturates at
    # AMPLIFICATION_CAP.
    reverse: dict[Slot, list[Slot]] = {}
    for source, targets in dataflow.edges.items():
        for target in targets:
            reverse.setdefault(target, []).append(source)

    downstream: dict[Slot, float] = {}
    # Heap entries carry (function, name) instead of the Slot itself so
    # tie-breaking stays deterministic and comparable.
    heap: list[tuple[float, str, str]] = [
        (-1.0, sink.function, sink.name) for sink in dataflow.sinks
    ]
    heapq.heapify(heap)
    while heap:
        negative, fn_name, var_name = heapq.heappop(heap)
        slot = Slot(fn_name, var_name)
        if slot in downstream:
            continue
        factor = -negative
        downstream[slot] = factor
        amplified = min(AMPLIFICATION_CAP, weight_into(slot) * factor)
        for predecessor in reverse.get(slot, ()):
            if predecessor not in downstream:
                heapq.heappush(
                    heap, (-amplified, predecessor.function, predecessor.name)
                )

    # -- per-variable terms ----------------------------------------------
    # The rounding error of a variable is introduced at its own stores,
    # so its amplification is its slot's own store weight times the
    # best downstream chain from there.
    terms: dict[str, float] = {}
    for uid, slot in dependence.slot_of_variable.items():
        factor = downstream.get(slot, 0.0)
        if factor <= 0.0:
            continue
        terms[uid] = min(AMPLIFICATION_CAP, weight_into(slot) * factor)

    uid_of_slot = {slot: uid for uid, slot in dependence.slot_of_variable.items()}

    # -- findings ---------------------------------------------------------
    sites: list[SiteAmplification] = []

    def site_factor(slot: Slot) -> float:
        return min(AMPLIFICATION_CAP, weight_into(slot) * downstream.get(slot, 0.0))

    def slot_order(item):
        slot = item[0]
        return (slot.function, slot.name)

    if not bounded:
        for slot, (fn, line, col) in sorted(reduction_sites.items(), key=slot_order):
            if downstream.get(slot, 0.0) <= 0.0:
                continue  # cannot reach the output; prices to nothing
            uid = uid_of_slot.get(slot)
            sites.append(SiteAmplification(
                rule="MPB302",
                message=(
                    f"reduction into {slot.name!r} has no trace-bounded trip "
                    f"count; the bound assumes N={trips} iterations "
                    "(record a trace to tighten it)"
                ),
                function=fn.name, module=fn.module, file=fn.path,
                line=line, col=col,
                names=(uid,) if uid else (),
                factor=float(trips),
            ))

    for slot, (fn, line, col) in sorted(cancel_sites.items(), key=slot_order):
        factor = site_factor(slot)
        if factor < BLOWUP_THRESHOLD:
            continue
        uid = uid_of_slot.get(slot)
        sites.append(SiteAmplification(
            rule="MPB303",
            message=(
                f"cancellation feeding {slot.name!r} blows the error bound "
                f"up by x{factor:g}; operands close in magnitude make the "
                "true amplification unbounded"
            ),
            function=fn.name, module=fn.module, file=fn.path,
            line=line, col=col,
            names=(uid,) if uid else (),
            factor=factor,
        ))

    dom = max(terms, key=lambda u: (terms[u], u)) if terms else None
    if dom is not None:
        slot = dependence.slot_of_variable[dom]
        fn = functions.get(slot.function)
        declarations = {
            decl.slot: decl
            for f in functions.values()
            for decl in f.declarations
        }
        decl = declarations.get(slot)
        sites.append(SiteAmplification(
            rule="MPB301",
            message=(
                f"{dom!r} dominates the certified error bound "
                f"(amplification x{terms[dom]:g}); its width decides "
                "whether a configuration can be screened"
            ),
            function=slot.function,
            module=fn.module if fn else "",
            file=fn.path if fn else None,
            line=getattr(decl, "line", 0),
            col=getattr(decl, "col", 0),
            names=(dom,),
            factor=terms[dom],
        ))

    sites.sort(key=lambda s: (s.file or s.module, s.line, s.col, s.rule))
    return ErrorBoundModel(
        entry=dataflow.entry,
        trip_count=trips,
        trip_bounded=bounded,
        terms=terms,
        sites=tuple(sites),
    )


@dataclass(frozen=True)
class CertifiedBound:
    """A calibrated, screen-ready error bound for one program.

    ``weights`` carries, per variable uid, the share of the measured
    anchor error (the shadow run's uniform-fp32 quality metric) the
    variable accounts for — in *metric units at fp32*.  A
    configuration's predicted error scales each weight by
    ``u(p)/u(fp32)``; the certified lower bound divides the total by
    ``safety``.  Empty weights (no measured anchor, or a metric that
    stayed exact) make the certificate inert: it never rejects.
    """

    program: str
    weights: Mapping[str, float] = field(default_factory=dict)
    #: measured anchor: the shadow run's uniform-fp32 metric value
    anchor: float = 0.0
    safety: float = DEFAULT_SAFETY
    precision: str = "single"

    def predict(self, config) -> float:
        """Best-estimate error of a configuration in metric units."""
        total = 0.0
        for uid, weight in self.weights.items():
            total += weight * (_excess_roundoff(config.precision_of(uid)) / U_REF)
        return total

    def lower(self, config) -> float:
        """The certified lower bound screening compares to the
        threshold (the prediction discounted by the safety factor)."""
        return self.predict(config) / self.safety

    def rejects(self, config, threshold: float) -> bool:
        """True when the certificate proves the configuration cannot
        verify at ``threshold`` — the one statement screening acts on."""
        if threshold < 0 or not math.isfinite(threshold):
            return False
        lowered = self.lower(config)
        return math.isfinite(lowered) and lowered > threshold

    def seed_weight(self, uids: Iterable[str]) -> float:
        """Combined fp32-anchored weight of a location's member
        variables — what BW's width seeding solves against."""
        return sum(self.weights.get(uid, 0.0) for uid in uids)

    def info(self) -> dict:
        """Compact provenance for ``SearchOutcome.metadata``."""
        ranked = sorted(self.weights, key=lambda u: (-self.weights[u], u))
        return {
            "program": self.program,
            "precision": self.precision,
            "safety": self.safety,
            "anchor": self.anchor if math.isfinite(self.anchor) else repr(self.anchor),
            "terms": len(self.weights),
            "top": [[uid, self.weights[uid]] for uid in ranked[:5]],
        }

    def to_json_dict(self) -> dict:
        return {
            "program": self.program,
            "precision": self.precision,
            "safety": self.safety,
            "anchor": self.anchor if math.isfinite(self.anchor) else repr(self.anchor),
            "weights": {uid: self.weights[uid] for uid in sorted(self.weights)},
        }


def calibrate_bound(
    model: ErrorBoundModel,
    report,
    precision: str = "single",
    safety: float = DEFAULT_SAFETY,
) -> CertifiedBound:
    """Anchor a static model against one measured shadow run.

    ``report`` is a :class:`~repro.shadow.report.SensitivityReport`.
    Each variable with a nonzero static amplification receives the
    share of the measured uniform-``precision`` error that its shadow
    marginal accounts for.  Dropping statically-irrelevant variables
    and normalising by the *full* marginal mass can only lower the
    bound — both keep the certificate on the sound side.
    """
    marginals = report.marginal_scores(precision)
    total = sum(v for v in marginals.values() if math.isfinite(v) and v > 0)
    anchor = report.predicted_error.get(precision)
    if anchor is None or not math.isfinite(anchor) or anchor <= 0 or total <= 0:
        return CertifiedBound(
            program=report.program, weights={}, anchor=float(anchor or 0.0),
            safety=safety, precision=precision,
        )
    weights = {
        uid: (value / total) * anchor
        for uid, value in sorted(marginals.items())
        if math.isfinite(value) and value > 0 and model.amplification(uid) > 0
    }
    return CertifiedBound(
        program=report.program, weights=weights, anchor=float(anchor),
        safety=safety, precision=precision,
    )


def certify_benchmark(
    benchmark,
    safety: float = DEFAULT_SAFETY,
    trip_count: int | None = None,
) -> tuple[ErrorBoundModel, CertifiedBound]:
    """Static model + calibrated certificate for one benchmark.

    This is the ``(model, certificate)`` pair behind ``mixpbench
    certify`` and the ``--screen`` search flag.  It calibrates against
    the process's shared shadow report
    (:func:`repro.shadow.report.shared_sensitivity`), the same one
    ``--order shadow`` reads, so the two together cost one shadow run
    per program per process.
    """
    from repro.shadow.report import shared_sensitivity

    report = benchmark.report()
    model = analyze_error_bounds(
        report.scans,
        entry=report.entry,
        dependence=report.dependence,
        trip_count=trip_count,
    )
    sensitivity = shared_sensitivity(benchmark)
    certificate = calibrate_bound(model, sensitivity, safety=safety)
    return model, certificate
