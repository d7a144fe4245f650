"""Shadow-value execution engine.

One instrumented run, three precisions: every workspace-declared
variable carries lower-precision *shadow replicas* (fp32 always, fp16
when enabled) that are propagated through every recorded operation
alongside the fp64 reference.  After the run, the
:class:`ShadowContext` holds per-variable error attribution — how far
each variable's shadow values diverged from the reference, where the
divergence first appeared, and how much each operation amplified it —
which :mod:`repro.shadow.report` turns into a
:class:`~repro.shadow.report.SensitivityReport`.

This is the repo's analogue of the dynamic shadow-value analysis the
paper's CRAFT layer offers next to black-box search: error knowledge
from *one* run instead of one trial per question.

Semantics and approximations
----------------------------

* The fp64 reference path is **bit-identical** to a normal
  instrumented run: the same data buffers, the same ufunc calls in the
  same order (the exactness test in ``tests/test_shadow.py`` pins
  this).  Shadows are computed *after* the reference result, never
  feeding back into it.
* Control flow (branches, index selection, loop trip counts) follows
  the reference values — the standard limitation of shadow-value
  analysis.  Shadow *condition* arrays are still propagated through
  ``np.where`` so data-dependent selection divergence is observed.
* Taint is tracked per wrapper: a value's taint is the set of declared
  variable uids whose storage participated in producing it.  Writing
  through an aliased view updates the view's taint, not its parents' —
  benchmarks in this suite write through the declared array itself.
* All shadow arithmetic runs under ``np.errstate(all="ignore")``: fp16
  replicas overflow and divide by zero readily, and that *is* the
  signal (an infinite divergence), not a warning.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import CustomFormat, parse_precision
from repro.runtime import mparray as _mparray
from repro.runtime.memory import Workspace
from repro.runtime.mparray import (
    DIRECT_OPERATOR_NAMES, MPArray, _is_basic_index, _unwrap_tree, unwrap,
)
from repro.runtime.quantize import QuantSpec, quantize_array, quantize_scalar
from repro.verify.metrics import _relative_divergence_core

__all__ = ["ShadowContext", "ShadowArray", "ShadowWorkspace", "VariableStats"]


class VariableStats:
    """Mutable per-(variable, precision) attribution accumulators."""

    __slots__ = (
        "storage_error", "max_divergence", "first_divergence_op",
        "amplification", "ops", "sink_divergence",
    )

    def __init__(self) -> None:
        self.storage_error = 0.0
        self.max_divergence = 0.0
        self.first_divergence_op: int | None = None
        self.amplification = 0.0
        self.ops = 0
        self.sink_divergence = 0.0


class ShadowContext:
    """Shared state of one shadow execution.

    Holds the enabled shadow precisions, the running operation counter
    (the x-axis of "first divergence"), and the per-variable
    :class:`VariableStats` tables.
    """

    def __init__(self, precisions: tuple[str, ...] = ("single",)) -> None:
        if not precisions:
            raise ValueError("shadow execution needs at least one precision")
        self.precisions = tuple(precisions)
        formats = tuple(parse_precision(p) for p in self.precisions)
        for fmt in formats:
            if isinstance(fmt, CustomFormat) and fmt.stochastic:
                raise ValueError(
                    f"shadow replicas cannot use stochastic rounding "
                    f"({fmt.name}): replica values are intermediate, not "
                    "per-variable stores, so the seeded replay stream is "
                    "undefined; use the nearest-rounded format instead"
                )
        self.formats = formats
        self.dtypes = tuple(fmt.dtype for fmt in formats)
        # Emulated-width replicas quantise every propagated value
        # (VPREC-style round-after-every-op); None slots are the exact
        # hardware dtypes and skip the pass entirely.
        self._qspecs = tuple(
            QuantSpec(fmt, 0, f"shadow:{fmt.name}")
            if isinstance(fmt, CustomFormat) and fmt.shift > 0
            else None
            for fmt in formats
        )
        self.has_custom = any(spec is not None for spec in self._qspecs)
        self.n = len(self.dtypes)
        self.op_index = 0
        #: uid -> one VariableStats per enabled precision
        self.stats: dict[str, tuple[VariableStats, ...]] = {}
        self._zero_divs = (0.0,) * self.n

    def stats_for(self, uid: str) -> tuple[VariableStats, ...]:
        table = self.stats.get(uid)
        if table is None:
            table = self.stats[uid] = tuple(VariableStats() for _ in range(self.n))
        return table

    # -- event sinks -------------------------------------------------------
    def declare(
        self,
        uid: str,
        data: np.ndarray,
        shadows: tuple[np.ndarray, ...],
        carried_divs: tuple[float, ...] | None,
        known_divs: tuple[float, ...] | None = None,
    ) -> tuple[float, ...]:
        """Record a workspace declaration; returns the new wrapper's
        per-precision divergence levels.

        With ``carried_divs`` (the declaration copies an existing
        shadow value) the measured divergence is accumulated
        propagation error, so it does not count as *storage* error —
        that field only records the rounding a fresh fp64→shadow cast
        introduces.

        ``known_divs`` asserts the divergence of ``(data, shadows)``
        is already known bit-exactly — the declaration is a same-dtype
        copy (or aliases) of a wrapper whose ``_divs`` were produced by
        this very metric on these very values — so the measurement is
        skipped instead of recomputed.
        """
        self.op_index += 1
        op = self.op_index
        table = self.stats_for(uid)
        divs = []
        for k in range(self.n):
            if known_divs is not None:
                d = known_divs[k]
            else:
                d = _relative_divergence_core(data, shadows[k])
            st = table[k]
            if carried_divs is None:
                if d > st.storage_error:
                    st.storage_error = d
            if d > st.max_divergence:
                st.max_divergence = d
            if d > 0.0 and st.first_divergence_op is None:
                st.first_divergence_op = op
            divs.append(d)
        return tuple(divs)

    def observe(
        self,
        taint: frozenset,
        ref: np.ndarray,
        shadows: list,
        in_divs: tuple[float, ...],
    ) -> tuple[float, ...]:
        """Record one propagated operation with a floating result.

        ``shadows[k] is None`` marks a degraded slot (the shadow
        re-execution failed); its divergence level is carried forward
        unchanged.  The *amplification* credited to each tainting
        variable is the positive part of ``d_out - d_in`` — error this
        operation created beyond what its operands already carried,
        which is what singles accumulators out.
        """
        self.op_index += 1
        op = self.op_index
        n = self.n
        stats = self.stats
        if n == 1:
            # The default configuration: one fp32 replica.  Hoisting
            # the per-precision indexing out of the taint loop matters
            # because attribution is O(ops × tainting variables) —
            # the widest loop in a shadow run.
            s = shadows[0]
            in_d = in_divs[0]
            d = in_d if s is None else _relative_divergence_core(ref, s)
            diverged = d > 0.0
            delta = d - in_d if d > in_d else 0.0  # inf > inf is False
            for uid in taint:
                table = stats.get(uid)
                if table is None:
                    table = stats[uid] = (VariableStats(),)
                st = table[0]
                st.ops += 1
                if d > st.max_divergence:
                    st.max_divergence = d
                if diverged and st.first_divergence_op is None:
                    st.first_divergence_op = op
                if delta:
                    st.amplification += delta
            return (d,)
        divs = tuple(
            in_divs[k] if shadows[k] is None
            else _relative_divergence_core(ref, shadows[k])
            for k in range(n)
        )
        for uid in taint:
            table = stats.get(uid)
            if table is None:
                table = stats[uid] = tuple(VariableStats() for _ in range(n))
            for k in range(n):
                st = table[k]
                st.ops += 1
                d = divs[k]
                if d > st.max_divergence:
                    st.max_divergence = d
                if d > 0.0 and st.first_divergence_op is None:
                    st.first_divergence_op = op
                if d > in_divs[k]:  # inf > inf is False: no nan deltas
                    st.amplification += d - in_divs[k]
        return divs

    def observe_sink(self, taint: frozenset, ref: np.ndarray, shadow, k: int) -> None:
        """Record a value reaching a verification sink (program output)."""
        d = _relative_divergence_core(ref, shadow)
        for uid in taint:
            st = self.stats_for(uid)[k]
            if d > st.sink_divergence:
                st.sink_divergence = d

    # -- shadow-side evaluation helpers ------------------------------------
    def shadow_operand(self, value, k: int):
        """Operand ``value`` as the shadow program at precision ``k``
        sees it: shadow replicas for wrapped arrays, demoted copies for
        stray floating arrays/NumPy scalars (the whole program runs at
        the shadow precision), everything else unchanged (Python floats
        are weak under NEP-50 and already adopt the shadow dtype)."""
        if isinstance(value, ShadowArray):
            return value._shadows[k]
        if isinstance(value, MPArray):
            value = value._data
        dtype = self.dtypes[k]
        if isinstance(value, np.ndarray):
            if value.dtype.kind == "f" and value.dtype != dtype:
                return value.astype(dtype)
            return value
        if isinstance(value, np.floating):
            return dtype.type(value)
        return value

    def shadow_tree(self, obj, k: int):
        """:func:`shadow_operand` applied through tuple/list/dict trees
        (the ``__array_function__`` argument shapes)."""
        if isinstance(obj, tuple):
            return tuple(self.shadow_tree(x, k) for x in obj)
        if isinstance(obj, list):
            return [self.shadow_tree(x, k) for x in obj]
        if isinstance(obj, dict):
            return {key: self.shadow_tree(v, k) for key, v in obj.items()}
        return self.shadow_operand(obj, k)

    def cast_back(self, result, k: int):
        """Clamp a shadow result back to the shadow dtype.  Mixed
        integer/float promotion can widen past it; in the modeled
        all-at-precision-p program every intermediate is stored at p.
        Emulated-width replicas additionally round the stored mantissa
        here, so every operation's result passes through the format —
        the same store-side rounding the interpreted emulated path
        applies."""
        dtype = self.dtypes[k]
        if isinstance(result, np.ndarray):
            if result.dtype.kind == "f" and result.dtype.itemsize > dtype.itemsize:
                result = result.astype(dtype)
            if self._qspecs[k] is not None:
                return self.quantize(result, k)
            return result
        if isinstance(result, np.floating):
            if result.dtype.itemsize > dtype.itemsize:
                result = dtype.type(result)
            if self._qspecs[k] is not None:
                return self.quantize(result, k)
            return result
        return result

    def quantize(self, value, k: int):
        """Round a shadow value to replica ``k``'s emulated mantissa
        width (no-op for exact replicas).  Rounding is idempotent, so
        requantising an aliased, already-rounded buffer in place is
        safe; read-only views (broadcast results) are copied first."""
        spec = self._qspecs[k]
        if spec is None:
            return value
        if isinstance(value, np.ndarray):
            if value.dtype == self.dtypes[k]:
                if not value.flags.writeable:
                    value = value.copy()
                quantize_array(value, spec)
            return value
        if isinstance(value, np.floating) and value.dtype == self.dtypes[k]:
            return quantize_scalar(value, spec)
        return value


def _taint_and_divs(ctx: ShadowContext, inputs) -> tuple[frozenset, tuple[float, ...]]:
    """Union taint and per-precision max divergence over the wrapped
    operands of one operation.

    The single-wrapped-operand case (every unary op, plus binary ops
    against constants) returns the operand's own frozenset/tuple —
    both immutable, so sharing them with the result wrapper is safe
    and skips two allocations on the hottest path in shadow mode.
    """
    taint = None
    divs = None
    for x in inputs:
        if isinstance(x, ShadowArray):
            if taint is None:
                taint = x._taint
                divs = x._divs
            else:
                xt = x._taint
                if xt is not taint:
                    taint = taint | xt
                xd = x._divs
                if xd is not divs and xd != divs:
                    divs = tuple(max(a, b) for a, b in zip(divs, xd))
    if taint is None:
        return frozenset(), ctx._zero_divs
    return taint, divs


def _tree_taint_and_divs(ctx: ShadowContext, obj, taint, divs):
    if isinstance(obj, ShadowArray):
        return taint | obj._taint, tuple(max(a, b) for a, b in zip(divs, obj._divs))
    if isinstance(obj, (tuple, list)):
        for x in obj:
            taint, divs = _tree_taint_and_divs(ctx, x, taint, divs)
    elif isinstance(obj, dict):
        for x in obj.values():
            taint, divs = _tree_taint_and_divs(ctx, x, taint, divs)
    return taint, divs


def _shadow_new(ctx, data, profile, shadows, taint, divs, divs_exact=False):
    arr = ShadowArray.__new__(ShadowArray)
    arr._data = data
    arr._profile = profile
    arr._ctx = ctx
    arr._shadows = shadows
    arr._taint = taint
    arr._divs = divs
    arr._divs_exact = divs_exact
    return arr


class ShadowArray(MPArray):
    """An :class:`MPArray` that additionally carries one lower-precision
    replica of its data per enabled shadow precision.

    Recording (profile counters) is inherited unchanged; every
    operation additionally re-executes on the shadow replicas and
    reports the resulting divergence to the :class:`ShadowContext`.
    Unlike the base class, 0-d floating results stay wrapped so scalar
    accumulators (``q += x[i]*y[i]`` chains built via ``ws.scalar``)
    keep their lineage.
    """

    #: ``_divs_exact`` marks wrappers whose ``_divs`` are a fresh
    #: measurement of exactly the held ``(_data, _shadows)`` buffers —
    #: as opposed to a carried/merged upper bound (slices, ``out=``
    #: targets, degraded slots).  Declarations that copy such a wrapper
    #: at the same dtypes reuse the numbers instead of remeasuring.
    __slots__ = ("_ctx", "_shadows", "_taint", "_divs", "_divs_exact")

    def __init__(self, data, profile, ctx, shadows, taint=frozenset(), divs=None):
        super().__init__(data, profile)
        self._ctx = ctx
        self._shadows = tuple(shadows)
        self._taint = frozenset(taint)
        self._divs = tuple(divs) if divs is not None else ctx._zero_divs
        self._divs_exact = False

    def __repr__(self) -> str:
        return f"ShadowArray({self._data!r}, taint={sorted(self._taint)})"

    @property
    def shadows(self) -> tuple[np.ndarray, ...]:
        return self._shadows

    @property
    def taint(self) -> frozenset:
        return self._taint

    # -- ufunc dispatch ----------------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        ctx = self._ctx
        out = kwargs.get("out")
        raw_out = None
        if out is not None:
            raw_out = tuple(unwrap(o) for o in out)  # NumPy always passes a tuple
            kwargs = dict(kwargs)
            kwargs["out"] = raw_out
        raw_inputs = tuple(x._data if isinstance(x, MPArray) else x for x in inputs)
        fn = ufunc if method == "__call__" else getattr(ufunc, method)
        result = fn(*raw_inputs, **kwargs) if kwargs else fn(*raw_inputs)
        self._record_ufunc(ufunc, method, raw_inputs, result)

        taint, in_divs = _taint_and_divs(ctx, inputs)
        shadows: list = []
        with np.errstate(all="ignore"):
            for k in range(ctx.n):
                try:
                    s_inputs = tuple(ctx.shadow_operand(x, k) for x in inputs)
                    s_kwargs = {}
                    if kwargs:
                        s_kwargs = {
                            key: ctx.shadow_tree(v, k) for key, v in kwargs.items()
                            if key != "out"
                        }
                    s = ctx.cast_back(fn(*s_inputs, **s_kwargs), k)
                except Exception:
                    s = None
                shadows.append(s)
        return self._finish(ufunc, method, inputs, result, taint, in_divs,
                            shadows, out, raw_out)

    def _finish(self, ufunc, method, inputs, result, taint, in_divs, shadows,
                out=None, raw_out=None):
        ctx = self._ctx
        profile = self._profile
        if isinstance(result, tuple):
            # Multi-output ufuncs (divmod, frexp) don't occur in the
            # suite; degrade to untracked base wrapping.
            return tuple(_mparray.wrap(part, profile) for part in result)
        if isinstance(result, np.ndarray):
            is_float = result.dtype.kind == "f"
            if result.ndim == 0 and not is_float:
                return result[()]
            fixed = []
            for k in range(ctx.n):
                s = shadows[k]
                if (
                    s is None
                    or not isinstance(s, (np.ndarray, np.generic))
                    or np.shape(s) != result.shape
                ):
                    # Degraded slot: keep shapes aligned by adopting
                    # the reference values (at shadow precision when
                    # floating — always a fresh buffer, never an alias
                    # of the reference data) and carrying the
                    # divergence level forward unchanged.
                    with np.errstate(all="ignore"):
                        s = result.astype(ctx.dtypes[k]) if is_float else result.copy()
                    if is_float:
                        shadows[k] = None
                    fixed.append(s)
                else:
                    fixed.append(np.asarray(s))
            if is_float:
                divs = ctx.observe(taint, result, shadows, in_divs)
                exact = not any(s is None for s in shadows)
            else:
                divs = in_divs
                exact = False
            if out is not None and raw_out is not None:
                target = out[0]
                if isinstance(target, ShadowArray):
                    with np.errstate(all="ignore"):
                        for k in range(ctx.n):
                            np.copyto(
                                target._shadows[k], fixed[k], casting="unsafe"
                            )
                    target._taint = target._taint | taint
                    target._divs = divs
                    # copyto may re-round to the target's dtype, so the
                    # measured numbers no longer describe its buffers.
                    target._divs_exact = False
                    return target
            return _shadow_new(ctx, result, profile, tuple(fixed), taint, divs, exact)
        if isinstance(result, np.generic):
            # np scalar result (reductions over 0-d etc.): keep lineage
            # for floats via a 0-d wrapper.
            if result.dtype.kind == "f":
                data = np.asarray(result)
                fixed = []
                for k in range(ctx.n):
                    s = shadows[k]
                    with np.errstate(all="ignore"):
                        if s is None or np.shape(s) != ():
                            fixed.append(np.asarray(data, dtype=ctx.dtypes[k]))
                            shadows[k] = None
                        else:
                            fixed.append(np.asarray(s))
                divs = ctx.observe(taint, data, shadows, in_divs)
                exact = not any(s is None for s in shadows)
                return _shadow_new(ctx, data, self._profile, tuple(fixed), taint, divs, exact)
            return result
        return result

    # -- non-ufunc NumPy functions -----------------------------------------
    def __array_function__(self, func, types, args, kwargs):
        ctx = self._ctx
        raw_args = _unwrap_tree(args)
        raw_kwargs = _unwrap_tree(kwargs) if kwargs else kwargs
        result = func(*raw_args, **raw_kwargs)
        profile = self._profile
        handler = _mparray._FUNCTION_HANDLERS.get(func, _mparray._record_generic)
        handler(profile, raw_args, result)

        taint, in_divs = _tree_taint_and_divs(ctx, (args, kwargs), frozenset(), ctx._zero_divs)
        shadows: list = []
        with np.errstate(all="ignore"):
            for k in range(ctx.n):
                try:
                    s_args = ctx.shadow_tree(args, k)
                    s_kwargs = ctx.shadow_tree(kwargs, k) if kwargs else kwargs
                    s = ctx.cast_back(func(*s_args, **s_kwargs), k)
                except Exception:
                    s = None
                shadows.append(s)
        return self._finish(func, None, args, result, taint, in_divs, shadows)

    # -- indexing ----------------------------------------------------------
    def __getitem__(self, key):
        ctx = self._ctx
        raw_key = _unwrap_tree(key)
        data = self._data
        result = data[raw_key]
        if not _is_basic_index(raw_key):
            n = result.size if isinstance(result, np.ndarray) else 1
            nbytes = result.nbytes if isinstance(result, np.ndarray) else data.dtype.itemsize
            self._profile.record_gather(float(n), float(nbytes))
        # Shadows are indexed with the *reference* key: shadow-derived
        # fancy indices could select a different number of elements and
        # desynchronise shapes between the two programs.
        if isinstance(result, np.ndarray):
            shadows = tuple(s[raw_key] for s in self._shadows)
            return _shadow_new(ctx, result, self._profile, shadows, self._taint, self._divs)
        if isinstance(result, np.generic) and result.dtype.kind == "f":
            data0 = np.asarray(result)
            shadows = tuple(np.asarray(s[raw_key]) for s in self._shadows)
            return _shadow_new(ctx, data0, self._profile, shadows, self._taint, self._divs)
        return result

    def __setitem__(self, key, value):
        ctx = self._ctx
        # Base-class store: writes the reference data and records the
        # MOVE/gather exactly like a normal run (looked up at call time,
        # so the test suite's reference oracle applies here too).
        MPArray.__setitem__(self, key, value)
        raw_key = _unwrap_tree(key)
        self._divs_exact = False
        with np.errstate(all="ignore"):
            if isinstance(value, ShadowArray):
                for k in range(ctx.n):
                    self._shadows[k][raw_key] = value._shadows[k]
                self._taint = self._taint | value._taint
                self._divs = tuple(max(a, b) for a, b in zip(self._divs, value._divs))
            else:
                raw_value = unwrap(value)
                for k in range(ctx.n):
                    self._shadows[k][raw_key] = raw_value

    # -- shape/dtype helpers ------------------------------------------------
    def _derive(self, data, shadows):
        return _shadow_new(self._ctx, data, self._profile, tuple(shadows),
                           self._taint, self._divs)

    def reshape(self, *shape):
        return self._derive(self._data.reshape(*shape),
                            (s.reshape(*shape) for s in self._shadows))

    def ravel(self):
        return self._derive(self._data.ravel(), (s.ravel() for s in self._shadows))

    def transpose(self, *axes):
        return self._derive(self._data.transpose(*axes),
                            (s.transpose(*axes) for s in self._shadows))

    @property
    def T(self):
        return self._derive(self._data.T, (s.T for s in self._shadows))

    def astype(self, dtype):
        dtype = np.dtype(dtype)
        base = MPArray.astype(self, dtype)  # records the cast + move
        with np.errstate(all="ignore"):
            return self._derive(base._data, (s.copy() for s in self._shadows))

    def copy(self):
        base = MPArray.copy(self)  # records the move
        return self._derive(base._data, (s.copy() for s in self._shadows))

    def fill(self, value):
        MPArray.fill(self, value)
        self._divs_exact = False
        raw = unwrap(value)
        with np.errstate(all="ignore"):
            if isinstance(value, ShadowArray):
                for k, s in enumerate(self._shadows):
                    s.fill(value._shadows[k][()] if value._shadows[k].ndim == 0
                           else value._shadows[k])
                self._taint = self._taint | value._taint
            else:
                for s in self._shadows:
                    s.fill(raw)


# The module bottom of repro.runtime.mparray rebinds the arithmetic
# operators to direct-dispatch closures that construct plain MPArray
# results (skipping __array_ufunc__ entirely).  ShadowArray must see
# every operation, so it restores the NDArrayOperatorsMixin versions,
# which route back through the ufunc protocol — and therefore through
# ShadowArray.__array_ufunc__ — for exactly those names.
for _name in DIRECT_OPERATOR_NAMES:
    setattr(ShadowArray, _name, getattr(np.lib.mixins.NDArrayOperatorsMixin, _name))
del _name


class ShadowWorkspace(Workspace):
    """A :class:`Workspace` whose declarations produce
    :class:`ShadowArray` values bound to one :class:`ShadowContext`.

    Always runs the all-double baseline configuration: the reference
    path is fp64, the shadow replicas model the uniformly-lowered
    program.  The init-copy elision of the base class is deliberately
    not replicated — a shadow run happens once per analysis, and the
    elision's refcount thresholds are fixed constants that hold only
    for the frame layout of the base class's ``array``.
    """

    def __init__(self, *args, shadow_context: ShadowContext, **kwargs):
        super().__init__(*args, **kwargs)
        self.shadow = shadow_context

    def _declare(self, uid, data, shadows, taint, carried_divs, known_divs=None):
        ctx = self.shadow
        if ctx.has_custom:
            # Declarations are stores: round each replica buffer to its
            # emulated width before divergence is measured.  Idempotent,
            # so aliased already-rounded buffers (param, same-dtype
            # scalar views) pass through unchanged.
            shadows = tuple(ctx.quantize(s, k) for k, s in enumerate(shadows))
        divs = ctx.declare(uid, data, shadows, carried_divs, known_divs)
        # Exact by construction: either just measured on these buffers,
        # or known_divs carried an equally exact measurement over.
        return _shadow_new(ctx, data, self.profile, shadows, taint, divs, True)

    def array(self, name, shape=None, init=None, fill=None):
        ctx = self.shadow
        dtype = self.dtype_of(name)
        uid = self.resolve(name)
        if (shape is None) == (init is None):
            raise ValueError("provide exactly one of shape= or init=")
        taint = frozenset((uid,))
        carried_divs = None
        init_shadows = None
        if init is not None:
            if isinstance(init, ShadowArray):
                taint = taint | init._taint
                carried_divs = init._divs
                init_shadows = init._shadows
                data = init._data.astype(dtype)
            else:
                data = np.asarray(unwrap(init)).astype(dtype)
        elif fill is not None:
            data = np.full(shape, fill, dtype=dtype)
        else:
            data = np.zeros(shape, dtype=dtype)
        shadows = []
        with np.errstate(all="ignore"):
            for k, sdt in enumerate(ctx.dtypes):
                if init_shadows is not None:
                    src = init_shadows[k]
                    shadows.append(src.astype(sdt) if src.dtype != sdt else src.copy())
                else:
                    shadows.append(data.astype(sdt))
        known_divs = None
        if (
            init_shadows is not None
            and init._divs_exact
            and init._data.dtype == dtype
            and all(s.dtype == sdt for s, sdt in zip(init_shadows, ctx.dtypes))
        ):
            # Same-dtype copies: the divergence of (data, shadows) is
            # bit-identical to the source wrapper's, so skip remeasuring.
            known_divs = init._divs
        arr = self._declare(uid, data, tuple(shadows), taint, carried_divs, known_divs)
        previous = self._arrays.get(name)
        if previous is not None:
            self.profile.track_free(previous.nbytes)
        self._arrays[name] = arr
        self.profile.track_alloc(data.nbytes)
        return arr

    def scalar(self, name, value):
        ctx = self.shadow
        dtype = self.dtype_of(name)
        uid = self.resolve(name)
        taint = frozenset((uid,))
        carried_divs = None
        known_divs = None
        with np.errstate(all="ignore"):
            if isinstance(value, ShadowArray):
                taint = taint | value._taint
                carried_divs = value._divs
                data = np.asarray(value._data, dtype=dtype)
                shadows = tuple(
                    np.asarray(s, dtype=sdt) for s, sdt in zip(value._shadows, ctx.dtypes)
                )
                if (
                    value._divs_exact
                    and value._data.dtype == dtype
                    and all(s.dtype == sdt for s, sdt in zip(value._shadows, ctx.dtypes))
                ):
                    # np.asarray at the same dtype aliases, so the
                    # measurement would be of the identical values.
                    known_divs = value._divs
            else:
                data = np.asarray(dtype.type(unwrap(value)))
                shadows = tuple(np.asarray(data, dtype=sdt) for sdt in ctx.dtypes)
        return self._declare(uid, data, shadows, taint, carried_divs, known_divs)

    def param(self, name, value):
        ctx = self.shadow
        dtype = self.dtype_of(name)
        uid = self.resolve(name)
        if isinstance(value, ShadowArray):
            if value.dtype != dtype:
                return super().param(name, value)  # raises the base error
            return self._declare(
                uid, value._data, value._shadows,
                value._taint | frozenset((uid,)), value._divs,
                value._divs if value._divs_exact else None,
            )
        if isinstance(value, MPArray):
            return super().param(name, value)
        return self.scalar(name, value)
