"""Instrumented NumPy arrays for mixed-precision benchmarks.

:class:`MPArray` wraps an ``ndarray`` and records every operation that
touches it into a :class:`~repro.runtime.profiler.Profile`:

* ufuncs (element-wise math, reductions, accumulations) via
  ``__array_ufunc__`` — element counts, memory traffic and implicit
  promotion casts;
* non-ufunc NumPy functions (``np.dot``, ``np.where``, reductions) via
  ``__array_function__``;
* indexed *gather* reads and *scatter* writes via ``__getitem__`` /
  ``__setitem__`` — these model the latency-bound indirect accesses of
  sparse and unstructured codes.

Because the wrapper subclasses ``NDArrayOperatorsMixin``, ordinary
arithmetic on wrapped arrays routes through the instrumentation, and
NumPy's NEP-50 promotion rules reproduce C's behaviour: a ``float64``
scalar (a C ``double`` variable or literal) promotes a ``float32``
array expression to double — *with a recorded cast* — while writing a
double expression into a ``float32`` array truncates, exactly like a C
assignment.

Fast path
---------

Recording runs once per NumPy call of every trial of every search, so
it is engineered not to dominate trial wall-clock.  Classifying an
operation (op class, compute dtype name, which inputs promote) depends
only on its *signature* — ``(ufunc, method, input dtypes, result
dtype)`` — so the classification runs once per unique signature and is
cached in a recipe table; per call only the data-dependent quantities
(element counts, byte traffic) are gathered.  ``dtype.name`` string
formatting, the other pre-optimisation hot spot, is cached per dtype.

There is one recording path and no mode switch.  The readable,
uncached reference recorder lives in the test suite
(``tests/oracle.py``), which patches it in to prove that this path
produces identical profiles and outputs.
"""

from __future__ import annotations

import sys
from typing import Any, Callable

import numpy as np

from repro.runtime.profiler import OpClass, Profile, opclass_for_ufunc
from repro.runtime.quantize import (
    quantize_array as _quantize_array,
    quantize_scalar as _quantize_scalar,
)

__all__ = [
    "MPArray", "QuantizedMPArray", "unwrap", "wrap", "DIRECT_OPERATOR_NAMES",
]

_FLOAT64 = np.dtype(np.float64)

#: dtype -> dtype.name; the ``.name`` property re-derives the string on
#: every access, which profiling shows at ~15 us per 1000 calls.
_DTYPE_NAMES: dict[np.dtype, str] = {}


def _dtype_name(dtype: np.dtype) -> str:
    try:
        return _DTYPE_NAMES[dtype]
    except KeyError:
        name = _DTYPE_NAMES[dtype] = dtype.name
        return name


#: (op class, dtype) -> interned (op class, dtype name) bucket key for
#: the paths that record without a signature recipe: basic-index
#: stores and the ``__array_function__`` handlers
_OP_KEYS: dict[tuple[OpClass, np.dtype], tuple[OpClass, str]] = {}


def _op_key(opclass: OpClass, dtype: np.dtype) -> tuple[OpClass, str]:
    try:
        return _OP_KEYS[opclass, dtype]
    except KeyError:
        key = _OP_KEYS[opclass, dtype] = (opclass, _dtype_name(dtype))
        return key


# Element-count formulas per ufunc call shape; which one applies is a
# pure function of (ufunc, method), resolved once per signature.
_MODE_CALL, _MODE_REDUCE, _MODE_MATMUL, _MODE_OUTER, _MODE_AT = range(5)

#: (ufunc, method, result dtype, per-input dtype-or-None...) ->
#: ((opclass, compute dtype name), cast slots into the *raw* input
#: tuple, element-count mode, raw slot of the first array input or
#: -1).  Benchmarks reuse a handful of signatures millions of times,
#: so this table turns per-call classification into one dict probe.
#:
#: Concurrency: a read (``_RECIPES[key]``) and a miss's store
#: (``_RECIPES[key] = recipe``) are each a single dict operation, atomic
#: under the GIL, and a recipe is a pure function of its key, so a
#: racing double-build stores the same value; no lock is needed.  The
#: key holds no shapes, so the table stays small: the whole suite at
#: six precisions plus its shadow runs fills well under a hundred
#: entries.
_RECIPES: dict[tuple, tuple] = {}


def _build_ufunc_recipe(ufunc, method, result_dtype, input_dtypes):
    """Classify one operation signature exactly as the reference
    recorder does, returning the reusable recipe."""
    array_slots = [
        (slot, dt) for slot, dt in enumerate(input_dtypes) if dt is not None
    ]
    cast_slots: tuple[int, ...] = ()
    if result_dtype.kind == "f":
        # Promotion casts: floating inputs narrower/wider than the
        # compute dtype are converted element-by-element, like C.
        cast_slots = tuple(
            slot for slot, dt in array_slots
            if dt.kind == "f" and dt != result_dtype
        )
    opclass = opclass_for_ufunc(ufunc.__name__, result_dtype.kind)
    compute_dtype = _dtype_name(result_dtype)
    if result_dtype.kind == "b" and array_slots:
        # Comparisons compute at the input precision even though the
        # result is boolean.
        widest = max(
            (dt for _slot, dt in array_slots if dt.kind == "f"),
            key=lambda dt: dt.itemsize,
            default=None,
        )
        if widest is not None:
            compute_dtype = _dtype_name(widest)
            opclass = OpClass.CHEAP
    if ufunc.__name__ in ("matmul", "vecdot"):
        # flops for matmul: 2 · (result elements) · (contraction length)
        mode = _MODE_MATMUL
    elif method in ("reduce", "accumulate", "reduceat"):
        mode = _MODE_REDUCE
    elif method == "outer":
        mode = _MODE_OUTER
    elif method == "at":
        mode = _MODE_AT
    else:  # __call__
        mode = _MODE_CALL
    first_array = array_slots[0][0] if array_slots else -1
    return (opclass, compute_dtype), cast_slots, mode, first_array


def unwrap(value: Any) -> Any:
    """Strip the MPArray wrapper, if present."""
    return value._data if isinstance(value, MPArray) else value


def wrap(value: Any, profile: Profile) -> Any:
    """Wrap ndarray results; pass scalars and 0-d results through as
    plain NumPy scalars (scalar work is negligible in the model).  Every
    dispatch path (ufuncs, operators, NumPy functions, indexing) hands
    its array results back through here, except basic indexing, which
    builds its views inline (see ``MPArray.__getitem__``)."""
    if isinstance(value, np.ndarray):
        if value.ndim:
            wrapped = _MP_NEW(MPArray)
            wrapped._data = value
            wrapped._profile = profile
            return wrapped
        return value[()]
    return value


def _is_basic_index(key: Any) -> bool:
    """True for indexing that NumPy resolves to a view (no gather)."""
    kind = type(key)
    if kind is slice or kind is int:  # the overwhelmingly common cases
        return True
    if kind is tuple or isinstance(key, tuple):
        return all(_is_basic_index(part) for part in key)
    return key is None or key is Ellipsis or isinstance(key, (int, np.integer, slice))


def _index_size(data: np.ndarray, key: Any) -> int:
    """Element count selected by a (possibly fancy) index, cheaply."""
    key = unwrap(key)
    if isinstance(key, np.ndarray):
        if key.dtype == bool:
            return int(np.count_nonzero(key))
        return int(key.size)
    if isinstance(key, (list, tuple)) and not _is_basic_index(key):
        try:
            return int(np.asarray(key).size)
        except Exception:
            return 1
    return 1


class MPArray(np.lib.mixins.NDArrayOperatorsMixin):
    """A profiled view over an ``ndarray``.

    All arrays derived from an :class:`MPArray` (results of arithmetic,
    slices, copies) share its profile, so an entire benchmark execution
    accumulates into a single operation log.
    """

    __slots__ = ("_data", "_profile")

    def __init__(self, data: np.ndarray, profile: Profile) -> None:
        if not isinstance(data, np.ndarray):
            raise TypeError(f"MPArray wraps ndarrays, got {type(data).__name__}")
        self._data = data
        self._profile = profile

    # -- plain attributes ---------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The underlying ndarray (un-instrumented access)."""
        return self._data

    @property
    def profile(self) -> Profile:
        return self._profile

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    @property
    def T(self) -> "MPArray":
        return MPArray(self._data.T, self._profile)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return f"MPArray({self._data!r})"

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    def __bool__(self) -> bool:
        if self._data.size == 1:
            return bool(self._data.item())
        return bool(self._data)  # raises the usual ambiguity error

    def __float__(self) -> float:
        return float(self._data.item())

    def __int__(self) -> int:
        return int(self._data.item())

    def item(self) -> Any:
        return self._data.item()

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if dtype is None:
            # ``np.array(x)`` asks for a copy; ``np.asarray(x)`` does not
            # and stays zero-copy.
            return self._data.copy() if copy else self._data
        return self._data.astype(dtype)

    # -- ufunc dispatch -------------------------------------------------------
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # Arity-specialised unwrap: one- and two-input calls cover every
        # hot op, and unpacking them directly skips a generator.
        if len(inputs) == 2:
            x0, x1 = inputs
            raw_inputs = (
                x0._data if isinstance(x0, MPArray) else x0,
                x1._data if isinstance(x1, MPArray) else x1,
            )
        elif len(inputs) == 1:
            x0 = inputs[0]
            raw_inputs = (x0._data if isinstance(x0, MPArray) else x0,)
        else:
            raw_inputs = tuple(
                x._data if isinstance(x, MPArray) else x for x in inputs
            )
        outs = kwargs.get("out", ())  # NumPy always hands ``out=`` over as a tuple
        if outs:
            kwargs["out"] = tuple(o._data if isinstance(o, MPArray) else o for o in outs)
        if method == "__call__":
            result = ufunc(*raw_inputs, **kwargs)
        else:
            result = getattr(ufunc, method)(*raw_inputs, **kwargs)
        self._record_ufunc(ufunc, method, raw_inputs, result)
        if method == "at":
            outs = inputs[:1]  # ufunc.at mutates its first operand in place
        # ``out=`` writes into variable storage directly (this is also
        # how the operator mixin implements ``+=`` etc.); any
        # emulated-format target must re-round what was written.
        for target in outs:
            if isinstance(target, QuantizedMPArray):
                target._quantize_storage()

        profile = self._profile
        if isinstance(result, tuple):
            return tuple(wrap(part, profile) for part in result)
        # Hand back the caller's own wrapper (the mixin's in-place
        # operators rebind their target to this return value, and a
        # QuantizedMPArray must stay quantised through ``x += y``).
        for target in outs:
            if isinstance(target, MPArray) and target._data is result:
                return target
        return wrap(result, profile)

    def _record_ufunc(self, ufunc, method: str, raw_inputs: tuple, result: Any) -> None:
        """Signature-cached recording: classification runs once per
        signature (see :func:`_build_ufunc_recipe`); per call only the
        element counts and byte traffic are gathered."""
        if method == "at":
            # ufunc.at returns None; the target it mutated holds the
            # result, at the target's dtype.
            primary = raw_inputs[0]
        elif isinstance(result, tuple):
            primary = result[0]
        else:
            primary = result
        if isinstance(primary, np.ndarray):
            result_dtype = primary.dtype
            result_size = primary.size
            bytes_written = float(primary.nbytes)
        elif isinstance(primary, np.generic):
            result_dtype = primary.dtype
            result_size = 1
            bytes_written = float(result_dtype.itemsize)
        else:
            result_dtype = _FLOAT64
            result_size = 1
            bytes_written = 8.0

        # Arity-specialised signature assembly: one- and two-input calls
        # cover every hot op, and building their key tuples directly
        # skips a per-call list build.
        n_in = len(raw_inputs)
        if n_in == 2:
            x0, x1 = raw_inputs
            if isinstance(x0, np.ndarray):
                d0 = x0.dtype
                bytes_read = float(x0.nbytes)
                max_input = x0.size
            else:
                d0 = None
                bytes_read = 0.0
                max_input = 1
            if isinstance(x1, np.ndarray):
                d1 = x1.dtype
                bytes_read += x1.nbytes
                if x1.size > max_input:
                    max_input = x1.size
            else:
                d1 = None
            key = (ufunc, method, result_dtype, d0, d1)
        elif n_in == 1:
            x0 = raw_inputs[0]
            if isinstance(x0, np.ndarray):
                key = (ufunc, method, result_dtype, x0.dtype)
                bytes_read = float(x0.nbytes)
                max_input = x0.size
            else:
                key = (ufunc, method, result_dtype, None)
                bytes_read = 0.0
                max_input = 1
        else:
            sig: list = [ufunc, method, result_dtype]
            bytes_read = 0.0
            max_input = 1
            for x in raw_inputs:
                if isinstance(x, np.ndarray):
                    sig.append(x.dtype)
                    bytes_read += x.nbytes
                    if x.size > max_input:
                        max_input = x.size
                else:
                    sig.append(None)
            key = tuple(sig)
        try:
            opkey, cast_slots, mode, first_array = _RECIPES[key]
        except KeyError:
            recipe = _RECIPES[key] = _build_ufunc_recipe(
                ufunc, method, result_dtype, key[3:]
            )
            opkey, cast_slots, mode, first_array = recipe

        if mode == _MODE_CALL:
            n = float(result_size if result_size > max_input else max_input)
        elif mode == _MODE_REDUCE:
            n = float(max_input)
        elif mode == _MODE_MATMUL:
            contraction = raw_inputs[first_array].shape[-1] if first_array >= 0 else 1
            n = 2.0 * max(result_size, 1) * contraction
        elif mode == _MODE_OUTER:
            n = float(result_size)
        else:  # _MODE_AT: only the indexed elements are written
            n = float(
                _index_size(raw_inputs[first_array], raw_inputs[1])
                if n_in > 1 and first_array >= 0 else max_input
            )
            bytes_written = n * result_dtype.itemsize

        casts = 0.0
        for slot in cast_slots:
            casts += raw_inputs[slot].size
        self._profile.record_op_keyed(opkey, n, bytes_read, bytes_written, casts)

    # -- non-ufunc NumPy functions ---------------------------------------------
    def __array_function__(self, func, types, args, kwargs):
        raw_args = _unwrap_tree(args)
        raw_kwargs = _unwrap_tree(kwargs) if kwargs else kwargs
        result = func(*raw_args, **raw_kwargs)
        profile = self._profile
        handler = _FUNCTION_HANDLERS.get(func, _record_generic)
        handler(profile, raw_args, result)
        # Arrays and NumPy scalars (np.dot of two vectors, reductions)
        # skip the container walk (ablation ledger, docs/runtime.md).
        if isinstance(result, np.ndarray):
            return wrap(result, profile)
        if isinstance(result, np.generic):
            return result
        return _wrap_tree(result, profile)

    # -- indexing ---------------------------------------------------------------
    def _getitem_reference(self, key: Any) -> Any:
        raw_key = _unwrap_tree(key)
        result = self._data[raw_key]
        if not _is_basic_index(raw_key):
            n = result.size if isinstance(result, np.ndarray) else 1
            nbytes = result.nbytes if isinstance(result, np.ndarray) else self.dtype.itemsize
            self._profile.record_gather(float(n), float(nbytes))
        return wrap(result, self._profile)

    def __getitem__(self, key: Any) -> Any:
        """Basic (view) indexing records nothing, so it can skip key
        unwrapping and result classification entirely.  It builds its
        result inline rather than through :func:`wrap`, which measures
        on innerprod (ablation ledger, docs/runtime.md)."""
        if _is_basic_index(key):
            result = self._data[key]
            if isinstance(result, np.ndarray):
                if result.ndim:
                    wrapped = _MP_NEW(MPArray)
                    wrapped._data = result
                    wrapped._profile = self._profile
                    return wrapped
                return result[()]
            return result
        return self._getitem_reference(key)

    def _setitem_reference(self, key: Any, value: Any) -> None:
        raw_key = _unwrap_tree(key)
        raw_value = unwrap(value)
        basic = _is_basic_index(raw_key)
        if basic:
            target = self._data[raw_key]
            n = target.size if isinstance(target, np.ndarray) else 1
        else:
            n = _index_size(self._data, raw_key)
        value_dtype = getattr(raw_value, "dtype", None)
        casts = 0.0
        if value_dtype is not None and value_dtype.kind == "f" and value_dtype != self.dtype:
            value_size = getattr(raw_value, "size", 1)
            casts = float(min(value_size, n))
        self._data[raw_key] = raw_value
        if basic:
            self._profile.record_op(
                OpClass.MOVE, self.dtype.name, float(n),
                bytes_written=float(n) * self.dtype.itemsize, casts=casts,
            )
        else:
            self._profile.record_gather(float(n), float(n) * self.dtype.itemsize)
            if casts:
                self._profile.record_cast(casts)

    def __setitem__(self, key: Any, value: Any) -> None:
        """Basic-index stores with the MOVE bucket key cached per dtype."""
        if not _is_basic_index(key):
            self._setitem_reference(key, value)
            return
        data = self._data
        raw_value = value._data if isinstance(value, MPArray) else value
        target = data[key]
        n = target.size if isinstance(target, np.ndarray) else 1
        dtype = data.dtype
        value_dtype = getattr(raw_value, "dtype", None)
        casts = 0.0
        if value_dtype is not None and value_dtype.kind == "f" and value_dtype != dtype:
            value_size = getattr(raw_value, "size", 1)
            casts = float(min(value_size, n))
        data[key] = raw_value
        self._profile.record_op_keyed(
            _op_key(OpClass.MOVE, dtype), float(n), 0.0, float(n) * dtype.itemsize, casts,
        )

    # -- shape/dtype helpers -----------------------------------------------------
    def reshape(self, *shape) -> "MPArray":
        return MPArray(self._data.reshape(*shape), self._profile)

    def ravel(self) -> "MPArray":
        return MPArray(self._data.ravel(), self._profile)

    def transpose(self, *axes) -> "MPArray":
        return MPArray(self._data.transpose(*axes), self._profile)

    def astype(self, dtype) -> "MPArray":
        dtype = np.dtype(dtype)
        if dtype != self.dtype:
            self._profile.record_cast(float(self.size))
        self._profile.record_op(
            OpClass.MOVE, dtype.name, float(self.size),
            bytes_read=float(self.nbytes), bytes_written=float(self.size * dtype.itemsize),
        )
        return MPArray(self._data.astype(dtype), self._profile)

    def copy(self) -> "MPArray":
        self._profile.record_op(
            OpClass.MOVE, self.dtype.name, float(self.size),
            bytes_read=float(self.nbytes), bytes_written=float(self.nbytes),
        )
        return MPArray(self._data.copy(), self._profile)

    def fill(self, value: Any) -> None:
        self._data.fill(unwrap(value))
        self._profile.record_op(
            OpClass.MOVE, self.dtype.name, float(self.size),
            bytes_written=float(self.nbytes),
        )

    # -- reductions as methods ------------------------------------------------
    def sum(self, *args, **kwargs):
        return np.sum(self, *args, **kwargs)

    def mean(self, *args, **kwargs):
        return np.mean(self, *args, **kwargs)

    def min(self, *args, **kwargs):
        return np.min(self, *args, **kwargs)

    def max(self, *args, **kwargs):
        return np.max(self, *args, **kwargs)

    def dot(self, other):
        return np.dot(self, other)

    def argmin(self, *args, **kwargs):
        return np.argmin(self, *args, **kwargs)

    def argmax(self, *args, **kwargs):
        return np.argmax(self, *args, **kwargs)


# ---------------------------------------------------------------------------
# __array_function__ plumbing


#: bound ``MPArray.__new__``: :func:`wrap` and basic indexing build
#: results with two slot stores instead of a ``type.__call__`` ->
#: ``__init__`` round trip (the isinstance guard in ``__init__`` is for
#: external callers; both sites have already checked for an ndarray).
_MP_NEW = MPArray.__new__


class QuantizedMPArray(MPArray):
    """Variable storage held in an emulated
    :class:`~repro.core.types.CustomFormat`: every store re-rounds the
    written region to the format's mantissa width (see
    :mod:`repro.runtime.quantize`).

    Only the *storage* of a declared variable is quantised — expression
    temporaries run at the storage dtype's full width, matching the
    compute model of hardware with narrow memory formats and wide
    registers.  Every store site (``__setitem__``, ``fill``, ``out=``,
    ``ufunc.at``, mutating ``__array_function__`` calls) re-rounds.

    Views of quantised storage (slices, reshapes, transposes) are
    promoted back to :class:`QuantizedMPArray` so stores through them
    keep rounding; gathered copies and arithmetic results are plain
    :class:`MPArray`.
    """

    __slots__ = ("_qspec",)

    def _quantize_storage(self) -> None:
        """Re-round the whole backing buffer.  Idempotent for elements
        that were not just written: their mantissa tail is already zero,
        so nearest rounding is a no-op and stochastic rounding never
        rounds up (the round-up probability is ``tail / 2**s``)."""
        _quantize_array(self._data, self._qspec)

    def _requantize_key(self, key: Any) -> None:
        raw_key = _unwrap_tree(key)
        data = self._data
        if _is_basic_index(raw_key):
            target = data[raw_key]
            if isinstance(target, np.ndarray):
                _quantize_array(target, self._qspec)
            else:
                data[raw_key] = _quantize_scalar(target, self._qspec)
        else:
            gathered = data[raw_key]
            if isinstance(gathered, np.ndarray):
                _quantize_array(gathered, self._qspec)
                data[raw_key] = gathered
            else:
                data[raw_key] = _quantize_scalar(gathered, self._qspec)

    # ``MPArray.__setitem__`` is looked up at call time, so a store
    # recorder patched onto the base class (the test suite's reference
    # oracle) applies under the subclass too.
    def __setitem__(self, key: Any, value: Any) -> None:
        MPArray.__setitem__(self, key, value)
        self._requantize_key(key)

    def fill(self, value: Any) -> None:
        MPArray.fill(self, value)
        _quantize_array(self._data, self._qspec)

    def __array_function__(self, func, types, args, kwargs):
        out = kwargs.get("out") if kwargs else None
        result = MPArray.__array_function__(self, func, types, args, kwargs)
        if func in _MUTATING_FUNCTIONS and args and isinstance(args[0], QuantizedMPArray):
            args[0]._quantize_storage()
        if out is not None:
            for target in (out if isinstance(out, tuple) else (out,)):
                if isinstance(target, QuantizedMPArray):
                    target._quantize_storage()
        return result

    def _adopt(self, result):
        """Promote views of this variable's storage so stores through
        them keep quantising; pass anything else through unchanged."""
        if type(result) is MPArray and np.may_share_memory(result._data, self._data):
            view = _MP_NEW(QuantizedMPArray)
            view._data = result._data
            view._profile = result._profile
            view._qspec = self._qspec
            return view
        return result

    def __getitem__(self, key: Any) -> Any:
        return self._adopt(MPArray.__getitem__(self, key))

    def reshape(self, *shape) -> "MPArray":
        return self._adopt(MPArray.reshape(self, *shape))

    def ravel(self) -> "MPArray":
        return self._adopt(MPArray.ravel(self))

    def transpose(self, *axes) -> "MPArray":
        return self._adopt(MPArray.transpose(self, *axes))

    @property
    def T(self) -> "MPArray":
        return self._adopt(MPArray(self._data.T, self._profile))

    def __repr__(self) -> str:
        return f"QuantizedMPArray({self._data!r}, format={self._qspec.fmt.name!r})"


_CONTAINERS = (tuple, list, dict)


def _unwrap_tree(obj: Any) -> Any:
    if isinstance(obj, MPArray):
        return obj._data
    cls = obj.__class__
    if cls is tuple:
        # One- and two-element tuples are the argument shapes every hot
        # NumPy call uses; build them without a generator frame.
        n = len(obj)
        if n == 2:
            x0, x1 = obj
            return (
                x0._data if isinstance(x0, MPArray)
                else (_unwrap_tree(x0) if isinstance(x0, _CONTAINERS) else x0),
                x1._data if isinstance(x1, MPArray)
                else (_unwrap_tree(x1) if isinstance(x1, _CONTAINERS) else x1),
            )
        if n == 1:
            x0 = obj[0]
            return (
                x0._data if isinstance(x0, MPArray)
                else (_unwrap_tree(x0) if isinstance(x0, _CONTAINERS) else x0),
            )
        return tuple(
            x._data if isinstance(x, MPArray)
            else (_unwrap_tree(x) if isinstance(x, _CONTAINERS) else x)
            for x in obj
        )
    if cls is list:
        return [
            x._data if isinstance(x, MPArray)
            else (_unwrap_tree(x) if isinstance(x, _CONTAINERS) else x)
            for x in obj
        ]
    if cls is dict:
        return {
            k: (
                v._data if isinstance(v, MPArray)
                else (_unwrap_tree(v) if isinstance(v, _CONTAINERS) else v)
            )
            for k, v in obj.items()
        }
    if isinstance(obj, _CONTAINERS):  # tuple/list/dict subclasses
        if isinstance(obj, tuple):
            return tuple(_unwrap_tree(x) for x in obj)
        if isinstance(obj, list):
            return [_unwrap_tree(x) for x in obj]
        return {k: _unwrap_tree(v) for k, v in obj.items()}
    return obj


def _wrap_tree(obj: Any, profile: Profile) -> Any:
    if isinstance(obj, (tuple, list)):
        parts = [_wrap_tree(x, profile) for x in obj]
        return parts if isinstance(obj, list) else tuple(parts)
    return wrap(obj, profile)


def _array_args(raw_args: Any) -> list[np.ndarray]:
    if isinstance(raw_args, np.ndarray):
        return [raw_args]
    found: list[np.ndarray] = []
    for obj in raw_args:
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            _visit_args(obj, found)
    return found


def _visit_args(obj: Any, found: list[np.ndarray]) -> None:
    for part in obj:
        if isinstance(part, np.ndarray):
            found.append(part)
        elif isinstance(part, (tuple, list)):
            _visit_args(part, found)


def _result_stats(result: Any) -> tuple[float, float]:
    if isinstance(result, np.ndarray):
        return float(result.size), float(result.nbytes)
    if isinstance(result, np.generic):
        return 1.0, float(result.dtype.itemsize)
    return 1.0, 8.0


def _dtype_of(result: Any, arrays: list[np.ndarray]) -> np.dtype:
    if isinstance(result, (np.ndarray, np.generic)) and result.dtype.kind == "f":
        return result.dtype
    for arr in arrays:
        if arr.dtype.kind == "f":
            return arr.dtype
    return _FLOAT64


def _record_generic(profile: Profile, raw_args: Any, result: Any) -> None:
    """Fallback accounting for NumPy functions without a dedicated
    handler: charge one cheap op per element of the largest operand."""
    arrays = _array_args(raw_args)
    result_size, result_bytes = _result_stats(result)
    n = max([a.size for a in arrays] + [result_size])
    profile.record_op_keyed(
        _op_key(OpClass.CHEAP, _dtype_of(result, arrays)), float(n),
        float(sum(a.nbytes for a in arrays)), result_bytes, 0.0,
    )


def _record_dot(profile: Profile, raw_args: Any, result: Any) -> None:
    # np.dot(a, b) with two plain arrays is the hot shape; skip the
    # generic argument walk for it.
    if (
        type(raw_args) is tuple and len(raw_args) == 2
        and isinstance(raw_args[0], np.ndarray)
        and isinstance(raw_args[1], np.ndarray)
    ):
        a, b = raw_args
        arrays = raw_args
    else:
        arrays = _array_args(raw_args)
        if len(arrays) < 2:
            _record_generic(profile, raw_args, result)
            return
        a, b = arrays[0], arrays[1]
    contraction = a.shape[-1] if a.ndim else 1
    result_size, result_bytes = _result_stats(result)
    flops = 2.0 * max(result_size, 1.0) * contraction
    da = a.dtype
    db = b.dtype
    casts = (
        float(min(a.size, b.size))
        if da != db and da.kind == "f" and db.kind == "f" else 0.0
    )
    profile.record_op_keyed(
        _op_key(OpClass.CHEAP, _dtype_of(result, arrays)), flops,
        float(a.nbytes + b.nbytes), result_bytes, casts,
    )


def _record_move(profile: Profile, raw_args: Any, result: Any) -> None:
    arrays = _array_args(raw_args)
    result_size, result_bytes = _result_stats(result)
    profile.record_op_keyed(
        _op_key(OpClass.MOVE, _dtype_of(result, arrays)), result_size,
        float(sum(a.nbytes for a in arrays)), result_bytes, 0.0,
    )


def _record_reduction(profile: Profile, raw_args: Any, result: Any) -> None:
    # np.sum(x) / np.min(x) style single-array calls dominate; skip the
    # generic argument walk for them.
    if (
        type(raw_args) is tuple and len(raw_args) == 1
        and isinstance(raw_args[0], np.ndarray)
    ):
        arr = raw_args[0]
        if isinstance(result, np.ndarray):
            result_bytes = float(result.nbytes)
        elif isinstance(result, np.generic):
            result_bytes = float(result.dtype.itemsize)
        else:
            result_bytes = 8.0
        profile.record_op_keyed(
            _op_key(OpClass.CHEAP, _dtype_of(result, (arr,))), float(arr.size),
            float(arr.nbytes), result_bytes, 0.0,
        )
        return
    arrays = _array_args(raw_args)
    n = float(max((a.size for a in arrays), default=1))
    result_size, result_bytes = _result_stats(result)
    profile.record_op_keyed(
        _op_key(OpClass.CHEAP, _dtype_of(result, arrays)), n,
        float(sum(a.nbytes for a in arrays)), result_bytes, 0.0,
    )


# ---------------------------------------------------------------------------
# Arithmetic operators: direct dispatch with dead-temporary buffer reuse
#
# Plain ndarray expression chains get NumPy's C-level temporary elision:
# in `a - b + c` the intermediate buffer is reused for the second op.
# Wrapped arrays never did — each MPArray op allocated a fresh result —
# which on multi-megabyte operands costs more than the recording itself.
# The binary/unary operators below dispatch their ufunc directly (same
# ufunc, same operand order, same recording call) and, when the
# left/right operand is *provably a dead temporary* — an expression
# intermediate nothing else references — compute into its buffer with
# ``out=``.  The ufunc inner loop is identical either way, so values
# are bit-identical; only the allocation disappears.
#
# "Provably dead" is a refcount test, exactly NumPy's own elision rule.
# The expected refcounts of a temporary at the test site are measured
# at import time by `_calibrate_reuse` on this very interpreter; a
# bound operand measures one higher.  If the interpreter's calling
# convention ever changes the pattern, calibration fails closed and
# every op takes the ordinary allocate path.  The bit-exactness suite
# sets the thresholds to that fail-closed sentinel for its reference
# runs, so it checks this machinery end to end.

#: binary ufuncs whose result dtype always equals the (floating) input
#: dtype under NEP-50 with a same-dtype/weak-scalar partner — the
#: precondition for writing into an operand's buffer.
_REUSE_UFUNCS = frozenset({np.add, np.subtract, np.multiply, np.true_divide, np.power})

_PY_SCALARS = (float, int, bool)
_KNOWN_OPERANDS = (np.ndarray, np.generic, float, int, complex)

#: refcount a dead temporary operand / its buffer shows at the reuse
#: test inside an operator frame; set by `_calibrate_reuse`, -9
#: (matches nothing) if calibration failed.  The left operand arrives
#: as the bare ``self`` argument; the right operand picks up one extra
#: reference from its ``b_wrapper`` binding, hence separate thresholds.
_T_SELF = -9
_T_DATA = -9
_T_OTHER = -9
_T_ODATA = -9


def _make_binop(ufunc):
    reusable = ufunc in _REUSE_UFUNCS

    def op(self, other):
        if other.__class__ is MPArray:
            b_wrapper = other
            b = other._data
        elif isinstance(other, _KNOWN_OPERANDS):
            b_wrapper = None
            b = other
        elif isinstance(other, MPArray):
            b_wrapper = other
            b = other._data
        elif getattr(other, "__array_ufunc__", True) is None:
            return NotImplemented
        else:
            return ufunc(self, other)  # full NumPy dispatch for exotic types
        a = self._data
        out = None
        if reusable:
            if (
                a.dtype.kind == "f"
                and a.base is None
                and a.flags.writeable
                and sys.getrefcount(self) == _T_SELF
                and sys.getrefcount(a) == _T_DATA
                and (
                    b is a
                    or b.__class__ in _PY_SCALARS
                    or (isinstance(b, np.ndarray) and b.dtype == a.dtype and b.shape == a.shape)
                    or (isinstance(b, np.generic) and b.dtype == a.dtype)
                )
            ):
                out = a
            elif (
                b_wrapper is not None
                and b.dtype == a.dtype
                and b.dtype.kind == "f"
                and b.shape == a.shape
                and b.base is None
                and b.flags.writeable
                and sys.getrefcount(b_wrapper) == _T_OTHER
                and sys.getrefcount(b) == _T_ODATA
            ):
                out = b
        result = ufunc(a, b) if out is None else ufunc(a, b, out=out)
        self._record_ufunc(ufunc, "__call__", (a, b), result)
        return wrap(result, self._profile)

    return op


def _make_rbinop(ufunc):
    reusable = ufunc in _REUSE_UFUNCS

    def op(self, other):
        if isinstance(other, _KNOWN_OPERANDS):
            b = other
        elif isinstance(other, MPArray):
            b = other._data
        elif getattr(other, "__array_ufunc__", True) is None:
            return NotImplemented
        else:
            return ufunc(other, self)
        a = self._data
        out = None
        if (
            reusable
            and a.dtype.kind == "f"
            and a.base is None
            and a.flags.writeable
            and sys.getrefcount(self) == _T_SELF
            and sys.getrefcount(a) == _T_DATA
            and (
                b is a
                or b.__class__ in _PY_SCALARS
                or (isinstance(b, np.ndarray) and b.dtype == a.dtype and b.shape == a.shape)
                or (isinstance(b, np.generic) and b.dtype == a.dtype)
            )
        ):
            out = a
        result = ufunc(b, a) if out is None else ufunc(b, a, out=out)
        self._record_ufunc(ufunc, "__call__", (b, a), result)
        return wrap(result, self._profile)

    return op


def _make_unop(ufunc):
    def op(self):
        a = self._data
        if (
            a.dtype.kind == "f"
            and a.base is None
            and a.flags.writeable
            and sys.getrefcount(self) == _T_SELF
            and sys.getrefcount(a) == _T_DATA
        ):
            result = ufunc(a, out=a)
        else:
            result = ufunc(a)
        self._record_ufunc(ufunc, "__call__", (a,), result)
        return wrap(result, self._profile)

    return op


_OBSERVED: list = []


def _probe_op(self, other):
    """Frame-for-frame stand-in for a `_make_binop` operator: the same
    bindings exist, in the same order, when the refcounts are read."""
    if other.__class__ is MPArray:
        b_wrapper = other
        b = other._data
    else:
        b_wrapper = None
        b = other
    a = self._data
    _OBSERVED.append((
        sys.getrefcount(self),
        sys.getrefcount(a),
        0 if b_wrapper is None else sys.getrefcount(b_wrapper),
        0 if not isinstance(b, np.ndarray) else sys.getrefcount(b),
    ))
    return MPArray(np.add(a, b), self._profile)


def _calibrate_reuse() -> None:
    """Measure what refcount a dead expression temporary shows at the
    reuse test on this interpreter — once arriving as ``self`` (left
    operand) and once as ``other`` (right operand) — and confirm a
    bound operand shows exactly one more in both roles.  Any other
    pattern leaves reuse disabled — the safe direction."""
    global _T_SELF, _T_DATA, _T_OTHER, _T_ODATA
    profile = Profile()
    previous = MPArray.__add__
    MPArray.__add__ = _probe_op
    try:
        bound = MPArray(np.ones(2), profile)
        _OBSERVED.clear()
        MPArray(np.ones(2), profile) + bound  # temp left, bound right
        bound + MPArray(np.ones(2), profile)  # bound left, temp right
    finally:
        MPArray.__add__ = previous
    (t_self, t_data, ob_other, ob_odata), \
        (b_self, b_data, o_other, o_odata) = _OBSERVED
    if b_self == t_self + 1 and b_data == t_data:
        _T_SELF = t_self
        _T_DATA = t_data
    if ob_other == o_other + 1 and ob_odata == o_odata:
        _T_OTHER = o_other
        _T_ODATA = o_odata


_calibrate_reuse()

#: operator names bound below to direct-dispatch implementations that
#: construct plain MPArray results without consulting
#: ``__array_ufunc__``.  A subclass that must intercept every
#: operation (the shadow-value engine) re-binds exactly these names
#: back to their ``NDArrayOperatorsMixin`` versions, which route
#: through the ufunc protocol and therefore through the subclass.
DIRECT_OPERATOR_NAMES = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "__pow__", "__rpow__", "__neg__", "__abs__",
)

MPArray.__add__ = _make_binop(np.add)
MPArray.__radd__ = _make_rbinop(np.add)
MPArray.__sub__ = _make_binop(np.subtract)
MPArray.__rsub__ = _make_rbinop(np.subtract)
MPArray.__mul__ = _make_binop(np.multiply)
MPArray.__rmul__ = _make_rbinop(np.multiply)
MPArray.__truediv__ = _make_binop(np.true_divide)
MPArray.__rtruediv__ = _make_rbinop(np.true_divide)
MPArray.__pow__ = _make_binop(np.power)
MPArray.__rpow__ = _make_rbinop(np.power)
MPArray.__neg__ = _make_unop(np.negative)
MPArray.__abs__ = _make_unop(np.absolute)


#: NumPy functions that write into an argument in place: a quantised
#: first argument is re-rounded after any of these (resolved at call
#: time, so the set may live below the class body).
_MUTATING_FUNCTIONS = frozenset({np.copyto, np.put, np.place, np.putmask})

_FUNCTION_HANDLERS: dict[Callable, Callable[[Profile, Any, Any], None]] = {
    np.dot: _record_dot,
    np.matmul: _record_dot,
    np.inner: _record_dot,
    np.where: _record_move,
    np.concatenate: _record_move,
    np.stack: _record_move,
    np.copyto: _record_move,
    np.sum: _record_reduction,
    np.mean: _record_reduction,
    np.prod: _record_reduction,
    np.amax: _record_reduction,
    np.amin: _record_reduction,
    np.max: _record_reduction,
    np.min: _record_reduction,
    np.argmax: _record_reduction,
    np.argmin: _record_reduction,
    np.count_nonzero: _record_reduction,
    np.any: _record_reduction,
    np.all: _record_reduction,
}
