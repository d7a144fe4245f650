"""Precision-agnostic allocation: the Workspace.

This is the Python analogue of the paper's runtime library
(``mp_malloc`` and friends, Listing 3): benchmarks never hard-code a
floating dtype.  Instead they declare every floating-point variable
through a :class:`Workspace`, which resolves the variable's precision
from the active :class:`~repro.core.types.PrecisionConfig`:

* ``ws.array("x", n)`` — the analogue of ``mp_malloc``: a heap array
  whose element type is whatever the configuration assigns to ``x``;
* ``ws.scalar("s", 3.0)`` — a typed local scalar (a C ``double s``);
* ``ws.param("p", p)`` — a typed function parameter: scalars are
  coerced to the parameter's configured precision on entry (the
  implicit cast C performs at a call site), arrays pass through
  unchanged (their type is pinned by the cluster constraint).

The workspace owns the execution's :class:`Profile` and tracks the
live array footprint that drives the machine model's cache tiering.
"""

from __future__ import annotations

import sys
from functools import cached_property
from typing import Any, Mapping

import numpy as np

from repro.core.types import CustomFormat, Precision, PrecisionConfig
from repro.errors import MixPBenchError, UnknownVariableError
from repro.runtime.mparray import MPArray, QuantizedMPArray, unwrap
from repro.runtime.profiler import Profile
from repro.runtime.quantize import (
    QuantSpec,
    modeled_nbytes,
    quantize_array,
    quantize_scalar,
    spec_for,
)

__all__ = ["Workspace"]

#: diagnostic counter: number of init-copy elisions performed (see
#: :meth:`Workspace.array`); read by tests, never reset automatically.
_ELISIONS = 0

#: refcounts a provably-dead ``init`` shows at the elision test in
#: :meth:`Workspace.array` for a direct ``ws.array(..., init=<expr>)``
#: call: the initialiser itself (an ``MPArray`` or ``ndarray``) and an
#: ``MPArray`` initialiser's buffer.  Fixed for CPython's calling
#: convention, not calibrated; -9 (the operators' fail-closed sentinel)
#: matches nothing and so turns the elision off.
_T_INIT = 2
_T_INIT_DATA = 3


class Workspace:
    """Runtime context for one benchmark execution.

    Parameters
    ----------
    config:
        Precision assignment for the program's variables.  Defaults to
        the all-double baseline.
    name_map:
        Mapping from the bare names used in ``ws.array("x", ...)``
        calls to the qualified variable uids (``"function.x"``) used in
        configurations.  Produced by the Typeforge scan; when absent,
        bare names are used directly.
    seed:
        Seed of stochastic rounding (emulated ``sr`` formats) and of
        :attr:`rng`.
    strict:
        When true, looking up a variable that the name map does not
        know raises :class:`UnknownVariableError`; when false the bare
        name is used as the uid (handy for ad-hoc experimentation).
    """

    def __init__(
        self,
        config: PrecisionConfig | None = None,
        name_map: Mapping[str, str] | None = None,
        seed: int = 0,
        strict: bool = False,
    ) -> None:
        self.config = config if config is not None else PrecisionConfig()
        # Kept by reference, not copied: one workspace is built per
        # trial and the Typeforge name map it receives is immutable in
        # practice; a defensive copy of a ~100-entry dict per trial is
        # measurable on the small kernels.
        self._name_map: Mapping[str, str] = name_map if name_map is not None else {}
        self.profile = Profile()
        self._arrays: dict[str, MPArray] = {}
        self._strict = strict
        self._dtypes: dict[str, np.dtype] = {}
        # Emulated-format support.  ``_has_custom`` is the single gate:
        # when false (every pre-existing configuration) none of the
        # quantisation code below runs and declarations take the exact
        # pre-format path.
        self._seed = seed
        self._has_custom = self.config.uses_custom_formats()
        self._qspecs: dict[str, QuantSpec | None] = {}
        #: modeled (emulated-width) nbytes per live array, kept only for
        #: arrays whose modeled width differs from storage
        self._modeled: dict[str, int] = {}

    @cached_property
    def rng(self) -> np.random.Generator:
        """A generator seeded with ``seed``, built on first use: a
        convenience for ad-hoc programs.  Suite benchmarks draw their
        inputs in ``setup()`` instead, so their trials never build one.
        """
        return np.random.default_rng(self._seed)

    # -- name resolution ---------------------------------------------------
    def resolve(self, name: str) -> str:
        """Qualified uid for a bare declaration name."""
        if name in self._name_map:
            return self._name_map[name]
        if self._strict:
            raise UnknownVariableError(
                f"variable {name!r} is not declared by this program"
            )
        return name

    def precision_of(self, name: str) -> Precision:
        return self.config.precision_of(self.resolve(name))

    def dtype_of(self, name: str) -> np.dtype:
        # Hot path: every ws.array/scalar/param call resolves a dtype,
        # and the (name -> dtype) binding is fixed for the lifetime of
        # a workspace, so resolve each name once.
        try:
            return self._dtypes[name]
        except KeyError:
            dtype = self._dtypes[name] = self.precision_of(name).dtype
            return dtype

    # -- declarations --------------------------------------------------------
    def array(
        self,
        name: str,
        shape: int | tuple[int, ...] | None = None,
        init: Any = None,
        fill: float | None = None,
    ) -> MPArray:
        """Declare and allocate a floating array variable.

        Exactly one of ``shape`` (uninitialised/filled allocation) or
        ``init`` (copy-convert existing data, like ``mp_fread``) must
        be provided.
        """
        dtype = self.dtype_of(name)
        if (shape is None) == (init is None):
            raise ValueError("provide exactly one of shape= or init=")
        if init is not None:
            # Initialisation happens in the variable's own type (a C
            # kernel writes `x[i] = (float)f(i)` directly), so the
            # conversion is not charged as a runtime cast; file-driven
            # conversions go through mp_fread, which does charge it.
            #
            # When ``init`` is a provably-dead temporary of the right
            # dtype — an expression result nothing else references —
            # the defensive copy is elided and the temporary's buffer
            # adopted outright, the Python analogue of NumPy's own
            # temporary elision (a C kernel writing `x[i] = f(i)`
            # allocates once, not twice).  The refcount thresholds are
            # exact for a direct ``ws.array(..., init=<expression>)``
            # call; anything bound to a name, viewing other storage,
            # read-only (shared benchmark inputs) or held by a debugger
            # scores higher and takes the copy, so a missed elision is
            # only ever a missed optimisation.
            global _ELISIONS
            if type(init) is MPArray:
                source = init._data
                if (
                    source.dtype == dtype
                    and source.base is None
                    and source.flags.writeable
                    and sys.getrefcount(init) == _T_INIT
                    and sys.getrefcount(source) == _T_INIT_DATA
                ):
                    data = source
                    _ELISIONS += 1
                else:
                    data = source.astype(dtype)
            elif type(init) is np.ndarray:
                if (
                    init.dtype == dtype
                    and init.base is None
                    and init.flags.writeable
                    and sys.getrefcount(init) == _T_INIT
                ):
                    data = init
                    _ELISIONS += 1
                else:
                    data = init.astype(dtype)
            else:
                data = np.asarray(unwrap(init)).astype(dtype)
        else:
            if fill is not None:
                data = np.full(shape, fill, dtype=dtype)
            else:
                data = np.zeros(shape, dtype=dtype)
        profile = self.profile
        if self._has_custom:
            return self._finish_custom_array(name, data, profile)
        arr = MPArray.__new__(MPArray)
        arr._data = data
        arr._profile = profile
        previous = self._arrays.get(name)
        if previous is not None:
            profile.track_free(previous.nbytes)
        self._arrays[name] = arr
        profile.track_alloc(data.nbytes)
        return arr

    def qspec_of(self, name: str) -> QuantSpec | None:
        """Quantisation spec for a bare name; ``None`` for built-in
        precisions and storage-exact formats (e8m23/e11m52)."""
        try:
            return self._qspecs[name]
        except KeyError:
            uid = self.resolve(name)
            spec = self._qspecs[name] = spec_for(
                self.config.precision_of(uid), self._seed, uid
            )
            return spec

    def _finish_custom_array(self, name: str, data: np.ndarray, profile: Profile) -> MPArray:
        """Declaration tail for workspaces with emulated formats live:
        quantise the initial contents, wrap stores, and account the
        modeled (emulated-width) footprint."""
        spec = self.qspec_of(name)
        if spec is not None:
            quantize_array(data, spec)
            arr = MPArray.__new__(QuantizedMPArray)
            arr._data = data
            arr._profile = profile
            arr._qspec = spec
        else:
            arr = MPArray.__new__(MPArray)
            arr._data = data
            arr._profile = profile
        previous = self._arrays.get(name)
        if previous is not None:
            profile.track_free(previous.nbytes, self._modeled.pop(name, None))
        precision = self.config.precision_of(self.resolve(name))
        if isinstance(precision, CustomFormat):
            modeled = modeled_nbytes(precision, data.size)
        else:
            modeled = data.nbytes
        self._arrays[name] = arr
        profile.track_alloc(data.nbytes, modeled)
        if modeled != data.nbytes:
            self._modeled[name] = modeled
        return arr

    def scalar(self, name: str, value: float) -> np.generic:
        """Declare a typed scalar variable (a C local declaration).

        The returned NumPy scalar behaves like a C variable of the
        configured type under NEP-50 promotion: a double scalar forces
        double math, a float scalar keeps float expressions narrow.
        """
        dtype = self.dtype_of(name)
        result = dtype.type(unwrap(value))
        if self._has_custom:
            spec = self.qspec_of(name)
            if spec is not None:
                result = quantize_scalar(result, spec)
        return result

    def param(self, name: str, value: Any) -> Any:
        """Declare a typed function parameter.

        Scalar arguments are coerced to the parameter's precision (the
        implicit cast at a C call site).  Array arguments must already
        match: the type-dependence clusters guarantee that any
        compilable configuration gives an array argument and its bound
        parameter the same precision, so a mismatch here means the
        evaluator admitted a non-compilable configuration.
        """
        dtype = self.dtype_of(name)
        if isinstance(value, MPArray):
            if value.dtype != dtype:
                raise MixPBenchError(
                    f"array argument bound to parameter {name!r} has dtype "
                    f"{value.dtype}, expected {dtype}; this configuration "
                    "should have been rejected as non-compilable"
                )
            return value
        result = dtype.type(unwrap(value))
        if self._has_custom:
            spec = self.qspec_of(name)
            if spec is not None:
                result = quantize_scalar(result, spec)
        return result

    # -- bookkeeping -----------------------------------------------------------
    def get(self, name: str) -> MPArray:
        """A previously declared array, by bare name."""
        try:
            return self._arrays[name]
        except KeyError:
            raise UnknownVariableError(f"no array named {name!r} allocated") from None

    def release(self, name: str) -> None:
        """Free a named array (drops it from the modeled footprint)."""
        arr = self._arrays.pop(name, None)
        if arr is not None:
            self.profile.track_free(arr.nbytes, self._modeled.pop(name, None))

    @property
    def live_bytes(self) -> int:
        """Current modeled footprint of named arrays."""
        return sum(
            self._modeled.get(name, arr.nbytes)
            for name, arr in self._arrays.items()
        )

    def declared_arrays(self) -> tuple[str, ...]:
        return tuple(self._arrays)
