"""Operation-level profiling of benchmark executions.

The paper measures wall-clock time on a Xeon testbed.  A pure-Python
re-implementation cannot reproduce C performance, so this package takes
the route documented in DESIGN.md: every NumPy operation executed on a
tracked array (:class:`repro.runtime.mparray.MPArray`) is recorded in a
:class:`Profile`, and a roofline :class:`repro.runtime.machine.MachineModel`
converts the profile into a modeled runtime.

A profile aggregates element counts and memory traffic per *(operation
class, compute dtype)* bucket, plus global counters for casts, gathers
(indexed accesses) and per-call overheads.
"""

from __future__ import annotations

import enum

__all__ = ["OpClass", "Profile", "UFUNC_OPCLASS", "opclass_for_ufunc"]


class OpClass(enum.Enum):
    """Coarse cost classes for floating-point and integer operations.

    The classes correspond to the throughput tiers of a modeled CPU:

    * ``CHEAP`` — add/sub/mul/fma/compare/min/max: fully pipelined SIMD
      ops whose throughput doubles when the element width halves.
    * ``MEDIUM`` — divide and square root: partially pipelined, still
      benefit from narrower elements.
    * ``TRANS`` — transcendental functions (exp, log, pow, trig, erf):
      implemented by libm at effectively dtype-independent latency.
    * ``MOVE`` — copies, fills, selects: bandwidth-bound data movement.
    * ``INT`` — integer arithmetic: unaffected by floating precision.
    """

    CHEAP = "cheap"
    MEDIUM = "medium"
    TRANS = "trans"
    MOVE = "move"
    INT = "int"

    # Enum's default __hash__ re-hashes the member *name* string on
    # every dict probe — and every recorded op probes the ops dict with
    # an (OpClass, dtype) key.  Members are singletons, so the identity
    # hash is equivalent and C-fast.
    __hash__ = object.__hash__


_CHEAP_UFUNCS = {
    "add", "subtract", "multiply", "negative", "positive", "absolute",
    "fabs", "minimum", "maximum", "fmin", "fmax", "greater", "less",
    "greater_equal", "less_equal", "equal", "not_equal", "sign",
    "floor", "ceil", "trunc", "rint", "isnan", "isinf", "isfinite",
    "logical_and", "logical_or", "logical_not", "logical_xor", "square",
    "conjugate", "heaviside", "copysign", "nextafter", "spacing", "signbit",
    "fmod", "mod", "remainder", "clip",
}
_MEDIUM_UFUNCS = {
    "divide", "true_divide", "floor_divide", "sqrt", "reciprocal",
    "cbrt", "hypot",
}
_TRANS_UFUNCS = {
    "exp", "exp2", "expm1", "log", "log2", "log10", "log1p", "power",
    "float_power", "sin", "cos", "tan", "arcsin", "arccos", "arctan",
    "arctan2", "sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh",
    "erf", "erfc", "logaddexp", "logaddexp2", "deg2rad", "rad2deg",
}

UFUNC_OPCLASS: dict[str, OpClass] = {}
UFUNC_OPCLASS.update({name: OpClass.CHEAP for name in _CHEAP_UFUNCS})
UFUNC_OPCLASS.update({name: OpClass.MEDIUM for name in _MEDIUM_UFUNCS})
UFUNC_OPCLASS.update({name: OpClass.TRANS for name in _TRANS_UFUNCS})


def opclass_for_ufunc(name: str, compute_kind: str) -> OpClass:
    """Cost class for a ufunc by name, given the compute dtype kind.

    Integer computations are classed ``INT`` whatever the ufunc,
    because the machine model treats integer throughput as independent
    of the floating-point precision configuration.
    """
    if compute_kind in ("i", "u", "b"):
        return OpClass.INT
    return UFUNC_OPCLASS.get(name, OpClass.CHEAP)


class Profile:
    """Aggregated operation counts for one benchmark execution.

    All counters are plain floats/ints so profiles stay cheap to merge;
    ``ops`` maps ``(OpClass, dtype_str)`` to element-operation counts.

    Recording sits on the instrumentation hot path — one call per NumPy
    operation of every trial — so the class is slotted and the record
    methods are straight-line dict/float accumulation with no argument
    massaging; all classification work (op class, dtype naming, cast
    detection) happens in the caller, once per unique operation
    signature (see :mod:`repro.runtime.mparray`).
    """

    __slots__ = (
        "ops", "bytes_read", "bytes_written", "cast_elements",
        "gather_elements", "ufunc_calls", "io_bytes", "peak_footprint",
        "alloc_storage_bytes", "alloc_modeled_bytes",
        "_live_footprint",
    )

    def __init__(
        self,
        ops: dict[tuple[OpClass, str], float] | None = None,
        bytes_read: float = 0.0,
        bytes_written: float = 0.0,
        cast_elements: float = 0.0,
        gather_elements: float = 0.0,
        ufunc_calls: int = 0,
        io_bytes: float = 0.0,
        peak_footprint: int = 0,
        alloc_storage_bytes: float = 0.0,
        alloc_modeled_bytes: float = 0.0,
    ) -> None:
        self.ops = {} if ops is None else dict(ops)
        self.bytes_read = bytes_read
        self.bytes_written = bytes_written
        self.cast_elements = cast_elements
        self.gather_elements = gather_elements
        self.ufunc_calls = ufunc_calls
        self.io_bytes = io_bytes
        self.peak_footprint = peak_footprint
        # Cumulative workspace allocations: the physical (storage-dtype)
        # bytes and the emulated-width bytes.  They differ only when a
        # CustomFormat narrower than its storage dtype is live; their
        # ratio is the machine model's traffic discount.
        self.alloc_storage_bytes = alloc_storage_bytes
        self.alloc_modeled_bytes = alloc_modeled_bytes
        self._live_footprint = 0

    def __repr__(self) -> str:
        return (
            f"Profile(ops={self.ops!r}, bytes_read={self.bytes_read!r}, "
            f"bytes_written={self.bytes_written!r}, "
            f"cast_elements={self.cast_elements!r}, "
            f"gather_elements={self.gather_elements!r}, "
            f"ufunc_calls={self.ufunc_calls!r}, io_bytes={self.io_bytes!r}, "
            f"peak_footprint={self.peak_footprint!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return (
            self.ops == other.ops
            and self.bytes_read == other.bytes_read
            and self.bytes_written == other.bytes_written
            and self.cast_elements == other.cast_elements
            and self.gather_elements == other.gather_elements
            and self.ufunc_calls == other.ufunc_calls
            and self.io_bytes == other.io_bytes
            and self.peak_footprint == other.peak_footprint
            and self.alloc_storage_bytes == other.alloc_storage_bytes
            and self.alloc_modeled_bytes == other.alloc_modeled_bytes
        )

    def record_op(
        self,
        opclass: OpClass,
        dtype: str,
        n: float,
        bytes_read: float = 0.0,
        bytes_written: float = 0.0,
        casts: float = 0.0,
    ) -> None:
        """Record ``n`` element-operations of class ``opclass``."""
        key = (opclass, dtype)
        self.ops[key] = self.ops.get(key, 0.0) + n
        self.bytes_read += bytes_read
        self.bytes_written += bytes_written
        self.cast_elements += casts
        self.ufunc_calls += 1

    def record_op_keyed(
        self,
        key: tuple[OpClass, str],
        n: float,
        bytes_read: float,
        bytes_written: float,
        casts: float,
    ) -> None:
        """Fast-path :meth:`record_op`: the ``(opclass, dtype)`` bucket
        key is precomputed (and interned) by the caller's signature
        cache, so one dict accumulation replaces tuple construction and
        dtype-name formatting.  Counter semantics are identical."""
        ops = self.ops
        ops[key] = ops.get(key, 0.0) + n
        self.bytes_read += bytes_read
        self.bytes_written += bytes_written
        self.cast_elements += casts
        self.ufunc_calls += 1

    def record_gather(self, n: float, nbytes: float) -> None:
        """Record an indexed (gather/scatter) access of ``n`` elements."""
        self.gather_elements += n
        self.bytes_read += nbytes
        self.ufunc_calls += 1

    def record_cast(self, n: float) -> None:
        """Record an explicit element conversion between precisions."""
        self.cast_elements += n

    def record_io(self, nbytes: float) -> None:
        """Record file I/O traffic (informational; not timed)."""
        self.io_bytes += nbytes

    # -- footprint tracking (driven by the Workspace) ---------------------
    def track_alloc(self, nbytes: int, modeled: int | None = None) -> None:
        """Record an allocation.  ``modeled`` is the emulated-width
        footprint when the variable's format is narrower than its
        storage dtype; it drives the cache-tier footprint while
        ``nbytes`` stays the physical allocation size."""
        if modeled is None:
            modeled = nbytes
        self._live_footprint += modeled
        if self._live_footprint > self.peak_footprint:
            self.peak_footprint = self._live_footprint
        self.alloc_storage_bytes += nbytes
        self.alloc_modeled_bytes += modeled

    def track_free(self, nbytes: int, modeled: int | None = None) -> None:
        if modeled is None:
            modeled = nbytes
        self._live_footprint = max(0, self._live_footprint - modeled)

    def traffic_scale(self) -> float:
        """Ratio of emulated to physical allocation width, applied by
        the machine model to memory traffic.  Exactly 1.0 unless a
        narrower-than-storage CustomFormat allocated memory."""
        if (
            self.alloc_modeled_bytes == self.alloc_storage_bytes
            or self.alloc_storage_bytes <= 0
        ):
            return 1.0
        return self.alloc_modeled_bytes / self.alloc_storage_bytes

    # -- combination -------------------------------------------------------
    def merge(self, other: "Profile") -> None:
        """Accumulate ``other`` into this profile in place."""
        for key, count in other.ops.items():
            self.ops[key] = self.ops.get(key, 0.0) + count
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.cast_elements += other.cast_elements
        self.gather_elements += other.gather_elements
        self.ufunc_calls += other.ufunc_calls
        self.io_bytes += other.io_bytes
        self.peak_footprint = max(self.peak_footprint, other.peak_footprint)
        self.alloc_storage_bytes += other.alloc_storage_bytes
        self.alloc_modeled_bytes += other.alloc_modeled_bytes

    def total_flops(self) -> float:
        """Total floating-point element operations (all classes but INT)."""
        return sum(
            count for (opclass, _dtype), count in self.ops.items()
            if opclass is not OpClass.INT
        )

    def summary(self) -> dict:
        """A JSON-friendly digest of the profile."""
        return {
            "ops": {
                f"{opclass.value}/{dtype}": count
                for (opclass, dtype), count in sorted(
                    self.ops.items(), key=lambda item: (item[0][0].value, item[0][1])
                )
            },
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "cast_elements": self.cast_elements,
            "gather_elements": self.gather_elements,
            "ufunc_calls": self.ufunc_calls,
            "io_bytes": self.io_bytes,
            "peak_footprint": self.peak_footprint,
            # Only surfaced when an emulated format actually narrowed an
            # allocation, so summaries of ordinary runs (and of
            # storage-exact formats like e8m23) stay byte-identical to
            # the pre-format era.
            **(
                {
                    "alloc_storage_bytes": self.alloc_storage_bytes,
                    "alloc_modeled_bytes": self.alloc_modeled_bytes,
                }
                if self.alloc_modeled_bytes != self.alloc_storage_bytes
                else {}
            ),
        }
