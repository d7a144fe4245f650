"""The reference oracle of the bit-exactness suite.

The runtime has one recording path: signature-cached ufunc recording,
fast basic indexing, dead-temporary buffer reuse and init-copy
elision.  :func:`reference_recording` swaps the readable, uncached
reference recorder in for a block and turns both refcount
optimisations off, so a test can run the same program both ways and
compare outputs, profiles and modeled times byte for byte:

* ``MPArray._record_ufunc`` becomes :func:`_record_ufunc_reference`
  below;
* ``MPArray.__getitem__``/``__setitem__`` become the runtime's own
  ``_getitem_reference``/``_setitem_reference`` (the fancy-index paths,
  which also handle basic indices);
* the buffer-reuse thresholds (``repro.runtime.mparray._T_*``) and the
  init-copy elision thresholds (``repro.runtime.memory._T_INIT*``) are
  set to -9, the fail-closed sentinel that no refcount matches.

Everything is put back on exit, also when the block raises.
"""

from __future__ import annotations

import contextlib
from typing import Any

import numpy as np
import pytest

from repro.runtime import memory as _memory
from repro.runtime import mparray as _mparray
from repro.runtime.mparray import MPArray, _index_size
from repro.runtime.profiler import OpClass, opclass_for_ufunc

__all__ = ["reference_recording", "REUSE_THRESHOLDS", "ELISION_THRESHOLDS"]

#: module globals the oracle pins to the fail-closed sentinel
REUSE_THRESHOLDS = ("_T_SELF", "_T_DATA", "_T_OTHER", "_T_ODATA")
ELISION_THRESHOLDS = ("_T_INIT", "_T_INIT_DATA")
_DISABLED = -9


def _record_ufunc_reference(self, ufunc, method: str, raw_inputs: tuple, result: Any) -> None:
    """The original, uncached recording path: every call classifies
    its operation from scratch.  The ground truth the bit-exactness
    suite checks the signature-cached ``MPArray._record_ufunc``
    against."""
    primary = result[0] if isinstance(result, tuple) else result
    if isinstance(primary, np.ndarray):
        result_dtype = primary.dtype
        result_size = primary.size
        bytes_written = float(primary.nbytes)
    elif isinstance(primary, np.generic):
        result_dtype = primary.dtype
        result_size = 1
        bytes_written = float(result_dtype.itemsize)
    else:
        result_dtype = np.dtype(np.float64)
        result_size = 1
        bytes_written = 8.0

    array_inputs = [x for x in raw_inputs if isinstance(x, np.ndarray)]
    bytes_read = float(sum(x.nbytes for x in array_inputs))
    input_sizes = [x.size for x in array_inputs]
    max_input = max(input_sizes, default=1)

    if ufunc.__name__ in ("matmul", "vecdot"):
        # flops for matmul: 2 · (result elements) · (contraction length)
        contraction = array_inputs[0].shape[-1] if array_inputs else 1
        n = 2.0 * max(result_size, 1) * contraction
    elif method in ("reduce", "accumulate", "reduceat"):
        n = float(max_input)
    elif method == "outer":
        n = float(result_size)
    elif method == "at":
        n = float(_index_size(array_inputs[0], raw_inputs[1]) if len(raw_inputs) > 1 else max_input)
    else:  # __call__
        n = float(max(result_size, max_input))

    # Promotion casts: floating inputs narrower/wider than the
    # compute dtype are converted element-by-element, like C.
    casts = 0.0
    if result_dtype.kind == "f":
        for x in array_inputs:
            if x.dtype.kind == "f" and x.dtype != result_dtype:
                casts += x.size

    opclass = opclass_for_ufunc(ufunc.__name__, result_dtype.kind)
    compute_dtype = result_dtype.name
    if result_dtype.kind == "b" and array_inputs:
        # Comparisons compute at the input precision even though the
        # result is boolean.
        widest = max(
            (x.dtype for x in array_inputs if x.dtype.kind == "f"),
            key=lambda dt: dt.itemsize,
            default=None,
        )
        if widest is not None:
            compute_dtype = widest.name
            opclass = OpClass.CHEAP
    self._profile.record_op(
        opclass, compute_dtype, n,
        bytes_read=bytes_read, bytes_written=bytes_written, casts=casts,
    )


@contextlib.contextmanager
def reference_recording():
    """Run a block under the reference recorder, with buffer reuse and
    init-copy elision off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MPArray, "_record_ufunc", _record_ufunc_reference)
        patch.setattr(MPArray, "__getitem__", MPArray._getitem_reference)
        patch.setattr(MPArray, "__setitem__", MPArray._setitem_reference)
        for name in REUSE_THRESHOLDS:
            patch.setattr(_mparray, name, _DISABLED)
        for name in ELISION_THRESHOLDS:
            patch.setattr(_memory, name, _DISABLED)
        yield
