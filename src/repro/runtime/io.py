"""Precision-agnostic binary I/O: ``mp_fread`` / ``mp_fwrite`` analogues.

The paper's runtime library (Listing 3) lets a benchmark read and write
binary files whose *stored* element type is fixed (usually double)
while the in-memory representation follows the active precision
configuration; the library performs any conversion.  These functions do
the same for NumPy: files always hold a declared on-disk precision, and
reads/writes convert to/from the configured in-memory dtype.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from repro.core.types import Precision
from repro.errors import MixPBenchError
from repro.runtime.memory import Workspace
from repro.runtime.mparray import MPArray, unwrap

__all__ = ["mp_fread", "mp_fwrite", "write_typed", "read_typed"]


def write_typed(path: str | Path, data: Any, stored: Precision = Precision.DOUBLE) -> int:
    """Write ``data`` to ``path`` as raw binary in the ``stored`` format.

    Returns the number of bytes written.  This is the plain helper used
    by input generators; benchmarks should use :func:`mp_fwrite`, which
    also records traffic in the execution profile.
    """
    raw = np.ascontiguousarray(np.asarray(unwrap(data)), dtype=stored.dtype)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    raw.tofile(path)
    return raw.nbytes


def read_typed(path: str | Path, stored: Precision = Precision.DOUBLE, count: int = -1) -> np.ndarray:
    """Read a raw binary file written by :func:`write_typed`."""
    path = Path(path)
    if not path.exists():
        raise MixPBenchError(f"input file not found: {path}")
    return np.fromfile(path, dtype=stored.dtype, count=count)


def mp_fread(
    ws: Workspace,
    name: str,
    path: str | Path,
    stored: Precision = Precision.DOUBLE,
    count: int = -1,
    shape: tuple[int, ...] | None = None,
) -> MPArray:
    """Read a binary file into a workspace array variable.

    The file holds ``stored``-precision elements; the returned array
    uses whatever precision the active configuration assigns to
    ``name`` (the conversion the paper's ``mp_fread`` performs).
    """
    raw = read_typed(path, stored=stored, count=count)
    if shape is not None:
        raw = raw.reshape(shape)
    ws.profile.record_io(float(raw.nbytes))
    return ws.array(name, init=raw)


def mp_fwrite(
    ws: Workspace,
    data: Any,
    path: str | Path,
    stored: Precision = Precision.DOUBLE,
) -> int:
    """Write an array to a binary file in the declared stored format.

    Converts from the in-memory precision back to ``stored`` (the
    conversion the paper's ``mp_fwrite`` performs) and records the
    traffic in the profile.
    """
    nbytes = write_typed(path, data, stored=stored)
    ws.profile.record_io(float(nbytes))
    source = unwrap(data)
    if isinstance(source, np.ndarray) and source.dtype != stored.dtype:
        ws.profile.record_cast(float(source.size))
    return nbytes
