"""Property-based tests for the interpreted fast path (hypothesis).

The contract under test is the strongest one the runtime makes:
executing any straight-line ufunc sequence must produce bit-identical
outputs and identical profiles whether it runs under the readable
reference recorder or on the interpreted fast path (signature-cached
recipes, buffer reuse, init-copy elision).  Random short programs over
random dtypes/shapes probe it.
"""

from __future__ import annotations

import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.types import Precision, PrecisionConfig
from repro.runtime.memory import Workspace

from oracle import reference_recording

#: ops are appended to a growing value list; each step draws operand
#: indices into it (0 and 1 are the declared input arrays)
_BINARY = ("add", "sub", "mul", "div", "max")
_UNARY = ("sqrt", "abs", "neg")
_SCALAR = ("smul", "sadd")


@st.composite
def programs(draw):
    n_ops = draw(st.integers(min_value=2, max_value=6))
    steps = []
    for i in range(n_ops):
        kind = draw(st.sampled_from(_BINARY + _UNARY + _SCALAR))
        live = 2 + i  # inputs plus every prior result
        src1 = draw(st.integers(min_value=0, max_value=live - 1))
        src2 = draw(st.integers(min_value=0, max_value=live - 1))
        const = draw(st.sampled_from((0.5, 1.25, 2.0, -0.75)))
        steps.append((kind, src1, src2, const))
    precision = draw(st.sampled_from((Precision.DOUBLE, Precision.SINGLE)))
    shape = draw(st.sampled_from(((4,), (16,), (3, 5))))
    return precision, shape, steps


def _run_program(precision, shape, steps):
    """Execute one random program in a fresh workspace; returns the
    final array's bytes, the first initialiser's bytes and the
    workspace profile summary."""
    config = PrecisionConfig({"a": precision, "b": precision})
    ws = Workspace(config)
    size = int(np.prod(shape))
    init_a = (np.arange(size, dtype=np.float64).reshape(shape) % 7) * 0.25 + 0.5
    init_b = (np.arange(size, dtype=np.float64).reshape(shape) % 5) * 0.5 + 1.0
    values = [ws.array("a", init=init_a), ws.array("b", init=init_b)]
    for kind, src1, src2, const in steps:
        x = values[src1]
        y = values[src2]
        if kind == "add":
            result = x + y
        elif kind == "sub":
            result = x - y
        elif kind == "mul":
            result = x * y
        elif kind == "div":
            result = x / y
        elif kind == "max":
            result = np.maximum(x, y)
        elif kind == "sqrt":
            result = np.sqrt(x)
        elif kind == "abs":
            result = np.abs(x)
        elif kind == "neg":
            result = -x
        elif kind == "smul":
            result = x * const
        else:  # sadd
            result = x + const
        values.append(result)
    # binding a dead temporary to a declaration exercises the
    # init-copy elision, as every real benchmark does
    final = ws.array("out", init=values[-1] + 0.0)
    # a store into a variable must never reach the caller's bound
    # initialiser (an elision that adopted ``init_a`` would show here)
    values[0][...] = -1.0
    return (
        np.asarray(final._data).tobytes(), init_a.tobytes(),
        ws.profile.summary(),
    )


@given(programs())
@settings(max_examples=40, deadline=None)
def test_interpreted_matches_reference(program):
    precision, shape, steps = program
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with reference_recording():
            reference = _run_program(precision, shape, steps)
        # twice, so the second run hits the recipes the first one cached
        interpreted = [_run_program(precision, shape, steps) for _ in range(2)]
    for run in interpreted:
        assert run == reference


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
