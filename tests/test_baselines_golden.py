"""Output goldens for every registered benchmark.

Each benchmark runs once all-double and once uniformly in ``single``
precision; ``tests/data/baselines_golden.json`` pins, per run, the
sha256 of the output bytes, ``repr(modeled_seconds)`` and a digest of
``profile.summary()``.  A refactor of the benchmarks, their input
generation or the runtime proves itself by leaving that file
unchanged.

Regenerate (only for an intended behaviour change, and say why)::

    PYTHONPATH=src python tests/test_baselines_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.benchmarks.base import available_benchmarks, clear_process_caches, get_benchmark
from repro.core.types import Precision, PrecisionConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "baselines_golden.json"

BENCHMARKS = available_benchmarks()


def _run_digest(bench, config: PrecisionConfig) -> dict:
    # srad is designed to overflow in single precision.
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = bench.execute(config)
    summary = json.dumps(result.profile.summary(), sort_keys=True).encode()
    return {
        "output": hashlib.sha256(np.asarray(result.output).tobytes()).hexdigest(),
        "modeled_seconds": repr(result.modeled_seconds),
        "profile": hashlib.sha256(summary).hexdigest()[:16],
    }


def compute(name: str) -> dict:
    bench = get_benchmark(name)
    single = bench.search_space().uniform_config(Precision.SINGLE)
    return {
        "double": _run_digest(bench, PrecisionConfig()),
        "single": _run_digest(bench, single),
    }


@pytest.fixture(scope="module")
def golden_env(tmp_path_factory):
    """Module-private data dir + clean per-process caches."""
    patcher = pytest.MonkeyPatch()
    patcher.setenv("MIXPBENCH_DATA", str(tmp_path_factory.mktemp("data")))
    clear_process_caches()
    yield json.loads(GOLDEN_PATH.read_text())
    clear_process_caches()
    patcher.undo()


def test_every_benchmark_is_pinned(golden_env):
    assert sorted(golden_env) == sorted(BENCHMARKS)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_outputs_match_golden(name, golden_env):
    assert compute(name) == golden_env[name]


def _write() -> None:
    with tempfile.TemporaryDirectory() as data:
        os.environ["MIXPBENCH_DATA"] = data
        golden = {name: compute(name) for name in BENCHMARKS}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} benchmarks to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_baselines_golden.py --write")
    _write()
