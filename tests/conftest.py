"""Shared pytest fixtures."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # expose tests/helpers.py

from helpers import ToyProgram  # noqa: E402

from repro.benchmarks.base import Benchmark, clear_process_caches  # noqa: E402
from repro.core.evaluator import ConfigurationEvaluator  # noqa: E402


@pytest.fixture()
def toy_program() -> ToyProgram:
    """Four singleton clusters, cluster 0 toxic."""
    return ToyProgram(n_clusters=4, toxic=(0,))


@pytest.fixture()
def toy_evaluator(toy_program) -> ConfigurationEvaluator:
    return ConfigurationEvaluator(toy_program, measurement_noise=0.0)


@pytest.fixture()
def data_env(tmp_path, monkeypatch):
    """Route generated benchmark input files into the test's tmp dir."""
    monkeypatch.setenv("MIXPBENCH_DATA", str(tmp_path / "data"))
    return tmp_path


@pytest.fixture()
def executions(data_env, monkeypatch):
    """Config digest of every ``Benchmark.execute`` call, starting from
    cold per-process benchmark state."""
    clear_process_caches()
    calls = []
    original = Benchmark.execute

    def counting(self, config, inputs=None):
        calls.append(config.digest())
        return original(self, config, inputs)

    monkeypatch.setattr(Benchmark, "execute", counting)
    return calls
