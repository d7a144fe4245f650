"""The CI gates of ``scripts/bench_runtime.py``: every gate prints its
verdict, and the exit status is non-zero if any one of them failed."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_runtime.py"


@pytest.fixture
def bench_runtime(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_runtime_gates", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ratios = {"eos": 2.0, "innerprod": 4.2}

    def fake_bench_one(name, repeats, min_seconds):
        return {
            "benchmark": name, "category": "kernel",
            "instrumented_seconds": ratios[name] * 1e-3, "raw_seconds": 1e-3,
            "overhead_ratio": ratios[name],
            "instrumented_minor_faults": 0.0, "raw_minor_faults": 0.0,
        }

    monkeypatch.setattr(module, "bench_one", fake_bench_one)
    return module


def _committed(tmp_path: Path, ratios: dict) -> Path:
    path = tmp_path / "committed.json"
    path.write_text(json.dumps({"results": [
        {"benchmark": name, "overhead_ratio": ratio} for name, ratio in ratios.items()
    ]}))
    return path


def _main(module, tmp_path, committed, *extra):
    return module.main([
        "eos", "innerprod", "--output", str(tmp_path / "fresh.json"),
        "--baseline", str(tmp_path / "none.json"),
        "--compare-to", str(committed), *extra,
    ])


def test_tripped_wire_still_reports_the_regression_gate(bench_runtime, tmp_path, capsys):
    committed = _committed(tmp_path, {"eos": 2.0, "innerprod": 4.2})
    assert _main(bench_runtime, tmp_path, committed, "--fail-over-ratio", "4.0") == 1
    captured = capsys.readouterr()
    assert "FAIL: innerprod overhead x4.20 exceeds limit x4.00" in captured.err
    assert "geomean overhead regression vs committed.json: 1.000" in captured.out
    assert "per-trial overhead regressed" not in captured.err


def test_regression_gate_fails_on_its_own(bench_runtime, tmp_path, capsys):
    committed = _committed(tmp_path, {"eos": 1.0, "innerprod": 2.0})
    assert _main(bench_runtime, tmp_path, committed, "--fail-over-ratio", "5.0") == 1
    assert "per-trial overhead regressed" in capsys.readouterr().err


def test_all_gates_pass(bench_runtime, tmp_path):
    committed = _committed(tmp_path, {"eos": 2.0, "innerprod": 4.2})
    assert _main(bench_runtime, tmp_path, committed, "--fail-over-ratio", "5.0") == 0
