"""Smoke tests: every shipped example must run cleanly end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import subprocess_env

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": ["Typeforge:", "Delta-debugging search", "speedup (SU)"],
    "compare_algorithms.py": ["combinational", "genetic", "EV"],
    "tune_lavamd.py": ["working set", "conversion speedup", "threshold"],
    "custom_benchmark.py": ["user-jacobi", "cluster", "SU="],
    "harness_yaml.py": ["kmeans: verify MCR", "interchange artifact"],
}


def _run(name: str, tmp_path) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True, text=True, timeout=600,
        env=subprocess_env(
            MIXPBENCH_DATA=str(tmp_path), HOME=str(tmp_path),
            PYTHONPATH=str(EXAMPLES_DIR.parent / "src"),
        ),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.parametrize("name", sorted(EXPECTED_MARKERS))
def test_example_runs(name, tmp_path):
    stdout = _run(name, tmp_path)
    for marker in EXPECTED_MARKERS[name]:
        assert marker in stdout, f"{name}: missing {marker!r} in output"


def test_examples_directory_is_complete():
    shipped = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert shipped == set(EXPECTED_MARKERS)
