"""Shared test helpers: a synthetic tunable program.

Search-algorithm tests should not pay for real benchmark executions,
so :class:`ToyProgram` implements the :class:`repro.core.program.Program`
protocol analytically: the caller declares which clusters are *toxic*
(lowering any of them exceeds the quality threshold) and how much
modeled time each lowered cluster saves.  Every search strategy can be
exercised against it in microseconds, with fully predictable optima.
:func:`write_v1_journal` writes a run journal in the first, retired
journal format.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.core.checkpoint import grid_fingerprint, job_key
from repro.core.program import ExecutionResult
from repro.core.types import Precision, PrecisionConfig
from repro.core.variables import Cluster, Granularity, SearchSpace, Variable, VariableKind
from repro.runtime.profiler import OpClass, Profile
from repro.verify.quality import QualitySpec

__all__ = ["ToyProgram", "make_space", "subprocess_env", "write_v1_journal"]


def subprocess_env(**fields: str) -> dict[str, str]:
    """A from-scratch environment for a Python subprocess: a system
    ``PATH`` plus ``fields``.  ``PYTHONDONTWRITEBYTECODE`` is copied
    through when set, so a test run that keeps bytecode out of the
    checkout keeps it out of its subprocesses too."""
    env = {"PATH": "/usr/bin:/bin", **fields}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def write_v1_journal(runs_dir: Path, run_id: str, jobs) -> None:
    """A version-1 run journal of ``jobs``: its header and a
    ``job_done`` record that carries the first job's whole result."""
    records = [
        {"kind": "run", "run_id": run_id, "version": 1,
         "grid": grid_fingerprint(jobs),
         "jobs": [job_key(index, job) for index, job in enumerate(jobs)]},
        {"kind": "job_done", "job": job_key(0, jobs[0]),
         "result": {"outcome": None, "error": "x", "error_kind": "RuntimeError"}},
    ]
    directory = Path(runs_dir) / run_id
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "journal.jsonl").write_text(
        "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
    )


def make_space(
    n_clusters: int = 4,
    members_per_cluster: int = 1,
    functions: tuple[str, ...] = ("main",),
) -> SearchSpace:
    """A synthetic search space of ``n_clusters`` equally sized clusters,
    spread round-robin over ``functions`` for hierarchy tests."""
    variables = []
    clusters = []
    for c in range(n_clusters):
        members = []
        for m in range(members_per_cluster):
            function = functions[c % len(functions)]
            var = Variable(f"v{c}_{m}", VariableKind.ARRAY, function, "toy")
            variables.append(var)
            members.append(var.uid)
        clusters.append(Cluster(min(members), frozenset(members)))
    return SearchSpace(variables, clusters)


class ToyProgram:
    """Analytic stand-in for a benchmark.

    Parameters
    ----------
    n_clusters / members_per_cluster / functions:
        Shape of the search space.
    toxic:
        Cluster indices whose lowering pushes the error above 1.0
        (tests use a :class:`QualitySpec` threshold below that).
    gain_per_cluster:
        Fractional modeled-time reduction per lowered non-toxic cluster.
    error_per_cluster:
        Error contributed by each lowered non-toxic cluster.
    """

    runs_per_config = 10
    compile_seconds = 10.0
    nominal_seconds = 5.0

    def __init__(
        self,
        n_clusters: int = 4,
        members_per_cluster: int = 1,
        functions: tuple[str, ...] = ("main",),
        toxic: tuple[int, ...] = (),
        gain_per_cluster: float = 0.1,
        error_per_cluster: float = 1e-10,
        metric: str = "MAE",
        threshold: float = 1e-6,
    ) -> None:
        self.name = "toy"
        self._space = make_space(n_clusters, members_per_cluster, functions)
        self._toxic = {self._space.clusters[i].cid for i in toxic}
        self.gain_per_cluster = gain_per_cluster
        self.error_per_cluster = error_per_cluster
        self.quality = QualitySpec(metric, threshold)
        self.executions = 0

    def search_space(self, granularity: Granularity = Granularity.CLUSTER) -> SearchSpace:
        return self._space.at(granularity)

    def lowered_clusters(self, config: PrecisionConfig) -> list:
        return [
            cluster for cluster in self._space.clusters
            if all(config.precision_of(uid) < Precision.DOUBLE for uid in cluster.members)
        ]

    def _half_clusters(self, config: PrecisionConfig) -> int:
        return sum(
            1 for cluster in self._space.clusters
            if all(config.precision_of(uid) is Precision.HALF for uid in cluster.members)
        )

    def execute(self, config: PrecisionConfig) -> ExecutionResult:
        self.executions += 1
        lowered = self.lowered_clusters(config)
        toxic_count = sum(1 for c in lowered if c.cid in self._toxic)
        clean_count = len(lowered) - toxic_count
        error = toxic_count * 10.0 + clean_count * self.error_per_cluster
        # half precision gains half as much again per clean cluster
        half_bonus = 0.5 * self.gain_per_cluster * self._half_clusters(config)
        modeled = 1.0 / (1.0 + self.gain_per_cluster * clean_count + half_bonus)
        output = np.zeros(8)
        output[0] = error
        profile = Profile()
        profile.record_op(OpClass.CHEAP, "float64", 100.0)
        return ExecutionResult(output=output, profile=profile, modeled_seconds=modeled)
