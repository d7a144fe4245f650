"""YAML harness configuration (paper Listing 4).

The harness is driven by a per-benchmark YAML file::

    kmeans:
      benchmark: kmeans          # suite registry name (defaults to the key)
      build: ['generate-inputs'] # build/deploy steps (informational)
      clean: ['remove-inputs']
      metric: MCR                # quality metric for verification
      threshold: 1.0e-6          # acceptance threshold
      runs: 10                   # timed runs per configuration
      time_limit_hours: 24       # simulated analysis budget
      executor: process          # batch executor: serial/thread/process
      workers: 4                 # worker count for thread/process
      cache: true                # persistent evaluation cache on/off
      analysis:
        floatsmith:              # analysis id
          name: floatSmith       # plugin name in the registry
          extra_args:
            algorithm: ddebug    # search strategy

Unknown keys are rejected so typos fail loudly.  ``load_config``
returns one :class:`HarnessConfig` per top-level key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from repro.errors import HarnessConfigError

__all__ = ["AnalysisSpec", "HarnessConfig", "load_config", "parse_config"]

_TOP_KEYS = {
    "benchmark", "build", "build_dir", "clean", "metric", "threshold",
    "runs", "time_limit_hours", "analysis", "args", "bin", "copy", "output",
    "executor", "workers", "cache", "prune", "shadow", "rounding", "screen",
}

_EXECUTOR_NAMES = ("serial", "thread", "process")


@dataclass(frozen=True)
class AnalysisSpec:
    """One analysis entry: which plugin to run and with what arguments."""

    identifier: str
    plugin: str
    extra_args: dict[str, Any] = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class HarnessConfig:
    """Everything the harness needs to deploy and analyse one program."""

    name: str
    benchmark: str
    metric: str | None = None
    threshold: float | None = None
    runs: int | None = None
    time_limit_hours: float = 24.0
    analyses: tuple[AnalysisSpec, ...] = ()
    build: tuple[str, ...] = ()
    clean: tuple[str, ...] = ()
    #: batch executor (serial/thread/process); None inherits the
    #: harness-wide choice
    executor: str | None = None
    #: worker count for thread/process executors; None inherits
    workers: int | None = None
    #: persistent evaluation cache toggle; None inherits
    cache: bool | None = None
    #: static search-space pruning toggle; None inherits
    prune: bool | None = None
    #: shadow-guided search ordering toggle; None inherits
    shadow: bool | None = None
    #: emulated-format store-rounding mode ("nearest"/"stochastic");
    #: None inherits
    rounding: str | None = None
    #: certified error-bound screening toggle; None inherits
    screen: bool | None = None

    def analysis(self, identifier: str) -> AnalysisSpec:
        for spec in self.analyses:
            if spec.identifier == identifier:
                return spec
        raise HarnessConfigError(
            f"{self.name}: no analysis named {identifier!r}; "
            f"available: {[s.identifier for s in self.analyses]}"
        )


def load_config(path: str | Path) -> list[HarnessConfig]:
    """Load and validate a harness YAML file."""
    path = Path(path)
    if not path.exists():
        raise HarnessConfigError(f"config file not found: {path}")
    try:
        payload = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise HarnessConfigError(f"{path}: invalid YAML: {exc}") from exc
    return parse_config(payload, source=str(path))


def parse_config(payload: Any, source: str = "<config>") -> list[HarnessConfig]:
    """Validate an already-parsed YAML document."""
    if not isinstance(payload, Mapping) or not payload:
        raise HarnessConfigError(
            f"{source}: expected a mapping of benchmark entries, got {type(payload).__name__}"
        )
    configs = []
    for name, body in payload.items():
        configs.append(_parse_entry(str(name), body, source))
    return configs


def _parse_entry(name: str, body: Any, source: str) -> HarnessConfig:
    if not isinstance(body, Mapping):
        raise HarnessConfigError(f"{source}: entry {name!r} must be a mapping")
    unknown = set(body) - _TOP_KEYS
    if unknown:
        raise HarnessConfigError(
            f"{source}: entry {name!r} has unknown keys {sorted(unknown)}"
        )

    threshold = body.get("threshold")
    if threshold is not None:
        try:
            threshold = float(threshold)
        except (TypeError, ValueError):
            raise HarnessConfigError(
                f"{source}: {name}: threshold must be a number, got {threshold!r}"
            ) from None
        if threshold <= 0:
            raise HarnessConfigError(f"{source}: {name}: threshold must be positive")

    runs = body.get("runs")
    if runs is not None:
        if not isinstance(runs, int) or runs < 1:
            raise HarnessConfigError(f"{source}: {name}: runs must be a positive integer")

    hours = body.get("time_limit_hours", 24.0)
    try:
        hours = float(hours)
    except (TypeError, ValueError):
        raise HarnessConfigError(
            f"{source}: {name}: time_limit_hours must be a number"
        ) from None

    executor = body.get("executor")
    if executor is not None:
        executor = str(executor).strip().lower()
        if executor not in _EXECUTOR_NAMES:
            raise HarnessConfigError(
                f"{source}: {name}: executor must be one of "
                f"{list(_EXECUTOR_NAMES)}, got {executor!r}"
            )

    workers = body.get("workers")
    if workers is not None:
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise HarnessConfigError(
                f"{source}: {name}: workers must be a positive integer"
            )

    cache = body.get("cache")
    if cache is not None and not isinstance(cache, bool):
        raise HarnessConfigError(
            f"{source}: {name}: cache must be a boolean"
        )

    prune = body.get("prune")
    if prune is not None and not isinstance(prune, bool):
        raise HarnessConfigError(
            f"{source}: {name}: prune must be a boolean"
        )

    shadow = body.get("shadow")
    if shadow is not None and not isinstance(shadow, bool):
        raise HarnessConfigError(
            f"{source}: {name}: shadow must be a boolean"
        )

    screen = body.get("screen")
    if screen is not None and not isinstance(screen, bool):
        raise HarnessConfigError(
            f"{source}: {name}: screen must be a boolean"
        )

    rounding = body.get("rounding")
    if rounding is not None:
        rounding = str(rounding).strip().lower()
        if rounding not in ("nearest", "stochastic"):
            raise HarnessConfigError(
                f"{source}: {name}: rounding must be 'nearest' or "
                f"'stochastic', got {rounding!r}"
            )

    analyses = []
    for identifier, spec in (body.get("analysis") or {}).items():
        if not isinstance(spec, Mapping) or "name" not in spec:
            raise HarnessConfigError(
                f"{source}: {name}: analysis {identifier!r} needs a 'name' key"
            )
        extra = spec.get("extra_args") or {}
        if not isinstance(extra, Mapping):
            raise HarnessConfigError(
                f"{source}: {name}: extra_args of {identifier!r} must be a mapping"
            )
        analyses.append(AnalysisSpec(str(identifier), str(spec["name"]), dict(extra)))

    return HarnessConfig(
        name=name,
        benchmark=str(body.get("benchmark", name)),
        metric=body.get("metric"),
        threshold=threshold,
        runs=runs,
        time_limit_hours=hours,
        analyses=tuple(analyses),
        build=tuple(body.get("build") or ()),
        clean=tuple(body.get("clean") or ()),
        executor=executor,
        workers=workers,
        cache=cache,
        prune=prune,
        shadow=shadow,
        rounding=rounding,
        screen=screen,
    )
