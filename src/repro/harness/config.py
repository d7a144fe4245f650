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
      cache: true                # persistent evaluation cache on/off
      executor: process          # search options (see below)
      workers: 4
      analysis:
        floatsmith:              # analysis id
          name: floatSmith       # plugin name in the registry
          extra_args:
            algorithm: ddebug    # search strategy

The entry keys ``executor``, ``workers``, ``prune``, ``shadow``,
``rounding`` and ``screen`` set the entry's
:class:`~repro.harness.options.SearchOptions` fields (``workers`` is
``executor_workers``) and are validated by it; they override the
harness-wide command-line flags, and a ``floatSmith`` analysis's
``extra_args`` override them in turn (docs/harness.md).

Unknown keys and ill-typed values are rejected with
:class:`~repro.errors.HarnessConfigError` so typos fail loudly.
``load_config`` returns one :class:`HarnessConfig` per top-level key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from repro.errors import HarnessConfigError
from repro.harness.options import (
    OptionError, SearchOptions, as_count, as_flag, as_number,
)

__all__ = ["AnalysisSpec", "HarnessConfig", "load_config", "parse_config"]

#: entry keys that set a search option: YAML key -> SearchOptions field
_OPTION_KEYS = {
    "executor": "executor", "workers": "executor_workers", "prune": "prune",
    "shadow": "shadow", "rounding": "rounding", "screen": "screen",
}

_TOP_KEYS = {
    "benchmark", "build", "build_dir", "clean", "metric", "threshold",
    "runs", "time_limit_hours", "analysis", "args", "bin", "copy", "output",
    "cache", *_OPTION_KEYS,
}


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
    #: persistent evaluation cache toggle; None inherits
    cache: bool | None = None
    #: the search options this entry sets (SearchOptions field ->
    #: validated value); the others inherit the harness-wide choice
    options: dict[str, Any] = field(default_factory=dict, hash=False)

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

    def invalid(key: str, reason: str) -> HarnessConfigError:
        return HarnessConfigError(f"{source}: {name}: {key} {reason}")

    def checked(key: str, check, default=None):
        value = body.get(key)
        if value is None:
            return default
        try:
            return check(value)
        except ValueError as error:
            raise invalid(key, f"{error}, got {value!r}") from None

    threshold = checked("threshold", lambda v: as_number(_numeric(v), positive=True))
    runs = checked("runs", lambda v: as_count(v, 1))
    hours = checked(
        "time_limit_hours",
        lambda v: as_number(_numeric(v), positive=True, allow_inf=True), 24.0,
    )
    metric = checked("metric", _string)
    benchmark = checked("benchmark", _string, name)
    build = checked("build", _steps, ())
    clean = checked("clean", _steps, ())
    cache = checked("cache", as_flag)

    overrides = {
        field_name: body[key] for key, field_name in _OPTION_KEYS.items()
        if body.get(key) is not None
    }
    try:
        validated = SearchOptions(**overrides)
    except OptionError as error:
        key = next(key for key, name in _OPTION_KEYS.items() if name == error.name)
        raise invalid(key, error.reason) from None
    options = {field_name: getattr(validated, field_name) for field_name in overrides}

    analysis = body.get("analysis") or {}
    if not isinstance(analysis, Mapping):
        raise invalid("analysis", "must be a mapping of analysis ids")
    analyses = []
    for identifier, spec in analysis.items():
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
        benchmark=benchmark,
        metric=metric,
        threshold=threshold,
        runs=runs,
        time_limit_hours=hours,
        analyses=tuple(analyses),
        build=build,
        clean=clean,
        cache=cache,
        options=options,
    )


def _numeric(value: Any) -> Any:
    """YAML 1.1 reads ``1e-6`` (no decimal point) as a string; accept
    any string that spells a number."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ValueError("must be a number") from None
    return value


def _string(value: Any) -> str:
    if not isinstance(value, str):
        raise ValueError("must be a string")
    return value


def _steps(value: Any) -> tuple[str, ...]:
    """A build/clean step list; a single string is one step."""
    if isinstance(value, str):
        return (value,)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError("must be a list of strings")
    return tuple(value)
