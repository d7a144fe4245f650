"""Analysis plugin interface.

"The harness is extensible to implement different analysis techniques
on a deployed application through a plugin interface.  Implementing a
new analysis technique entails extending a base Python class, which
defines an analysis function" (paper Section III-A.c).

A plugin receives a :class:`DeployedApp` — the benchmark plus the
verification setup the harness prepared — and returns an
:class:`AnalysisResult` whose ``artifact`` is the path of the tuned
configuration written in the FloatSmith JSON interchange format (the
analogue of the paper's "path to the executable of the analyzed
application").

The built-in ``floatSmith`` plugin runs the Typeforge analysis and one
of the six CRAFT search strategies.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from repro.benchmarks.base import Benchmark
from repro.core.results import SearchOutcome
from repro.errors import PluginError
from repro.harness.options import OptionError, SearchOptions, build_evaluator
from repro.search.registry import make_strategy
from repro.search.registry import strategy_kwargs as _registry_kwargs
from repro.verify.quality import QualitySpec

__all__ = [
    "DeployedApp", "AnalysisResult", "AnalysisPlugin",
    "FloatSmithPlugin", "register_plugin", "get_plugin", "available_plugins",
]


@dataclass
class DeployedApp:
    """A benchmark deployed by the harness, ready to be analysed.

    The three optional services carry the harness's execution layer
    down to the plugin's evaluator: a batch executor for parallel
    configuration evaluation, a persistent evaluation cache, and a
    trace writer for telemetry.  Plugins that ignore them keep the
    original serial behaviour.  ``options`` holds the harness-wide
    search options with the YAML entry's keys applied; its time limit is
    set from ``time_limit_seconds``, so both read the same budget.
    """

    benchmark: Benchmark
    quality: QualitySpec
    runs_per_config: int
    time_limit_seconds: float
    output_dir: Path
    executor: Any = None
    cache: Any = None
    trace: Any = None
    options: SearchOptions = field(default_factory=SearchOptions)

    def __post_init__(self) -> None:
        self.options = replace(self.options, time_limit_seconds=self.time_limit_seconds)


@dataclass
class AnalysisResult:
    """What an analysis produced: the tuned-configuration artifact and
    the raw search outcome behind it."""

    artifact: Path
    outcome: SearchOutcome


class AnalysisPlugin(ABC):
    """Base class for harness analyses (paper's plugin interface)."""

    #: registry name used in YAML ``analysis.<id>.name``
    plugin_name: str = ""

    @abstractmethod
    def analysis(self, app: DeployedApp, **extra_args: Any) -> AnalysisResult:
        """Analyse a deployed application and return the artifact."""


class FloatSmithPlugin(AnalysisPlugin):
    """Source-level mixed-precision search via Typeforge + CRAFT."""

    plugin_name = "floatSmith"

    #: ``extra_args`` keys that set a search option for this analysis
    #: alone, overriding the YAML entry and the harness-wide flag
    OPTION_ARGS = ("max_evaluations", "prune", "shadow", "rounding", "screen")

    def analysis(self, app: DeployedApp, **extra_args: Any) -> AnalysisResult:
        algorithm = str(extra_args.pop("algorithm", "ddebug"))
        strategy_kwargs = extra_args.pop("strategy_args", {})
        if not isinstance(strategy_kwargs, Mapping):
            raise PluginError("floatSmith: extra_args strategy_args must be a mapping")
        strategy_kwargs = dict(strategy_kwargs)
        overrides = {
            name: extra_args.pop(name) for name in self.OPTION_ARGS if name in extra_args
        }
        if extra_args:
            raise PluginError(
                f"floatSmith: unknown extra_args {sorted(extra_args)}"
            )
        try:
            options = replace(app.options, **overrides)
        except OptionError as error:
            raise PluginError(
                f"floatSmith: extra_args {error.name} {error.reason}"
            ) from None

        bench = app.benchmark
        bench.runs_per_config = app.runs_per_config
        evaluator = build_evaluator(
            bench, app.quality, options,
            executor=app.executor, cache=app.cache, trace=app.trace,
        )
        for key, value in _registry_kwargs(algorithm, rounding=options.rounding).items():
            strategy_kwargs.setdefault(key, value)
        strategy = make_strategy(algorithm, **strategy_kwargs)
        outcome = strategy.run(evaluator)

        artifact = app.output_dir / f"{bench.name}-{strategy.strategy_name}.json"
        artifact.parent.mkdir(parents=True, exist_ok=True)
        best = outcome.final.config.to_json_dict() if outcome.found_solution else None
        artifact.write_text(json.dumps(
            {
                "program": bench.name,
                "strategy": strategy.strategy_name,
                "threshold": app.quality.threshold,
                "timed_out": outcome.timed_out,
                "configuration": best,
            },
            indent=2, sort_keys=True,
        ))
        return AnalysisResult(artifact=artifact, outcome=outcome)


_PLUGINS: dict[str, type[AnalysisPlugin]] = {}


def register_plugin(cls: type[AnalysisPlugin]) -> type[AnalysisPlugin]:
    """Register a plugin class under its ``plugin_name``."""
    if not cls.plugin_name:
        raise PluginError(f"{cls.__name__} has no plugin_name")
    _PLUGINS[cls.plugin_name.lower()] = cls
    return cls


def get_plugin(name: str) -> AnalysisPlugin:
    try:
        cls = _PLUGINS[name.strip().lower()]
    except KeyError:
        raise PluginError(
            f"unknown analysis plugin {name!r}; available: {sorted(_PLUGINS)}"
        ) from None
    return cls()


def available_plugins() -> tuple[str, ...]:
    return tuple(sorted(_PLUGINS))


register_plugin(FloatSmithPlugin)
