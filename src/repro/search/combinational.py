"""Combinational (CB) search: exhaustive enumeration.

"Try all combinations of variables or clusters: the brute-force or
exhaustive search approach" (paper Section II-B).  Only tractable for
the kernels, whose clustered search spaces have 1–2 locations; the
paper (and our harness) does not run CB on the applications.

Configurations are enumerated most-aggressive-first (most locations
lowered), and the best *passing* configuration by speedup wins.

With ``levels`` the enumeration covers the paper's full ``p ** loc``
search space (Section II: "each of these locations could be
transformed to use up to p precision levels"): every assignment of
every level to every location, not just the two-level subsets.
"""

from __future__ import annotations

from itertools import combinations, product

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.types import Precision, PrecisionConfig
from repro.search.base import SearchStrategy

__all__ = ["CombinationalSearch"]


class CombinationalSearch(SearchStrategy):
    """Exhaustive search over all non-trivial subsets of locations."""

    strategy_name = "combinational"

    def __init__(
        self,
        max_locations: int = 24,
        levels: tuple[Precision, ...] | None = None,
        max_configurations: int = 4096,
    ) -> None:
        """``max_locations`` guards against accidentally launching an
        intractable 2^n enumeration; the budget would stop it anyway,
        but failing fast is kinder.  Passing ``levels`` (e.g.
        ``(Precision.HALF, Precision.SINGLE, Precision.DOUBLE)``)
        switches to the full multi-level ``p ** loc`` enumeration,
        bounded by ``max_configurations``.  The enumeration streams
        through the evaluator's batch API, so a parallel executor can
        overlap the independent executions."""
        self.max_locations = max_locations
        self.levels = tuple(levels) if levels else None
        self.max_configurations = max_configurations

    def _best_of(self, evaluator: ConfigurationEvaluator, configs):
        """Evaluate an enumeration stream, keeping the fastest passing
        configuration (first wins ties, like the serial loop did)."""
        best: PrecisionConfig | None = None
        best_speedup = float("-inf")
        for trial in evaluator.evaluate_many(configs):
            if trial.passed and trial.speedup > best_speedup:
                best = trial.config
                best_speedup = trial.speedup
        return best

    def describe(self) -> dict:
        info = super().describe()
        info["max_locations"] = self.max_locations
        if self.levels:
            info["levels"] = [p.value for p in self.levels]
        return info

    def _search(self, evaluator: ConfigurationEvaluator) -> PrecisionConfig | None:
        space = self.space(evaluator)
        locations = space.locations()
        if len(locations) > self.max_locations:
            raise ValueError(
                f"combinational search over {len(locations)} locations is "
                f"intractable (limit {self.max_locations}); use another strategy"
            )
        if self.levels:
            return self._search_multilevel(evaluator, space, locations)

        configs = (
            self._lower(space, subset)
            for size in range(len(locations), 0, -1)
            for subset in combinations(locations, size)
        )
        return self._best_of(evaluator, configs)

    def _search_multilevel(self, evaluator, space, locations) -> PrecisionConfig | None:
        """The full p**loc enumeration of the paper's Section II."""
        levels = sorted(set(self.levels) | {Precision.DOUBLE},
                        key=lambda p: p.bits)
        count = len(levels) ** len(locations)
        if count > self.max_configurations:
            raise ValueError(
                f"multi-level enumeration of {count} configurations exceeds "
                f"the {self.max_configurations} ceiling"
            )
        assignments = sorted(
            product(levels, repeat=len(locations)),
            key=lambda combo: sum(p.bits for p in combo),  # aggressive first
        )
        configs = (
            space.config_from_choices(dict(zip(locations, combo)))
            for combo in assignments
            if not all(p is Precision.DOUBLE for p in combo)  # skip unchanged
        )
        return self._best_of(evaluator, configs)
