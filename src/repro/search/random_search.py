"""Random search (RS) — the standard baseline (extension).

Not one of the paper's six algorithms, but the baseline any search
comparison should include: sample configurations uniformly over subset
densities for a fixed budget and keep the best passing one.  GA must
beat this to justify its machinery; in our grid it generally does,
because selection reuses information random sampling throws away.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.types import PrecisionConfig
from repro.search.base import SearchStrategy

__all__ = ["RandomSearch"]


class RandomSearch(SearchStrategy):
    """Uniform random sampling of lowered subsets."""

    strategy_name = "random"

    def __init__(self, budget: int = 30, seed: int = 2020) -> None:
        if budget < 1:
            raise ValueError("budget must be positive")
        self.budget = budget
        self.seed = seed

    def describe(self) -> dict:
        info = super().describe()
        info.update(budget=self.budget, seed=self.seed)
        return info

    def _search(self, evaluator: ConfigurationEvaluator) -> PrecisionConfig | None:
        space = self.space(evaluator)
        locations = space.locations()
        n = len(locations)
        rng = np.random.default_rng(self.seed)

        # The rng stream is independent of evaluation results, so the
        # whole sample can be drawn up front (the exact draws the
        # serial loop would make) and evaluated in batches.
        samples: list[PrecisionConfig] = []
        while len(samples) < self.budget:
            # density-stratified sampling: otherwise nearly every draw
            # lowers ~n/2 locations and the sparse/dense extremes are
            # never seen
            density = rng.uniform(0.0, 1.0)
            mask = rng.random(n) < density
            if not mask.any():
                continue
            lowered = [loc for loc, bit in zip(locations, mask) if bit]
            samples.append(self._lower(space, lowered))

        best: PrecisionConfig | None = None
        best_speedup = float("-inf")
        for trial in evaluator.evaluate_many(samples):
            if trial.passed and trial.speedup > best_speedup:
                best = trial.config
                best_speedup = trial.speedup
        return best
