"""Genetic algorithm (GA) search — the strategy the paper adds to CRAFT.

"GA starts with a population of random configurations, where a
configuration is an array of bits that represents the precision of the
program variables ...  the fittest individual is the one that gives
the best performance while satisfying the error criteria ...  The
algorithm terminates when a maximum number of generations have been
created or when the best-fit individual of the population doesn't
change for several iterations" (paper Section II-B).

The genome is one bit per cluster (1 = lowered).  Fitness is the
measured speedup for passing configurations and a sub-unity penalty
for failing ones, so selection pressure points at fast *valid*
configurations.  The small iteration ceiling mirrors the paper's
setting ("we significantly decrease the search time of GA by providing
a small number of maximum iterations"), which both bounds EV — making
GA's analysis time the easiest to predict — and occasionally makes it
miss the optimum, as the paper observes on Hotspot.
"""

from __future__ import annotations

import numpy as np

from repro.core.evaluator import ConfigurationEvaluator
from repro.core.results import TrialRecord
from repro.core.types import PrecisionConfig
from repro.search.base import SearchStrategy

__all__ = ["GeneticSearch"]


class GeneticSearch(SearchStrategy):
    """Evolutionary search over cluster bit-strings."""

    strategy_name = "genetic"

    def __init__(
        self,
        population_size: int = 6,
        max_generations: int = 10,
        stagnation_limit: int = 4,
        crossover_rate: float = 0.9,
        mutation_scale: float = 1.0,
        seed: int = 2020,
    ) -> None:
        if population_size < 2:
            raise ValueError("population_size must be at least 2")
        self.population_size = population_size
        self.max_generations = max_generations
        self.stagnation_limit = stagnation_limit
        self.crossover_rate = crossover_rate
        self.mutation_scale = mutation_scale
        self.seed = seed

    def describe(self) -> dict:
        info = super().describe()
        info.update(
            population_size=self.population_size,
            max_generations=self.max_generations,
            stagnation_limit=self.stagnation_limit,
            seed=self.seed,
        )
        return info

    def _search(self, evaluator: ConfigurationEvaluator) -> PrecisionConfig | None:
        space = self.space(evaluator)
        locations = space.locations()
        n = len(locations)
        rng = np.random.default_rng(self.seed)
        # Shadow guidance reshapes the *seeding* only: genome layout,
        # crossover and mutation are untouched, so the unguided run is
        # byte-identical to the order-free code path.
        order = getattr(evaluator, "location_order", None)
        asc: list[int] | None = None
        if order is not None:
            position = {loc: i for i, loc in enumerate(locations)}
            ranked = order.arrange(locations, space)  # most sensitive first
            asc = [position[loc] for loc in reversed(ranked)]

        def to_config(genome: np.ndarray) -> PrecisionConfig:
            return self._lower(space, [loc for loc, bit in zip(locations, genome) if bit])

        threshold = evaluator.quality.threshold

        def fitness(trial: TrialRecord | None) -> float:
            if trial is None:
                return 0.6  # the unchanged program: valid, no gain
            if trial.passed:
                return max(trial.speedup, 0.7)
            # Graded penalty: failing individuals score by how close
            # their error is to the threshold, giving selection a
            # gradient toward the valid region (without it, fragile
            # programs leave the whole population equally unfit and
            # evolution stalls).
            error = trial.error_value
            if error != error:  # NaN output: worst possible
                return 0.01
            return 0.5 * threshold / (threshold + error)

        def evaluate_population(genomes) -> list[tuple[float, TrialRecord | None]]:
            # A generation is embarrassingly parallel: one batch call
            # evaluates its non-empty genomes (the empty genome is the
            # unchanged program and needs no trial).
            trials = iter(evaluator.evaluate_many(to_config(g) for g in genomes if g.any()))
            scored = []
            for genome in genomes:
                trial = next(trials) if genome.any() else None
                scored.append((fitness(trial), trial))
            return scored

        # Random initial population with graded density plus a few
        # random singletons: sparse individuals are far more likely to
        # be valid on fragile programs, dense ones capture wholesale
        # conversions — together they give evolution a foothold at both
        # ends of the search space.
        # A shuffled stream of singleton genomes: initial seeds and the
        # per-generation random immigrants draw from it without
        # replacement, so the minimal end of the space is sampled
        # systematically rather than with collisions.
        # Guided, the stream serves least-sensitive singletons first
        # (the ones most likely to pass); unguided it stays random.
        singleton_stream = iter(
            asc if asc is not None else (rng.permutation(n) if n else [])
        )

        def next_singleton() -> np.ndarray | None:
            index = next(singleton_stream, None)
            if index is None:
                return None
            genome = np.zeros(n, dtype=bool)
            genome[index] = True
            return genome

        population = []
        for i in range(self.population_size):
            genome = None
            if i % 2 == 0:
                genome = next_singleton()
            if genome is None:
                if asc is not None:
                    # Density genomes become least-sensitive prefixes:
                    # the k most conversion-tolerant locations.
                    k = int(round(n * (i + 1) / (self.population_size + 1)))
                    genome = np.zeros(n, dtype=bool)
                    genome[asc[:k]] = True
                else:
                    genome = rng.random(n) < (i + 1) / (self.population_size + 1)
            population.append(genome)
        scored = evaluate_population(population)

        best_trial: TrialRecord | None = None
        best_passing_fitness = float("-inf")
        best_seen_fitness = float("-inf")
        stagnant = 0
        for _generation in range(self.max_generations):
            generation_best = max(fit for fit, _trial in scored)
            for (fit, trial) in scored:
                if trial is not None and trial.passed and fit > best_passing_fitness:
                    best_passing_fitness = fit
                    best_trial = trial
            # Stagnation tracks the best-fit individual overall (the
            # paper's criterion), so a population still climbing the
            # failing-fitness gradient keeps evolving.
            if generation_best > best_seen_fitness + 1e-9:
                best_seen_fitness = generation_best
                stagnant = 0
            else:
                stagnant += 1
            if stagnant >= self.stagnation_limit:
                break

            population = self._next_generation(
                population, scored, rng, n, next_singleton,
            )
            scored = evaluate_population(population)

        # Final sweep over the last generation.
        for (fit, trial) in scored:
            if trial is not None and trial.passed and fit > best_passing_fitness:
                best_passing_fitness = fit
                best_trial = trial
        return best_trial.config if best_trial is not None else None

    def _next_generation(self, population, scored, rng, n, next_singleton):
        """Tournament selection, uniform crossover, bit-flip mutation,
        plus one random-immigrant singleton per generation (a standard
        diversity device that keeps the minimal end of the space
        sampled when the population drifts dense)."""
        fitnesses = np.array([fit for fit, _trial in scored])

        def tournament() -> np.ndarray:
            i, j = rng.integers(0, len(population), size=2)
            return population[i] if fitnesses[i] >= fitnesses[j] else population[j]

        # Elitism: carry the fittest individual over unchanged.
        elite = population[int(np.argmax(fitnesses))]
        offspring = [elite.copy()]
        if self.population_size > 2:
            immigrant = next_singleton()
            if immigrant is not None:
                offspring.append(immigrant)
        mutation_rate = min(0.5, self.mutation_scale / max(n, 1))
        while len(offspring) < self.population_size:
            mother, father = tournament(), tournament()
            if rng.random() < self.crossover_rate:
                mask = rng.random(n) < 0.5
                child = np.where(mask, mother, father)
            else:
                child = mother.copy()
            flip = rng.random(n) < mutation_rate
            child = np.logical_xor(child, flip)
            offspring.append(child)
        return offspring
