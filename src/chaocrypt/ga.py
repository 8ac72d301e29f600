"""Genetic search over (a, b) for the pair that pushes the ciphertext value
set furthest from the plaintext alphabet.

One seeded generator drives every stochastic decision (spawn, pairing,
mutation) in a fixed order, generation by generation and genome by genome.
Fitness evaluation itself is deterministic, so runs are bit-reproducible for
a fixed seed no matter how evaluations are scheduled, or how many of them a
run reuses instead of recomputing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import xor

from .chaos import A_MAX, A_MIN, B_MAX, B_MIN, MapParams, derive_initial_state
from .cipher import PURE_PYTHON_MAX, build_keystream
from .errors import InvalidInput

TERMINATED_BY_QUORUM = "quorum"
TERMINATED_BY_CAP = "generation-cap"


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 20
    elite_fraction: float = 0.2
    mutation_probability: float = 0.1
    mutation_step: float = 0.05
    fitness_threshold: float = 95.0
    quorum_fraction: float = 0.5
    max_generations: int = 500
    rng_seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise InvalidInput("population_size must be >= 2")
        if not 0.0 < self.elite_fraction <= 1.0:
            raise InvalidInput("elite_fraction must be in (0, 1]")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise InvalidInput("mutation_probability must be in [0, 1]")
        if not 0.0 <= self.mutation_step < math.inf:
            raise InvalidInput("mutation_step must be finite and >= 0")
        if not math.isfinite(self.fitness_threshold):
            raise InvalidInput("fitness_threshold must be finite")
        if not 0.0 <= self.quorum_fraction <= 1.0:
            raise InvalidInput("quorum_fraction must be in [0, 1]")
        if self.max_generations < 1:
            raise InvalidInput("max_generations must be >= 1")


@dataclass(frozen=True)
class EvolutionReport:
    # The (a, b, fitness) row of the first pair scored among the fittest.
    best: tuple[float, float, float]
    generations_run: int
    # history[g - 1] holds generation g's (a, b, fitness) rows, in population order.
    history: tuple[tuple[tuple[float, float, float], ...], ...]
    terminated_by: str


def fitness(plaintext, ciphertext) -> float:
    """100 minus the Jaccard index, 100 * |P n C| / |P u C|, of the sets P
    and C of distinct values in the two inputs.

    `ciphertext` may be bytes or any integer sequence: values past 255, such
    as the full-width keystream XOR values FitnessEvaluator.score_key counts
    in tables, stay distinct.
    """
    if len(plaintext) != len(ciphertext):
        raise InvalidInput("plaintext and ciphertext lengths differ")
    if len(plaintext) == 0:
        raise InvalidInput("inputs must be non-empty")
    p = set(plaintext)
    c = set(ciphertext)
    inter = len(p & c)
    return 100.0 - 100.0 * inter / (len(p) + len(c) - inter)


class FitnessEvaluator:
    """Scores (a, b) pairs against one fixed plaintext.

    The plaintext alphabet and initial state are computed once; `score`
    rebuilds the keystream for a candidate and `score_key` scores a key array
    as `fitness` does, against the full-width keystream XOR values.  The
    keystream's value set is a boolean table indexed by value: every
    byte ^ rank lies below 2**max(8, bit_length(n - 1)), the table width.
    The intersection is that table gathered at the plaintext's distinct byte
    values (at most 256); it and the union are the integers `fitness`
    counts, in its float expression.  `fitness` is the reference definition
    the table counting is tested against.  A plaintext of at most
    cipher.PURE_PYTHON_MAX bytes is kept as bytes and its alphabet as a set,
    and the XOR values are counted in a set, as `fitness` counts them.
    """

    def __init__(self, plaintext):
        data = bytes(plaintext)
        self.initial = derive_initial_state(data)
        self.n = len(data)
        if self.n <= PURE_PYTHON_MAX:
            self._bytes, self._alphabet = data, set(data)
            return
        import numpy as np

        # uint8 ^ int64 key values is int64: the table index needs no wider copy.
        self._bytes = np.frombuffer(data, dtype=np.uint8)
        self._width = 1 << max(8, (self.n - 1).bit_length())
        # Not np.unique (its first call costs 18 ms and 1.7 MB of RSS), nor
        # np.bincount (it counts through an int64 copy of the bytes).
        seen = np.zeros(256, dtype=bool)
        seen[self._bytes] = True
        self._alphabet = np.flatnonzero(seen)

    def score(self, params: MapParams) -> float:
        return self.score_key(build_keystream(params, self.initial, self.n))

    def score_key(self, key) -> float:
        """Fitness of the n-value key array K of a keystream (K[i] < n)."""
        if self.n <= PURE_PYTHON_MAX:
            values = set(map(xor, self._bytes, key))
            inter = len(self._alphabet & values)
            union = len(self._alphabet) + len(values) - inter
        else:
            import numpy as np

            seen = np.zeros(self._width, dtype=bool)
            seen[self._bytes ^ key] = True
            inter = int(np.count_nonzero(seen[self._alphabet]))
            union = self._alphabet.size + int(np.count_nonzero(seen)) - inter
        return 100.0 - 100.0 * inter / union


def spawn_population(config: GaConfig, rng: random.Random) -> list[tuple[float, float]]:
    """population_size (a, b) pairs, a ~ U(1, 4) and b ~ U(0.1, 4)."""
    return [
        (rng.uniform(A_MIN, A_MAX), rng.uniform(B_MIN, B_MAX))
        for _ in range(config.population_size)
    ]


def select_top(population, fitnesses, elite_fraction: float) -> list[tuple[float, float]]:
    """The ceil(elite_fraction * N) pairs of highest fitnesses[i] (the score
    of population[i]), descending, ties by index."""
    if len(population) != len(fitnesses):
        raise InvalidInput("population and fitnesses differ in length")
    k = math.ceil(elite_fraction * len(population))
    # A reverse sort keeps equal keys in their original order.
    order = sorted(range(len(population)), key=fitnesses.__getitem__, reverse=True)
    return [population[i] for i in order[:k]]


def crossover(parent_1, parent_2) -> tuple[tuple[float, float], tuple[float, float]]:
    """Swap genes at the single interior cut of the 2-gene chromosome."""
    return (parent_1[0], parent_2[1]), (parent_2[0], parent_1[1])


def mutate(pair, config: GaConfig, rng: random.Random) -> tuple[float, float]:
    """Nudge each gene (independently, with mutation_probability) by a uniform
    step in [-mutation_step, +mutation_step], clamped to the legal range."""
    a, b = pair
    if rng.random() < config.mutation_probability:
        a = min(max(a + rng.uniform(-config.mutation_step, config.mutation_step), A_MIN), A_MAX)
    if rng.random() < config.mutation_probability:
        b = min(max(b + rng.uniform(-config.mutation_step, config.mutation_step), B_MIN), B_MAX)
    return a, b


def evolve(plaintext, config: GaConfig) -> EvolutionReport:
    """Run the full loop: evaluate, select top fraction, refill by crossover
    of random survivor pairs, mutate survivors and offspring alike.

    Stops once strictly more than quorum_fraction of a generation scores at
    least fitness_threshold, or at max_generations.  The report's best row
    is the fittest pair ever scored (the first scored among equals), with the
    score it was given.

    Each distinct (a, b) is scored once per run, at its first appearance,
    and the run's score table is the only record of fitness.
    """
    evaluator = FitnessEvaluator(plaintext)
    scored: dict[tuple[float, float], float] = {}
    rng = random.Random(config.rng_seed)
    population = spawn_population(config, rng)
    history: list[tuple[tuple[float, float, float], ...]] = []
    terminated_by = TERMINATED_BY_CAP

    for generation in range(1, config.max_generations + 1):
        for pair in population:
            if pair not in scored:
                scored[pair] = evaluator.score(MapParams(*pair))
        scores = [scored[pair] for pair in population]
        history.append(tuple((a, b, f) for (a, b), f in zip(population, scores)))
        hits = sum(1 for s in scores if s >= config.fitness_threshold)
        if hits > config.quorum_fraction * config.population_size:
            terminated_by = TERMINATED_BY_QUORUM
            break
        if generation == config.max_generations:
            break

        # The survivors, then whole crossover pairs of random survivors; an
        # odd last slot keeps the first child of its pair.
        survivors = select_top(population, scores, config.elite_fraction)
        population = list(survivors)
        while len(population) < config.population_size:
            population.extend(crossover(rng.choice(survivors), rng.choice(survivors)))
        population = [mutate(pair, config, rng) for pair in population[: config.population_size]]

    best = max(scored, key=scored.__getitem__)
    return EvolutionReport(
        best=(*best, scored[best]),
        generations_run=len(history),
        history=tuple(history),
        terminated_by=terminated_by,
    )
