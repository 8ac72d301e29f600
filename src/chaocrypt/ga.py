"""Genetic search over (a, b) for the pair that pushes the ciphertext value
set furthest from the plaintext alphabet.

One seeded generator drives every stochastic decision (spawn, pairing,
mutation) in a fixed order, generation by generation and genome by genome.
Fitness evaluation itself is deterministic, so runs are bit-reproducible for
a fixed seed no matter how evaluations are scheduled.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .chaos import A_MAX, A_MIN, B_MAX, B_MIN, MapParams, derive_initial_state
from .cipher import build_keystream
from .errors import InvalidInput, InvalidState

TERMINATED_BY_QUORUM = "quorum"
TERMINATED_BY_CAP = "generation-cap"


@dataclass(frozen=True)
class Genome:
    """A candidate key with its score, or fitness=None before evaluation."""

    params: MapParams
    fitness: float | None = None


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
        if self.mutation_step < 0.0:
            raise InvalidInput("mutation_step must be >= 0")
        if not 0.0 <= self.quorum_fraction <= 1.0:
            raise InvalidInput("quorum_fraction must be in [0, 1]")
        if self.max_generations < 1:
            raise InvalidInput("max_generations must be >= 1")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    max_fitness: float
    mean_fitness: float
    population: tuple[tuple[float, float, float], ...]  # (a, b, fitness)


@dataclass(frozen=True)
class EvolutionReport:
    best_genome: Genome
    generations_run: int
    history: tuple[GenerationRecord, ...]
    terminated_by: str


def jaccard_index(set_a, set_b) -> float:
    """100 * |A n B| / |A u B| over the distinct values of both inputs."""
    a = set(set_a)
    b = set(set_b)
    if not a and not b:
        raise InvalidInput("both sets are empty")
    inter = len(a & b)
    return 100.0 * inter / (len(a) + len(b) - inter)


def fitness(plaintext, ciphertext) -> float:
    """100 minus the Jaccard index of the two value alphabets.

    `ciphertext` may be bytes or any integer sequence; the optimizer feeds
    the un-reduced keystream XOR values here, whose set is not capped at 256
    distinct bytes.
    """
    if len(plaintext) != len(ciphertext):
        raise InvalidInput("plaintext and ciphertext lengths differ")
    if len(plaintext) == 0:
        raise InvalidInput("inputs must be non-empty")
    return 100.0 - jaccard_index(plaintext, ciphertext)


class FitnessEvaluator:
    """Scores (a, b) pairs against one fixed plaintext.

    The plaintext alphabet and initial state are computed once; each call
    rebuilds the keystream for the candidate and scores it as `fitness` does,
    against the full-width keystream XOR values.
    """

    def __init__(self, plaintext):
        data = bytes(plaintext)
        self._initial = derive_initial_state(data)
        self._bytes = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
        self._byte_set = set(self._bytes.tolist())
        self.n = len(data)

    def score(self, params: MapParams) -> float:
        ks = build_keystream(params, self._initial, self.n)
        return 100.0 - jaccard_index(self._byte_set, (self._bytes ^ ks.key).tolist())


def spawn_population(config: GaConfig, rng: random.Random) -> list[Genome]:
    """population_size genomes, a ~ U(1, 4) and b ~ U(0.1, 4), unevaluated."""
    return [
        Genome(MapParams(rng.uniform(A_MIN, A_MAX), rng.uniform(B_MIN, B_MAX)))
        for _ in range(config.population_size)
    ]


def select_top(population, elite_fraction: float) -> list[Genome]:
    """The ceil(elite_fraction * N) fittest genomes, descending, ties by index."""
    for g in population:
        if g.fitness is None:
            raise InvalidState("population contains unevaluated genomes")
    k = math.ceil(elite_fraction * len(population))
    order = sorted(range(len(population)), key=lambda i: (-population[i].fitness, i))
    return [population[i] for i in order[:k]]


def crossover(parent_1: Genome, parent_2: Genome) -> tuple[Genome, Genome]:
    """Swap genes at the single interior cut of the 2-gene chromosome."""
    return (
        Genome(MapParams(parent_1.params.a, parent_2.params.b)),
        Genome(MapParams(parent_2.params.a, parent_1.params.b)),
    )


def _clamp(v: float, lo: float, hi: float) -> float:
    return lo if v < lo else hi if v > hi else v


def mutate(genome: Genome, config: GaConfig, rng: random.Random) -> Genome:
    """Nudge each gene (independently, with mutation_probability) by a uniform
    step in [-mutation_step, +mutation_step], clamped to the legal range."""
    a, b = genome.params.a, genome.params.b
    na, nb = a, b
    if rng.random() < config.mutation_probability:
        na = _clamp(a + rng.uniform(-config.mutation_step, config.mutation_step), A_MIN, A_MAX)
    if rng.random() < config.mutation_probability:
        nb = _clamp(b + rng.uniform(-config.mutation_step, config.mutation_step), B_MIN, B_MAX)
    if na == a and nb == b:
        return genome
    return Genome(MapParams(na, nb))


def evolve(plaintext, config: GaConfig) -> EvolutionReport:
    """Run the full loop: evaluate, select top fraction, refill by crossover
    of random survivor pairs, mutate survivors and offspring alike.

    Stops once strictly more than quorum_fraction of a generation scores at
    least fitness_threshold, or at max_generations.  The returned best genome
    is the fittest ever evaluated, snapshotted before mutation so it really
    achieves its recorded score.
    """
    evaluator = FitnessEvaluator(plaintext)
    rng = random.Random(config.rng_seed)
    population = spawn_population(config, rng)
    history: list[GenerationRecord] = []
    best: Genome | None = None
    terminated_by = TERMINATED_BY_CAP
    generation = 0

    for generation in range(1, config.max_generations + 1):
        population = [
            g if g.fitness is not None else replace(g, fitness=evaluator.score(g.params))
            for g in population
        ]
        scores = [g.fitness for g in population]
        history.append(
            GenerationRecord(
                generation=generation,
                max_fitness=max(scores),
                mean_fitness=sum(scores) / len(scores),
                population=tuple((g.params.a, g.params.b, g.fitness) for g in population),
            )
        )
        for g in population:
            if best is None or g.fitness > best.fitness:
                best = g
        hits = sum(1 for s in scores if s >= config.fitness_threshold)
        if hits > config.quorum_fraction * config.population_size:
            terminated_by = TERMINATED_BY_QUORUM
            break
        if generation == config.max_generations:
            break

        survivors = select_top(population, config.elite_fraction)
        k = len(survivors)
        children: list[Genome] = []
        while k + len(children) < config.population_size:
            first, second = crossover(survivors[rng.randrange(k)], survivors[rng.randrange(k)])
            children.append(first)
            if k + len(children) < config.population_size:
                children.append(second)
        population = [mutate(g, config, rng) for g in survivors + children]

    return EvolutionReport(
        best_genome=best,
        generations_run=generation,
        history=tuple(history),
        terminated_by=terminated_by,
    )
