import math
import random

import pytest

from chaocrypt import (
    FitnessEvaluator,
    GaConfig,
    Genome,
    InvalidInput,
    MapParams,
    crossover,
    derive_initial_state,
    evolve,
    fitness,
    generate_sequence,
    jaccard_index,
    mutate,
    select_top,
    spawn_population,
)
from chaocrypt.errors import InvalidState


def test_jaccard_identical_sets():
    assert jaccard_index({65}, {65}) == 100.0


def test_jaccard_disjoint_sets():
    assert jaccard_index({65, 66}, {67, 68}) == 0.0


def test_jaccard_half_overlap():
    assert jaccard_index({65, 66, 67}, {66, 67, 68}) == 50.0


def test_jaccard_rejects_two_empty_sets():
    with pytest.raises(InvalidInput):
        jaccard_index(set(), set())


def test_fitness_disjoint_alphabets():
    assert fitness(b"AAA", b"\x00\x00\x00") == 100.0


def test_fitness_identical_inputs_is_zero():
    assert fitness(b"abc", b"abc") == 0.0


def test_fitness_from_jaccard_example():
    assert fitness(bytes([65, 66, 67]), bytes([66, 67, 68])) == 50.0


def test_fitness_rejects_length_mismatch():
    with pytest.raises(InvalidInput):
        fitness(b"ab", b"abc")


def test_fitness_accepts_values_beyond_bytes():
    # The optimizer scores raw keystream XOR values, which pass 255.
    assert fitness(b"\x41", [0x41 ^ 512]) == 100.0


def _descending_ranks(values):
    ranks = [0] * len(values)
    for r, i in enumerate(sorted(range(len(values)), key=lambda i: (-values[i], i))):
        ranks[i] = r
    return ranks


def _brute_force_score(plaintext, params):
    n = len(plaintext)
    xs, ys = generate_sequence(params, derive_initial_state(plaintext), n)
    s_x, s_y = _descending_ranks(xs), _descending_ranks(ys)
    values = [p ^ s_y[s_x[i]] for i, p in enumerate(plaintext)]
    width = max(max(plaintext), max(values)) + 1
    in_p = [False] * width
    in_c = [False] * width
    for v in plaintext:
        in_p[v] = True
    for v in values:
        in_c[v] = True
    inter = sum(1 for i in range(width) if in_p[i] and in_c[i])
    union = sum(1 for i in range(width) if in_p[i] or in_c[i])
    return 100.0 - 100.0 * inter / union


def test_score_matches_brute_force_over_full_width_values():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randrange(1, 600)
        plaintext = bytes(rng.randrange(1, 256) for _ in range(n))
        params = MapParams(rng.uniform(1.0, 4.0), rng.uniform(0.1, 4.0))
        assert FitnessEvaluator(plaintext).score(params) == _brute_force_score(plaintext, params)


def test_spawn_population_ranges_and_size():
    rng = random.Random(0)
    pop = spawn_population(GaConfig(), rng)
    assert len(pop) == 20
    for g in pop:
        assert 1.0 <= g.params.a <= 4.0
        assert 0.1 <= g.params.b <= 4.0
        assert g.fitness is None


def test_spawn_population_is_seed_deterministic():
    pop1 = spawn_population(GaConfig(), random.Random(11))
    pop2 = spawn_population(GaConfig(), random.Random(11))
    assert pop1 == pop2


def test_spawn_population_mean_matches_uniform_law():
    rng = random.Random(1)
    config = GaConfig(population_size=10_000)
    mean_a = sum(g.params.a for g in spawn_population(config, rng)) / 10_000
    assert abs(mean_a - 2.5) <= 0.05


def test_select_top_counts():
    pop = [Genome(MapParams(2.0, 2.0), fitness=float(i)) for i in range(20)]
    assert len(select_top(pop, 0.2)) == 4


def test_select_top_puts_best_first():
    pop = [Genome(MapParams(2.0, 2.0), fitness=0.0) for _ in range(19)]
    star = Genome(MapParams(3.0, 3.0), fitness=100.0)
    pop.insert(7, star)
    assert select_top(pop, 0.2)[0] is star


def test_select_top_breaks_ties_by_index():
    pop = [Genome(MapParams(1.0 + i * 0.1, 2.0), fitness=50.0) for i in range(10)]
    assert select_top(pop, 0.2) == pop[:2]


def test_select_top_rejects_unevaluated():
    pop = [Genome(MapParams(2.0, 2.0))] * 5
    with pytest.raises(InvalidState):
        select_top(pop, 0.2)


def test_crossover_swaps_genes():
    kid1, kid2 = crossover(Genome(MapParams(1.5, 2.0)), Genome(MapParams(3.0, 0.5)))
    assert (kid1.params.a, kid1.params.b) == (1.5, 0.5)
    assert (kid2.params.a, kid2.params.b) == (3.0, 2.0)
    assert kid1.fitness is None and kid2.fitness is None


def test_crossover_of_identical_parents():
    parent = Genome(MapParams(2.2, 3.3), fitness=90.0)
    kid1, kid2 = crossover(parent, parent)
    assert kid1.params == parent.params
    assert kid2.params == parent.params


def test_crossover_offspring_genes_come_from_parents():
    rng = random.Random(2)
    for _ in range(100):
        p1 = Genome(MapParams(rng.uniform(1, 4), rng.uniform(0.1, 4)))
        p2 = Genome(MapParams(rng.uniform(1, 4), rng.uniform(0.1, 4)))
        for kid in crossover(p1, p2):
            assert kid.params.a in (p1.params.a, p2.params.a)
            assert kid.params.b in (p1.params.b, p2.params.b)


def test_mutate_zero_probability_is_identity():
    config = GaConfig(mutation_probability=0.0)
    genome = Genome(MapParams(2.0, 2.0), fitness=42.0)
    out = mutate(genome, config, random.Random(3))
    assert out == genome


def test_mutate_clamps_at_lower_bound():
    config = GaConfig(mutation_probability=1.0, mutation_step=0.05)
    rng = random.Random(4)
    for _ in range(200):
        out = mutate(Genome(MapParams(1.0, 2.0)), config, rng)
        assert 1.0 <= out.params.a <= 1.05


def test_mutate_resets_fitness_only_when_changed():
    config = GaConfig(mutation_probability=1.0, mutation_step=0.05)
    genome = Genome(MapParams(2.0, 2.0), fitness=77.0)
    out = mutate(genome, config, random.Random(5))
    assert out.params != genome.params
    assert out.fitness is None
    untouched = mutate(genome, GaConfig(mutation_probability=0.0), random.Random(5))
    assert untouched.fitness == 77.0


def test_mutate_rate_matches_probability():
    config = GaConfig(mutation_probability=0.1, mutation_step=0.05)
    rng = random.Random(6)
    genome = Genome(MapParams(2.5, 2.5))
    changed = sum(
        mutate(genome, config, rng).params.a != 2.5 for _ in range(10_000)
    )
    assert abs(changed / 10_000 - 0.10) <= 0.01


def test_evolve_is_seed_reproducible():
    plaintext = b"the quick brown fox jumps over the lazy dog"
    config = GaConfig(rng_seed=9, max_generations=15)
    assert evolve(plaintext, config) == evolve(plaintext, config)


def test_evolve_invariants():
    plaintext = b"a small message for the optimizer to chew on"
    config = GaConfig(rng_seed=10, max_generations=20)
    report = evolve(plaintext, config)

    assert report.terminated_by in ("quorum", "generation-cap")
    assert report.generations_run == len(report.history)
    running_best = -1.0
    for record in report.history:
        assert len(record.population) == config.population_size
        for a, b, f in record.population:
            assert 1.0 <= a <= 4.0
            assert 0.1 <= b <= 4.0
            assert 0.0 <= f <= 100.0
        assert record.max_fitness == max(f for _, _, f in record.population)
        running_best = max(running_best, record.max_fitness)
    assert report.best_genome.fitness == running_best


def test_evolve_best_genome_score_is_reachable():
    # The winning genome is snapshotted before mutation, so re-evaluating it
    # must reproduce its recorded fitness exactly.
    plaintext = b"snapshot the winner before anyone mutates it"
    report = evolve(plaintext, GaConfig(rng_seed=12, max_generations=10))
    evaluator = FitnessEvaluator(plaintext)
    assert evaluator.score(report.best_genome.params) == report.best_genome.fitness


def test_evolve_terminates_by_quorum_when_threshold_is_trivial():
    report = evolve(b"easy", GaConfig(rng_seed=13, fitness_threshold=0.0))
    assert report.terminated_by == "quorum"
    assert report.generations_run == 1


def test_evolve_respects_generation_cap():
    config = GaConfig(rng_seed=14, fitness_threshold=100.1, max_generations=6)
    report = evolve(b"no quorum can ever fire here", config)
    assert report.terminated_by == "generation-cap"
    assert report.generations_run == 6


def test_config_validation():
    with pytest.raises(InvalidInput):
        GaConfig(population_size=1)
    with pytest.raises(InvalidInput):
        GaConfig(elite_fraction=0.0)
    with pytest.raises(InvalidInput):
        GaConfig(mutation_probability=1.5)
    with pytest.raises(InvalidInput):
        GaConfig(max_generations=0)


def test_elite_count_uses_ceiling():
    pop = [Genome(MapParams(2.0, 2.0), fitness=float(i)) for i in range(10)]
    assert len(select_top(pop, 0.25)) == math.ceil(2.5)
