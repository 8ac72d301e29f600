import hashlib
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from chaocrypt import (
    FitnessEvaluator,
    GaConfig,
    InvalidInput,
    MapParams,
    build_keystream,
    crossover,
    derive_initial_state,
    encrypt,
    evolve,
    fitness,
    generate_sequence,
    mutate,
    sample_text,
    select_top,
    spawn_population,
)
from conftest import descending_ranks, traced


def test_fitness_disjoint_alphabets():
    assert fitness(b"AAA", b"\x00\x00\x00") == 100.0
    assert fitness(b"ABAB", b"CDCD") == 100.0


def test_fitness_identical_inputs_is_zero():
    assert fitness(b"abc", b"abc") == 0.0
    assert fitness(b"A", b"A") == 0.0


def test_fitness_from_jaccard_example():
    assert fitness(bytes([65, 66, 67]), bytes([66, 67, 68])) == 50.0


def test_fitness_rejects_length_mismatch():
    with pytest.raises(InvalidInput):
        fitness(b"ab", b"abc")
    with pytest.raises(InvalidInput, match="^inputs must be non-empty$"):
        fitness(b"", b"")


def test_fitness_accepts_values_beyond_bytes():
    # The optimizer scores raw keystream XOR values, which pass 255.
    assert fitness(b"\x41", [0x41 ^ 512]) == 100.0


def _brute_force_score(plaintext, params):
    n = len(plaintext)
    xs, ys = generate_sequence(params, derive_initial_state(plaintext), n)
    s_x, s_y = descending_ranks(xs), descending_ranks(ys)
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
    # The alphabet's extremes: one symbol, and all 256 byte values above n = 256.
    for plaintext in (b"\x07" * 37, bytes(range(256)) * 2 + bytes(range(0, 256, 3))):
        evaluator = FitnessEvaluator(plaintext)
        for _ in range(10):
            params = MapParams(rng.uniform(1.0, 4.0), rng.uniform(0.1, 4.0))
            assert evaluator.score(params) == _brute_force_score(plaintext, params)


@pytest.mark.parametrize("n", [1, 255, 256, 257, 511, 512, 513, 1024, 1025])
def test_score_matches_jaccard_at_table_width_boundaries(n):
    # Values byte ^ rank reach the top bit below the table width, so a table
    # one bit too narrow cannot index them.
    rng = random.Random(n)
    plaintext = bytes(rng.randrange(128, 256) for _ in range(n))
    evaluator = FitnessEvaluator(plaintext)
    for _ in range(5):
        params = MapParams(rng.uniform(1.0, 4.0), rng.uniform(0.1, 4.0))
        key = build_keystream(params, derive_initial_state(plaintext), n).tolist()
        values = [p ^ k for p, k in zip(plaintext, key)]
        score = evaluator.score(params)
        assert type(score) is float
        assert score == fitness(plaintext, values)


def _scores_and_ciphertext_fitness(n):
    """For each seed-0 spawn pair: its score, and the fitness of the
    ciphertext that encrypt writes under it."""
    plaintext = sample_text(n, random.Random(9000 + n))
    evaluator = FitnessEvaluator(plaintext)
    pairs = []
    for a, b in spawn_population(GaConfig(), random.Random(0)):
        ciphertext, _ = encrypt(plaintext, MapParams(a, b))
        pairs.append((evaluator.score(MapParams(a, b)), fitness(plaintext, ciphertext)))
    return pairs


def test_score_is_the_ciphertext_fitness_below_256_bytes():
    # Every keystream value is below 256, so byte ^ K is the ciphertext byte.
    pairs = _scores_and_ciphertext_fitness(64)
    assert len(pairs) == 20
    assert all(score == ciphertext for score, ciphertext in pairs)


def test_score_reaches_the_threshold_where_the_ciphertext_does_not_above_256_bytes():
    # The score counts byte ^ K at full width; the ciphertext keeps its low
    # 8 bits.  Values above 255 never meet the plaintext's alphabet, so the
    # score nears 100 whatever the pair (README, "Known limitation").
    threshold = GaConfig().fitness_threshold
    pairs = _scores_and_ciphertext_fitness(1000)
    assert any(score >= threshold > ciphertext for score, ciphertext in pairs)


def test_score_holds_the_plaintext_once_and_peaks_at_the_keystream_build():
    # The evaluator keeps the plaintext as uint8 over the caller's bytes; a
    # score peaks in build_keystream (25 B per point), and its XOR values
    # and table come after both descending orders are gone.
    n = 1 << 18
    plaintext = random.Random(9).randbytes(n)
    FitnessEvaluator(plaintext[:1000]).score(MapParams(2.5, 1.5))
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        evaluator = FitnessEvaluator(plaintext)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        evaluator.score(MapParams(2.5, 1.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held <= 2 * n
    assert peak <= 27 * n


def test_building_an_evaluator_makes_no_copy_of_the_plaintext():
    # The alphabet is a 256-entry table set at the bytes, not a count over
    # an int64 copy of them (8 B per point with np.bincount).
    n = 1 << 18
    plaintext = random.Random(10).randbytes(n)
    FitnessEvaluator(plaintext[:1000])
    evaluator, peak = traced(FitnessEvaluator, plaintext)
    assert peak <= n
    assert evaluator._alphabet.tolist() == sorted(set(plaintext))


def test_spawn_population_ranges_and_size():
    rng = random.Random(0)
    pop = spawn_population(GaConfig(), rng)
    assert len(pop) == 20
    for a, b in pop:
        assert 1.0 <= a <= 4.0
        assert 0.1 <= b <= 4.0


def test_spawn_population_is_seed_deterministic():
    pop1 = spawn_population(GaConfig(), random.Random(11))
    pop2 = spawn_population(GaConfig(), random.Random(11))
    assert pop1 == pop2


def test_spawn_population_mean_matches_uniform_law():
    rng = random.Random(1)
    config = GaConfig(population_size=10_000)
    mean_a = sum(a for a, _ in spawn_population(config, rng)) / 10_000
    assert abs(mean_a - 2.5) <= 0.05


def test_select_top_counts():
    pop = [(2.0, 2.0)] * 20
    assert len(select_top(pop, [float(i) for i in range(20)], 0.2)) == 4


def test_select_top_puts_best_first():
    pop = [(2.0, 2.0)] * 19
    fitnesses = [0.0] * 19
    pop.insert(7, (3.0, 3.0))
    fitnesses.insert(7, 100.0)
    assert select_top(pop, fitnesses, 0.2)[0] == (3.0, 3.0)


def test_select_top_breaks_ties_by_index():
    pop = [(1.0 + i * 0.1, 2.0) for i in range(10)]
    assert select_top(pop, [50.0] * 10, 0.2) == pop[:2]


def test_select_top_matches_index_tie_break_key():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randrange(1, 40)
        levels = [rng.choice([0.0, 50.0, 95.0, 100.0]) for _ in range(rng.randrange(1, 4))]
        fitnesses = [rng.choice(levels) for _ in range(n)]
        pop = [(1.0 + i * 0.01, 2.0) for i in range(n)]
        fraction = rng.choice([0.2, 0.5, 1.0])
        order = sorted(range(n), key=lambda i: (-fitnesses[i], i))
        expect = [pop[i] for i in order[: math.ceil(fraction * n)]]
        assert select_top(pop, fitnesses, fraction) == expect


def test_select_top_rejects_length_mismatch():
    with pytest.raises(InvalidInput):
        select_top([(2.0, 2.0)] * 5, [1.0] * 4, 0.2)


def test_crossover_swaps_genes():
    assert crossover((1.5, 2.0), (3.0, 0.5)) == ((1.5, 0.5), (3.0, 2.0))


def test_crossover_of_identical_parents():
    parent = (2.2, 3.3)
    assert crossover(parent, parent) == (parent, parent)


def test_crossover_offspring_genes_come_from_parents():
    rng = random.Random(2)
    for _ in range(100):
        p1 = (rng.uniform(1, 4), rng.uniform(0.1, 4))
        p2 = (rng.uniform(1, 4), rng.uniform(0.1, 4))
        for a, b in crossover(p1, p2):
            assert a in (p1[0], p2[0])
            assert b in (p1[1], p2[1])


def test_mutate_zero_probability_is_identity():
    pair = (2.0, 2.0)
    assert mutate(pair, GaConfig(mutation_probability=0.0), random.Random(3)) == pair
    config = GaConfig(mutation_probability=1.0, mutation_step=0.05)
    assert mutate(pair, config, random.Random(5)) != pair


def test_mutate_clamps_at_lower_bound():
    config = GaConfig(mutation_probability=1.0, mutation_step=0.05)
    rng = random.Random(4)
    for _ in range(200):
        a, _ = mutate((1.0, 2.0), config, rng)
        assert 1.0 <= a <= 1.05


def test_mutate_rate_matches_probability():
    config = GaConfig(mutation_probability=0.1, mutation_step=0.05)
    rng = random.Random(6)
    changed = sum(mutate((2.5, 2.5), config, rng)[0] != 2.5 for _ in range(10_000))
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
    for population in report.history:
        assert len(population) == config.population_size
        for a, b, f in population:
            assert 1.0 <= a <= 4.0
            assert 0.1 <= b <= 4.0
            assert 0.0 <= f <= 100.0
            running_best = max(running_best, f)
    assert report.best[2] == running_best


def test_evolve_best_genome_score_is_reachable():
    # The winning genome is snapshotted before mutation, so re-evaluating it
    # must reproduce its recorded fitness exactly.
    plaintext = b"snapshot the winner before anyone mutates it"
    report = evolve(plaintext, GaConfig(rng_seed=12, max_generations=10))
    a, b, f = report.best
    assert FitnessEvaluator(plaintext).score(MapParams(a, b)) == f


def test_evolve_best_is_first_scored_among_fittest():
    # Three distinct pairs share this run's maximum, first reached in the
    # second generation; the report's best row is the first of them in history.
    report = evolve(b"tie break", GaConfig(rng_seed=12, fitness_threshold=100.1, max_generations=6))
    top = max(f for population in report.history for _, _, f in population)
    fittest = [(a, b) for population in report.history for a, b, f in population if f == top]
    assert len(set(fittest)) >= 2
    assert report.best == (*fittest[0], top)


def test_evolve_terminates_by_quorum_when_threshold_is_trivial():
    report = evolve(b"easy", GaConfig(rng_seed=13, fitness_threshold=0.0))
    assert report.terminated_by == "quorum"
    assert report.generations_run == 1


def test_evolve_respects_generation_cap():
    config = GaConfig(rng_seed=14, fitness_threshold=100.1, max_generations=6)
    report = evolve(b"no quorum can ever fire here", config)
    assert report.terminated_by == "generation-cap"
    assert report.generations_run == 6


# A capped run: no genome reaches 100.1, so all 60 generations run and the
# elite keeps breeding copies of itself.
PINNED_TEXT = b"pin this report"
PINNED_CONFIG = GaConfig(rng_seed=21, fitness_threshold=100.1, max_generations=60)


def test_evolve_scores_each_distinct_params_once(monkeypatch):
    calls = Counter()
    real = FitnessEvaluator.score

    def counting(self, params):
        calls[params] += 1
        return real(self, params)

    monkeypatch.setattr(FitnessEvaluator, "score", counting)
    report = evolve(PINNED_TEXT, PINNED_CONFIG)
    monkeypatch.undo()

    assert report.generations_run == 60
    assert set(calls.values()) == {1}
    seen = {entry for population in report.history for entry in population}
    assert {(a, b) for a, b, _ in seen} == {(p.a, p.b) for p in calls}
    fresh = FitnessEvaluator(PINNED_TEXT)
    for a, b, f in seen:
        assert f == fresh.score(MapParams(a, b))


@pytest.mark.parametrize(
    "population, history_sha256, best",
    [
        (
            20,  # 4 survivors, 16 children
            "82cdf454bc40e09f7b7ae1cb29808d977db86556d7a471b39cdbb05eaeb70015",
            (1.6980848541986608, 0.2651081249396358, 95.65217391304348),
        ),
        (
            7,  # 2 survivors, 5 children: the last crossover keeps only its first child
            "8a82911d09c59c7aa45872d4b25d6f34aba7c561d2ac2b344f580be1d72f035e",
            (2.552634343115085, 1.020619817635221, 95.0),
        ),
    ],
    ids=("population-20", "population-7"),
)
def test_evolve_report_is_pinned(population, history_sha256, best):
    report = evolve(PINNED_TEXT, replace(PINNED_CONFIG, population_size=population))
    digest = hashlib.sha256()
    for generation in report.history:
        for a, b, f in generation:
            digest.update(f"{a.hex()} {b.hex()} {f.hex()}\n".encode())
    assert digest.hexdigest() == history_sha256
    assert report.terminated_by == "generation-cap"
    assert report.best == best


def test_config_validation():
    with pytest.raises(InvalidInput):
        GaConfig(population_size=1)
    with pytest.raises(InvalidInput):
        GaConfig(elite_fraction=0.0)
    with pytest.raises(InvalidInput):
        GaConfig(mutation_probability=1.5)
    with pytest.raises(InvalidInput):
        GaConfig(max_generations=0)
    for step in (math.inf, math.nan, -0.1, -math.inf):
        with pytest.raises(InvalidInput, match="^mutation_step must be finite and >= 0$"):
            GaConfig(mutation_step=step)
    for threshold in (math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidInput, match="fitness_threshold must be finite"):
            GaConfig(fitness_threshold=threshold)
    assert GaConfig(fitness_threshold=100.1).fitness_threshold == 100.1


def test_elite_count_uses_ceiling():
    pop = [(2.0, 2.0)] * 10
    assert len(select_top(pop, [float(i) for i in range(10)], 0.25)) == math.ceil(2.5)
