"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Criterion 7 is split: the a/b half holds, while the x0/y0 half documents a
genuine limitation of binary64 arithmetic and fails honestly (see README,
"Known limitation").
"""

import math
import random
import time

import numpy as np

from chaocrypt import (
    GaConfig,
    KeyRecord,
    MapParams,
    MapState,
    bifurcation_sweep,
    build_keystream,
    decrypt,
    encrypt,
    evolve,
    fitness,
    fitness_landscape,
    generate_sequence,
    keyspace_size,
    length_experiment,
    lyapunov_spectrum,
    rank_descending,
    read_key_file,
    sample_text,
    sensitivity_probe,
    write_key_file,
)
from chaocrypt.analysis import bin_coverage
from chaocrypt.cli import main as cli_main


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_round_trip_correctness():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = rng.randrange(1, 2001)
        plaintext = rng.randbytes(n)
        if sum(plaintext) == 0:
            plaintext = b"\x01" + plaintext[1:]
        params = MapParams(rng.uniform(1.0, 4.0), rng.uniform(0.1, 4.0))
        ciphertext, record = encrypt(plaintext, params)
        if decrypt(ciphertext, record) != plaintext:
            _report("01", False, f"round trip broke at n={n} params={params}")
    elapsed = time.perf_counter() - t0
    _report("01", elapsed < 30.0, f"1000 round trips exact in {elapsed:.1f}s (< 30s)")


def test_c02_permutation_invariants():
    rng = random.Random(102)
    t0 = time.perf_counter()
    for _ in range(500):
        n = rng.randrange(1, 1201)
        params = MapParams(rng.uniform(1.0, 4.0), rng.uniform(0.1, 4.0))
        x0 = rng.uniform(1e-6, 1.0)
        initial = MapState(x0, 1.0 - x0)
        xs, ys = generate_sequence(params, initial, n)
        key = build_keystream(params, initial, n)
        expect = list(range(n))
        ok = (
            sorted(rank_descending(xs).tolist()) == expect
            and sorted(rank_descending(ys).tolist()) == expect
            and sorted(key.tolist()) == expect
        )
        if not ok:
            _report("02", False, f"non-permutation keystream at n={n}")
    elapsed = time.perf_counter() - t0
    _report("02", elapsed < 10.0, f"500 random lengths all permutations in {elapsed:.1f}s (< 10s)")


def _brute_force_fitness(p: bytes, c: bytes) -> float:
    in_p = [False] * 256
    in_c = [False] * 256
    for v in p:
        in_p[v] = True
    for v in c:
        in_c[v] = True
    inter = sum(1 for i in range(256) if in_p[i] and in_c[i])
    union = sum(1 for i in range(256) if in_p[i] or in_c[i])
    return 100.0 - 100.0 * inter / union


def test_c03_jaccard_oracle_equivalence():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randrange(1, 500)
        p = rng.randbytes(n)
        c = rng.randbytes(n)
        if fitness(p, c) != _brute_force_fitness(p, c):
            _report("03", False, f"fitness diverged from brute force at n={n}")
    _report("03", True, "fitness matches brute-force set computation on 200 pairs")


def test_c04_length_fitness_trend():
    t0 = time.perf_counter()
    best = {
        length: max_fitness
        for length, _, _, max_fitness in length_experiment([10, 100, 1000], GaConfig(rng_seed=42), trials=1)
    }
    elapsed = time.perf_counter() - t0
    detail = (
        f"best fitness 10->{best[10]:.4f} "
        f"100->{best[100]:.4f} 1000->{best[1000]:.4f} "
        f"in {elapsed:.1f}s (< 300s)"
    )
    ok = (
        best[1000] >= 99.0
        and best[100] >= 95.0
        and best[1000] >= best[10]
        and elapsed < 300.0
    )
    _report("04", ok, detail)


def test_c05_chaos_positivity_on_key_grid():
    t0 = time.perf_counter()
    positive = 0
    total = 0
    for a in np.linspace(1.0, 4.0, 20):
        for b in np.linspace(0.1, 4.0, 20):
            result = lyapunov_spectrum(
                MapParams(float(a), float(b)), MapState(0.1, 0.1), 2500, 500
            )
            total += 1
            positive += result.exponent_1 > 0.0
    elapsed = time.perf_counter() - t0
    ok = positive >= 0.95 * total and elapsed < 60.0
    _report("05", ok, f"largest exponent positive on {positive}/{total} cells in {elapsed:.1f}s (< 60s)")


def test_c06_bifurcation_density():
    t0 = time.perf_counter()
    worst = 1.0
    for param, low in (("a", 1.0), ("b", 0.0)):
        _, xs = bifurcation_sweep(param, 2.0, low, 4.0, steps=100, iterations=2500, transient=500)
        worst = min(worst, bin_coverage(xs).min())
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.95 and elapsed < 60.0
    _report("06", ok, f"worst bin coverage {worst:.2f} (>= 0.95) in {elapsed:.1f}s (< 60s)")


def test_c07a_key_sensitivity_parameters():
    rng = random.Random(107)
    t0 = time.perf_counter()
    worst = 1.0
    for component, epsilon in (("a", 1e-15), ("b", 1e-15)):
        for _ in range(20):
            plaintext = rng.randbytes(1000)
            key = KeyRecord(rng.uniform(1.0, 3.9), rng.uniform(0.1, 3.9), 0.001, 0.999)
            worst = min(worst, sensitivity_probe(plaintext, key, component, epsilon))
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.9 and elapsed < 10.0
    _report("07a", ok, f"a/b nudges at 1e-15: worst byte-change fraction {worst:.3f} in {elapsed:.1f}s")


def test_c07b_key_sensitivity_initial_values():
    # Stated criterion: a 1e-16 nudge of x0 or y0 must scramble decryption.
    # Under binary64 this cannot hold: with x0 = 0.001 the first update adds
    # b >= 0.1, and against a sum of magnitude >= 1.1 (ulp >= 2.2e-16) a
    # 1e-16 shift usually rounds away, leaving the orbit bit-identical.
    # Implemented as stated; fails honestly.  See README, "Known limitation".
    rng = random.Random(108)
    worst = 1.0
    absorbed = 0
    for component in ("x0", "y0"):
        for _ in range(20):
            plaintext = rng.randbytes(1000)
            key = KeyRecord(rng.uniform(1.0, 3.9), rng.uniform(0.1, 3.9), 0.001, 0.999)
            frac = sensitivity_probe(plaintext, key, component, 1e-16)
            absorbed += frac == 0.0
            worst = min(worst, frac)
    _report(
        "07b",
        worst >= 0.9,
        f"x0/y0 nudges at 1e-16: worst byte-change fraction {worst:.3f}, "
        f"{absorbed}/40 nudges absorbed by rounding",
    )


def test_c08_keyspace_arithmetic():
    size = keyspace_size([(1.0, 4.0, 1e-15), (0.1, 4.0, 1e-15), (0.0, 1.0, 1e-16), (0.0, 1.0, 1e-16)])
    ok = math.isclose(size, 1.17e63, rel_tol=1e-10) and size > 2.0**128
    _report("08", ok, f"key space {size:.6g} matches 1.17e63 and exceeds 2^128")


def test_c09_multiple_optima_in_landscape():
    plaintext = sample_text(1000, random.Random(109))
    table = fitness_landscape(plaintext, (1.0, 4.0), (0.1, 4.0), 50, 50)
    best = table[:, 2].max()
    near = int((table[:, 2] >= best - 0.5).sum())
    _report("09", near >= 2, f"max fitness {best:.4f}, {near} grid cells within 0.5 of it")


def test_c10_determinism(tmp_path):
    plaintext = sample_text(200, random.Random(110))
    config = GaConfig(rng_seed=7, max_generations=10)
    ok = evolve(plaintext, config) == evolve(plaintext, config)

    source = tmp_path / "plain.txt"
    source.write_bytes(plaintext)
    snapshots = []
    for tag in ("one", "two"):
        cipher = tmp_path / f"c.{tag}"
        key = tmp_path / f"k.{tag}"
        report = tmp_path / f"r.{tag}.csv"
        rc = cli_main(
            [
                "encrypt", str(source),
                "--out", str(cipher), "--key-out", str(key), "--report", str(report),
                "--seed", "7", "--max-generations", "10",
            ]
        )
        ok = ok and rc == 0
        snapshots.append((cipher.read_bytes(), key.read_bytes(), report.read_bytes()))
    ok = ok and snapshots[0] == snapshots[1]
    _report("10", ok, "identical seeds give bit-identical reports, ciphertext, and key files")


def test_c11_key_file_round_trip(tmp_path):
    rng = random.Random(111)
    path = tmp_path / "key.txt"
    for _ in range(1000):
        x0 = rng.uniform(1e-9, 1.0)
        key = KeyRecord(rng.uniform(1.0, 4.0), rng.uniform(0.1, 4.0), x0, 1.0 - x0)
        write_key_file(key, path)
        if read_key_file(path) != key:
            _report("11", False, f"bit drift for {key}")
    _report("11", True, "1000 random key records survive write/read bit-exactly")
