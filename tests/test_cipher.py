import dataclasses
import math
import random

import numpy as np
import pytest

from chaocrypt import (
    InvalidInput,
    KeyRecord,
    MapParams,
    MapState,
    build_keystream,
    compose_key,
    decrypt,
    encrypt,
    rank_descending,
    sample_text,
    xor_apply,
)
from chaocrypt.ga import jaccard_index


def test_rank_descending_basic():
    assert rank_descending([0.3, 0.9, 0.1]).tolist() == [1, 0, 2]


def test_rank_descending_stable_ties():
    assert rank_descending([0.5, 0.5, 0.1]).tolist() == [0, 1, 2]


def test_rank_descending_singleton():
    assert rank_descending([7.0]).tolist() == [0]


def test_rank_descending_rejects_empty():
    with pytest.raises(InvalidInput):
        rank_descending([])


def _oracle_ranks(values):
    ranks = [0] * len(values)
    for r, i in enumerate(sorted(range(len(values)), key=lambda i: (-values[i], i))):
        ranks[i] = r
    return ranks


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_rank_descending_rejects_non_finite_anywhere(bad, where):
    values = [0.3, 0.1, 0.7, 0.2, 0.5]
    values[where] = bad
    with pytest.raises(InvalidInput):
        rank_descending(values)


@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0, 0.0],
        [-0.0, 0.0],
        [0.5] * 7,
        [0.5] * 5000,
        [0.0, -0.0] * 2500,
        [0.9, 0.9, 0.4, 0.3, 0.1, 0.1],  # ties at both ends
        [0.2],
        [0.2, 0.2],
        [0.1, 0.2],
        [0.2, 0.1],
    ],
)
def test_rank_descending_ranks_equal_values_by_index(values):
    assert rank_descending(values).tolist() == _oracle_ranks(values)


def test_rank_descending_matches_sorted_oracle():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randrange(1, 3000)
        pool = [rng.uniform(-1.0, 1.0) for _ in range(rng.choice([1, 3, n]))] + [0.0, -0.0]
        tied = [rng.choice(pool) for _ in range(n)]
        distinct = [rng.uniform(-1e6, 1e6) for _ in range(n)]
        for values in (tied, distinct):
            assert rank_descending(values).tolist() == _oracle_ranks(values)


def test_rank_indexes_sorted_copy_back_to_original():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(1, 200)
        values = [rng.choice([rng.random(), 0.25]) for _ in range(n)]  # force ties
        ranks = rank_descending(values)
        ordered = sorted(values, reverse=True)
        assert [ordered[r] for r in ranks] == values


def test_rank_output_is_permutation():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randrange(1, 300)
        ranks = rank_descending([rng.random() for _ in range(n)])
        assert sorted(ranks.tolist()) == list(range(n))


def test_compose_key_example():
    assert compose_key([1, 0, 2], [2, 0, 1]).tolist() == [0, 2, 1]


def test_compose_key_identity_cases():
    perm = [3, 1, 0, 2]
    identity = [0, 1, 2, 3]
    assert compose_key(identity, perm).tolist() == perm
    assert compose_key(perm, identity).tolist() == perm


def test_compose_key_rejects_bad_inputs():
    with pytest.raises(InvalidInput):
        compose_key([0, 1], [0, 1, 2])
    with pytest.raises(InvalidInput):
        compose_key([0, 0, 1], [0, 1, 2])
    with pytest.raises(InvalidInput):
        compose_key([0, 1, 3], [0, 1, 2])


def test_xor_apply_examples():
    assert xor_apply(b"\x41", [0]) == b"\x41"
    assert xor_apply(b"\x41\x42", [1, 3]) == b"\x40\x41"
    assert xor_apply(b"\x41", [256]) == b"\x41"  # only the low 8 bits count


def test_xor_apply_rejects_length_mismatch():
    with pytest.raises(InvalidInput):
        xor_apply(b"\x41\x42", [1])


def test_xor_apply_is_involution():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(1, 400)
        data = bytes(rng.randrange(256) for _ in range(n))
        key = [rng.randrange(n) for _ in range(n)]
        assert xor_apply(xor_apply(data, key), key) == data


def test_round_trip_hello_world():
    plaintext = b"Hello, World!"
    ciphertext, record = encrypt(plaintext, MapParams(2.5, 0.9))
    assert decrypt(ciphertext, record) == plaintext


def test_round_trip_random_cases():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randrange(1, 600)
        plaintext = bytes(rng.randrange(256) for _ in range(n))
        if sum(plaintext) == 0:
            plaintext = b"\x01" + plaintext[1:]
        params = MapParams(rng.uniform(1, 4), rng.uniform(0.1, 4))
        ciphertext, record = encrypt(plaintext, params)
        assert len(ciphertext) == n
        assert decrypt(ciphertext, record) == plaintext


def test_three_byte_message_touches_only_low_bits():
    ciphertext, _ = encrypt(b"ABC", MapParams(2.0, 1.0))
    for c, p in zip(ciphertext, b"ABC"):
        assert c ^ p <= 2  # keystream values bounded by n-1 = 2


def test_single_byte_ciphertext_equals_plaintext():
    ciphertext, record = encrypt(b"Q", MapParams(1.5, 2.0))
    assert ciphertext == b"Q"  # rank arrays of length 1 force key [0]
    assert decrypt(ciphertext, record) == b"Q"


def test_keystream_depends_only_on_key_and_length():
    # Consequence of the initialization collapsing to 1/n: equal-length
    # plaintexts share the keystream under the same parameters.
    params = MapParams(3.1, 1.2)
    p1 = b"a" * 64
    p2 = bytes(range(32, 96))
    c1, _ = encrypt(p1, params)
    c2, _ = encrypt(p2, params)
    k1 = bytes(a ^ b for a, b in zip(c1, p1))
    k2 = bytes(a ^ b for a, b in zip(c2, p2))
    assert k1 == k2


def test_encrypt_rejects_out_of_range_params():
    with pytest.raises(InvalidInput):
        encrypt(b"hi", MapParams(0.5, 2.0))
    with pytest.raises(InvalidInput):
        encrypt(b"hi", MapParams(2.0, 0.05))


def test_decrypt_rejects_bad_keys():
    with pytest.raises(InvalidInput):
        decrypt(b"hi", KeyRecord(a=4.5, b=1.0, x0=0.5, y0=0.5))
    with pytest.raises(InvalidInput):
        decrypt(b"hi", KeyRecord(a=2.0, b=1.0, x0=0.0, y0=1.0))
    with pytest.raises(InvalidInput):
        decrypt(b"", KeyRecord(a=2.0, b=1.0, x0=0.5, y0=0.5))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"a": math.nan}, "map parameters must be finite"),
        ({"a": math.inf}, "map parameters must be finite"),
        ({"b": -math.inf}, "map parameters must be finite"),
        ({"a": 4.5, "b": math.nan}, "map parameters must be finite"),
        ({"a": 0.5}, "parameter a=0.5 outside [1.0, 4.0]"),
        ({"a": 4.000000000000001}, "parameter a=4.000000000000001 outside [1.0, 4.0]"),
        ({"a": 0.5, "b": 0.05}, "parameter a=0.5 outside [1.0, 4.0]"),
        ({"b": 0.05}, "parameter b=0.05 outside [0.1, 4.0]"),
        ({"b": 4.1, "x0": 0.0}, "parameter b=4.1 outside [0.1, 4.0]"),
        ({"x0": 0.0}, "x0=0.0 outside (0, 1]"),
        ({"x0": -0.5}, "x0=-0.5 outside (0, 1]"),
        ({"x0": 1.000000001}, "x0=1.000000001 outside (0, 1]"),
        ({"x0": math.nan}, "x0=nan outside (0, 1]"),
        ({"x0": math.inf, "y0": math.nan}, "x0=inf outside (0, 1]"),
        ({"y0": math.nan}, "y0 must be finite"),
        ({"y0": -math.inf}, "y0 must be finite"),
    ],
)
def test_key_record_rejects_each_bad_field_when_constructed(fields, message):
    good = {"a": 2.5, "b": 1.5, "x0": 0.25, "y0": 0.75}
    with pytest.raises(InvalidInput) as exc:
        KeyRecord(**{**good, **fields})
    assert str(exc.value) == message
    with pytest.raises(InvalidInput) as exc:
        dataclasses.replace(KeyRecord(**good), **fields)
    assert str(exc.value) == message


def test_key_record_accepts_the_range_ends():
    KeyRecord(a=1.0, b=0.1, x0=1.0, y0=-1e308)
    KeyRecord(a=4.0, b=4.0, x0=5e-324, y0=0.0)


def test_byte_set_jaccard_regression_at_1000_bytes():
    # Frozen regression: deterministic fixture text, fixed parameters.
    plaintext = sample_text(1000, random.Random(123))
    ciphertext, _ = encrypt(plaintext, MapParams(3.2, 2.5))
    j = jaccard_index(plaintext, ciphertext)
    assert j < 20.0
    assert j == pytest.approx(5.179282868525896, rel=1e-12)


def test_decrypt_with_nudged_a_scrambles_output():
    plaintext = sample_text(1000, random.Random(123))
    ciphertext, record = encrypt(plaintext, MapParams(3.2, 2.5))
    nudged = KeyRecord(record.a + 1e-15, record.b, record.x0, record.y0)
    recovered = decrypt(ciphertext, nudged)
    differ = np.mean(
        np.frombuffer(recovered, np.uint8) != np.frombuffer(plaintext, np.uint8)
    )
    assert differ >= 0.9
    assert differ == pytest.approx(0.998, abs=1e-9)


def test_keystream_permutation_invariants():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 700)
        params = MapParams(rng.uniform(1, 4), rng.uniform(0.1, 4))
        initial = MapState(1.0 / n, 1.0 - 1.0 / n)
        ks = build_keystream(params, initial, n)
        expect = list(range(n))
        assert sorted(ks.s_x.tolist()) == expect
        assert sorted(ks.s_y.tolist()) == expect
        assert sorted(ks.key.tolist()) == expect
        assert ks.key.tolist() == [ks.s_y[i] for i in ks.s_x]
