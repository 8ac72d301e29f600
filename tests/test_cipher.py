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
