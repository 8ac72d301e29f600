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
    generate_sequence,
    rank_descending,
    sample_text,
    xor_apply,
)
from chaocrypt.chaos import CHUNK
from chaocrypt.cipher import STABLE_SORT_MAX, _descending_order, keystream_from_orbit
from chaocrypt.ga import fitness
from conftest import descending_ranks, traced


def test_rank_descending_basic():
    assert rank_descending([0.3, 0.9, 0.1]).tolist() == [1, 0, 2]


def test_rank_descending_stable_ties():
    assert rank_descending([0.5, 0.5, 0.1]).tolist() == [0, 1, 2]


def test_rank_descending_singleton():
    assert rank_descending([7.0]).tolist() == [0]


def test_rank_descending_rejects_empty():
    with pytest.raises(InvalidInput):
        rank_descending([])


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
    assert rank_descending(values).tolist() == descending_ranks(values)


def test_rank_descending_matches_sorted_oracle():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randrange(1, 3000)
        pool = [rng.uniform(-1.0, 1.0) for _ in range(rng.choice([1, 3, n]))] + [0.0, -0.0]
        tied = [rng.choice(pool) for _ in range(n)]
        distinct = [rng.uniform(-1e6, 1e6) for _ in range(n)]
        for values in (tied, distinct):
            assert rank_descending(values).tolist() == descending_ranks(values)


# One length below, at and above the longest array sorted stably in one pass.
BOUNDARY_LENGTHS = (STABLE_SORT_MAX - 1, STABLE_SORT_MAX, STABLE_SORT_MAX + 1)


def _boundary_cases(n):
    rng = random.Random(n)
    distinct = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    ends = sorted(distinct, reverse=True)
    ends[1], ends[-2] = ends[0], ends[-1]  # ties at both ends
    rng.shuffle(ends)
    return {
        "signed-zeros": [rng.choice([0.0, -0.0, 0.5]) for _ in range(n)],
        "repeats": [rng.choice(distinct[:5]) for _ in range(n)],
        "constant": [0.25] * n,
        "ties-at-both-ends": ends,
        "distinct": distinct,
    }


@pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
def test_rank_descending_at_the_stable_sort_boundary(n):
    for name, values in _boundary_cases(n).items():
        assert rank_descending(values).tolist() == descending_ranks(values), name


@pytest.mark.parametrize("n", BOUNDARY_LENGTHS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rank_descending_rejects_non_finite_at_the_stable_sort_boundary(n, bad):
    for where in (0, n // 2, n - 1):
        for values in _boundary_cases(n).values():
            values = list(values)
            values[where] = bad
            with pytest.raises(InvalidInput, match="finite"):
                rank_descending(values)


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
    with pytest.raises(InvalidInput, match="^s_x must be non-empty$"):
        compose_key([], [])


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
    "length, size",
    [(27, "27 bytes"), (29, "29 bytes"), (0, "0 bytes"), (1, "1 byte")],
    ids=["one-short", "one-long", "empty", "one-byte"],
)
def test_decrypt_refuses_data_of_a_length_its_key_does_not_name(length, size):
    # x0 = 1/len(plaintext), so a key names the length of its message.
    ciphertext, record = encrypt(b"twenty-eight bytes of secret", MapParams(2.5, 1.5))
    assert len(ciphertext) == 28
    with pytest.raises(InvalidInput) as exc:
        decrypt((ciphertext * 2)[:length], record)
    assert str(exc.value) == f"data is {size} but the key is for a 28-byte message"


@pytest.mark.parametrize("x0", [1e-300, 5e-324])
def test_decrypt_refuses_a_key_whose_x0_names_no_possible_length(x0):
    # 1/x0 is a 301-digit number for 1e-300 and infinite for 5e-324.
    with pytest.raises(InvalidInput) as exc:
        decrypt(b"x", KeyRecord(2.5, 1.5, x0, 0.5))
    assert str(exc.value) == f"the key's x0={x0!r} names no possible message length"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"a": math.nan}, "parameter a=nan outside [1.0, 4.0]"),
        ({"a": math.inf}, "parameter a=inf outside [1.0, 4.0]"),
        ({"b": -math.inf}, "parameter b=-inf outside [0.1, 4.0]"),
        ({"a": 4.5, "b": math.nan}, "parameter a=4.5 outside [1.0, 4.0]"),
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
        ({"x0": -math.inf}, "x0=-inf outside (0, 1]"),
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
    j = 100.0 - fitness(plaintext, ciphertext)
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
        xs, ys = generate_sequence(params, initial, n)
        s_x, s_y = rank_descending(xs), rank_descending(ys)
        key = build_keystream(params, initial, n)
        assert key.dtype == np.int64
        expect = list(range(n))
        assert sorted(s_x.tolist()) == expect
        assert sorted(s_y.tolist()) == expect
        assert sorted(key.tolist()) == expect
        assert key.tolist() == [s_y[i] for i in s_x]
        assert key.tolist() == compose_key(s_x, s_y).tolist()


# One length, the stable sort's boundary, a landscape row, the chunk edges of
# the tie check and the composition, and a bulk message.
KEYSTREAM_LENGTHS = (
    1,
    STABLE_SORT_MAX - 1,
    STABLE_SORT_MAX,
    STABLE_SORT_MAX + 1,
    999,
    CHUNK - 1,
    CHUNK,
    CHUNK + 1,
    2 * CHUNK + 1,
    1 << 18,
)


def _keystream_axes(n):
    """Orbit axes and tied arrays of length n, each forcing the stable sort
    on its own: repeats, signed zeros, and ties at both ends."""
    rng = np.random.default_rng(n)
    xs, ys = generate_sequence(MapParams(2.5, 1.5), MapState(1 / n, 1 - 1 / n), n)
    ends = rng.uniform(-1.0, 1.0, n)
    order = ends.argsort()
    ends[order[:2]], ends[order[-2:]] = ends[order[0]], ends[order[-1]]
    return [
        np.asarray(xs),
        np.asarray(ys),
        rng.choice(rng.uniform(-1.0, 1.0, 5), n),
        rng.choice([0.0, -0.0, 0.5], n),
        ends,
    ]


@pytest.mark.parametrize("n", KEYSTREAM_LENGTHS)
def test_keystream_from_orbit_is_the_composed_ranks_bit_for_bit(n):
    axes = _keystream_axes(n)
    for i, xs in enumerate(axes):
        ys = axes[1] if i == 0 else axes[(i + 1) % len(axes)]
        key = keystream_from_orbit(xs, ys)
        expect = compose_key(rank_descending(xs), rank_descending(ys))
        assert key.dtype == expect.dtype == np.int64
        assert key.tobytes() == expect.tobytes(), i


@pytest.mark.parametrize("n", KEYSTREAM_LENGTHS)
def test_build_keystream_is_the_composed_ranks_bit_for_bit(n):
    params, initial = MapParams(2.5, 1.5), MapState(1 / n, 1 - 1 / n)
    xs, ys = generate_sequence(params, initial, n)
    key = build_keystream(params, initial, n)
    expect = compose_key(rank_descending(xs), rank_descending(ys))
    assert key.dtype == expect.dtype == np.int64
    assert key.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n", (CHUNK + 1, 2 * CHUNK + 1))
def test_a_tie_across_a_chunk_edge_takes_the_stable_sort(n):
    # Distinct values but one pair, equal and adjacent in sorted order at
    # positions edge - 1 and edge: only the chunk that overlaps the edge by
    # one value holds both.  The unstable sort returns a reversed view of
    # its order, the stable re-sort a fresh C-ordered array.
    rng = random.Random(n)
    for edge in range(CHUNK, n, CHUNK):
        values = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        ordered = sorted(values, reverse=True)
        assert not _descending_order(values).flags.c_contiguous  # tie-free: the unstable sort stands
        tied = values.index(ordered[edge])
        values[tied] = ordered[edge - 1]
        order = _descending_order(values)
        assert order.flags.c_contiguous, edge
        ranks = descending_ranks(values)
        assert rank_descending(values).tolist() == ranks
        ys = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        expect = compose_key(ranks, descending_ranks(ys))
        assert keystream_from_orbit(values, ys).tobytes() == expect.tobytes()


@pytest.mark.parametrize("n", KEYSTREAM_LENGTHS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_keystream_from_orbit_rejects_non_finite_on_either_axis(n, bad):
    xs, ys = _keystream_axes(n)[:2]
    for where in sorted({0, n // 2, n - 1, min(CHUNK - 1, n - 1), min(CHUNK, n - 1)}):
        for axis in (0, 1):
            pair = [xs.copy(), ys.copy()]
            pair[axis][where] = bad
            with pytest.raises(InvalidInput, match="^values must be finite$"):
                keystream_from_orbit(*pair)


@pytest.mark.parametrize("xs, ys", [([0.1, 0.2], [0.3]), ([0.1], [0.3, 0.2]), ([[0.1, 0.2]], [0.3, 0.2])])
def test_keystream_from_orbit_rejects_axes_of_other_shapes(xs, ys):
    with pytest.raises(InvalidInput, match="^xs and ys must be 1-D and of equal length$"):
        keystream_from_orbit(xs, ys)


def test_keystream_from_orbit_rejects_empty_axes():
    with pytest.raises(InvalidInput, match="^values must be a non-empty 1-D sequence$"):
        keystream_from_orbit([], [])


def test_keystream_build_peaks_at_25_bytes_per_point():
    # x's and y's descending orders and K at 8 B per point each: each orbit
    # axis is freed once it is sorted, K comes after both sorts, and the tie
    # check and the composition work CHUNK positions at a time.
    n = 1 << 18
    params, initial = MapParams(2.5, 1.5), MapState(1 / n, 1 - 1 / n)
    build_keystream(params, initial, 1000)
    _, peak = traced(build_keystream, params, initial, n)
    assert peak <= 26 * n


def test_a_tied_axis_peaks_no_higher_than_a_tie_free_one():
    # The unstable order is freed before the stable re-sort, so x's re-sort
    # holds y's order, -x and x's stable order: 24 B per point, as tie-free.
    n = 1 << 18
    rng = np.random.default_rng(n)
    xs, ys = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
    xs[1] = xs[0]
    keystream_from_orbit(xs[:1000], ys[:1000])
    key, peak = traced(keystream_from_orbit, xs, ys)
    assert peak <= 26 * n
    assert key.tobytes() == compose_key(rank_descending(xs), rank_descending(ys)).tobytes()


def test_decrypt_peaks_at_the_keystream_build():
    # The XOR's temporaries come after the build has freed both orders.
    n = 1 << 18
    ciphertext, key = encrypt(random.Random(11).randbytes(n), MapParams(2.5, 1.5))
    _, peak = traced(decrypt, ciphertext, key)
    assert peak <= 27 * n
