import hashlib
import math
import random
import struct
import warnings

import mpmath as mp
import numpy as np
import pytest

from chaocrypt import (
    InvalidInput,
    MapParams,
    MapState,
    NumericalError,
    chaos,
    derive_initial_state,
    generate_sequence,
)
from chaocrypt.chaos import CHUNK, ORBIT_MIN_LANES
from conftest import traced


def test_derive_initial_state_uniform_bytes():
    s = derive_initial_state(b"AAAA")
    assert s.x == 0.25
    assert s.y == 0.75


def test_derive_initial_state_two_bytes():
    s = derive_initial_state(b"AB")
    assert s.x == 0.5
    assert s.y == 0.5


def test_derive_initial_state_thousand_bytes():
    rng = random.Random(0)
    for _ in range(50):
        data = bytes(rng.randrange(1, 256) for _ in range(1000))
        s = derive_initial_state(data)
        assert abs(s.x - 0.001) <= math.ulp(0.001)


def test_initial_state_is_reciprocal_of_length():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 3000)
        data = bytes(rng.randrange(0, 256) for _ in range(n))
        if sum(data) == 0:
            continue
        s = derive_initial_state(data)
        assert abs(s.x - 1.0 / n) <= math.ulp(1.0 / n)
        assert abs((s.x + s.y) - 1.0) <= math.ulp(1.0)


def test_derive_initial_state_rejects_empty():
    with pytest.raises(InvalidInput):
        derive_initial_state(b"")


def test_derive_initial_state_rejects_all_zero_bytes():
    with pytest.raises(InvalidInput):
        derive_initial_state(b"\x00" * 8)


def test_step_quarter_orbit_example():
    # sin(2*pi*0.75) = -1, so x' = (0.25 + 1 - 2) mod 1 = 0.25, y' = 1.625
    (x,), (y,) = generate_sequence(MapParams(2.0, 1.0), MapState(0.25, 0.75), 1)
    assert x == pytest.approx(0.25, abs=1e-12)
    assert y == pytest.approx(1.625, abs=1e-12)


def test_step_at_origin():
    (x,), (y,) = generate_sequence(MapParams(3.3, 0.5), MapState(0.0, 0.0), 1)
    assert x == 0.5
    assert y == 1.0


def test_step_wraps_negative_argument_into_unit_interval():
    # x + b + a*sin(2*pi*y) = 0.1 + 0 - 3 = -2.9; floor-mod gives 0.1 back
    (x,), _ = generate_sequence(MapParams(3.0, 0.0), MapState(0.1, 0.75), 1)
    assert 0.0 <= x < 1.0
    assert x == pytest.approx(0.1, abs=1e-12)


def test_step_x_stays_in_unit_interval():
    rng = random.Random(2)
    for _ in range(2000):
        params = MapParams(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        state = MapState(rng.uniform(0.0, 1.0), rng.uniform(-50.0, 50.0))
        (x,), (y,) = generate_sequence(params, state, 1)
        assert 0.0 <= x < 1.0
        assert math.isfinite(y)


def test_non_finite_inputs_rejected():
    with pytest.raises(InvalidInput):
        MapParams(float("nan"), 1.0)
    with pytest.raises(InvalidInput):
        MapParams(1.0, float("inf"))
    with pytest.raises(InvalidInput):
        MapState(0.1, float("nan"))


def _oracle_step(a, b, x, y):
    """Independent binary64-matched step: every +, -, *, mod rounds to 53
    bits via mpmath; sin comes from libm (the documented platform contract)."""
    with mp.workprec(53):
        am, bm, xm, ym = (mp.mpf(v) for v in (a, b, x, y))
        arg = (2 * mp.pi) * ym
        s = mp.mpf(math.sin(float(arg)))
        v = (xm + bm) + am * s
        f = mp.fmod(v, 1)
        if f < 0:
            f = f + 1
        if f >= 1:
            f = mp.mpf(0)
        yn = (1 - (am * xm) * xm) + ym
        return float(f), float(yn)


def test_thousand_step_orbit_matches_independent_reimplementation():
    data = bytes(random.Random(5).randrange(32, 127) for _ in range(100))
    state = derive_initial_state(data)
    xs, ys = generate_sequence(MapParams(3.7, 2.9), state, 1000)
    ox, oy = state.x, state.y
    for _ in range(1000):
        ox, oy = _oracle_step(3.7, 2.9, ox, oy)
    assert abs(xs[-1] - ox) < 1e-6
    assert abs(ys[-1] - oy) < 1e-6


def test_short_orbit_matches_high_precision_truth():
    # Fully independent cross-check at 250-bit precision, no rounding
    # emulation.  Ten steps keep the double orbit within amplified-rounding
    # distance of the true orbit (divergence rate ~e^1.7 per step).
    xs, ys = generate_sequence(MapParams(3.7, 2.9), MapState(0.1, 0.1), 10)
    with mp.workprec(250):
        a, b = mp.mpf(3.7), mp.mpf(2.9)
        x, y = mp.mpf(0.1), mp.mpf(0.1)
        two_pi = 2 * mp.pi
        for _ in range(10):
            v = x + b + a * mp.sin(two_pi * y)
            xn = v - mp.floor(v)
            yn = 1 - a * x * x + y
            x, y = xn, yn
        assert abs(xs[-1] - float(x)) < 1e-6
        assert abs(ys[-1] - float(y)) < 1e-6


def test_pinned_reference_orbit():
    # Platform contract: these exact doubles must reproduce on any build
    # that claims key compatibility.
    xs, ys = generate_sequence(MapParams(3.7, 2.9), MapState(0.1, 0.1), 5)
    assert list(xs) == [
        0.17480543348215072,
        0.5014662049085148,
        0.2567618555895046,
        0.609108246450627,
        0.856786798156361,
    ]
    assert list(ys) == [
        1.063,
        1.9499393235729343,
        2.019506411311145,
        2.775577804513812,
        2.4028302377054285,
    ]


def test_generate_sequence_first_values():
    xs, ys = generate_sequence(MapParams(2.0, 1.0), MapState(0.25, 0.75), 3)
    assert xs[0] == pytest.approx(0.25, abs=1e-12)
    assert ys[0] == pytest.approx(1.625, abs=1e-12)


def test_transient_is_pure_prefix_discard():
    params = MapParams(3.1, 0.7)
    init = MapState(0.2, 0.4)
    full_x, full_y = generate_sequence(params, init, 7)
    tail_x, tail_y = generate_sequence(params, init, 5, transient=2)
    assert tail_x == full_x[2:]
    assert tail_y == full_y[2:]


# The first chunk's edges, then the second's and a ragged tail four chunks in.
@pytest.mark.parametrize(
    "transient",
    [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3,
     2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 4 * CHUNK + 3],
)
def test_transient_stepped_in_chunks_is_one_orbit(transient):
    params, init = MapParams(2.5, 1.5), MapState(0.1, 0.1)
    full_x, full_y = generate_sequence(params, init, transient + 5)
    tail_x, tail_y = generate_sequence(params, init, 5, transient)
    assert tail_x.tobytes() == full_x[transient:].tobytes()
    assert tail_y.tobytes() == full_y[transient:].tobytes()


def test_long_transient_is_not_held_in_memory():
    _, peak = traced(generate_sequence, MapParams(2.5, 1.5), MapState(0.1, 0.1), 100, 250_000)
    assert peak <= 2 << 20
    assert peak <= 9 * CHUNK  # one chunk's scratch (8 B per point) and the result


def test_sequences_are_deterministic():
    params = MapParams(2.2, 3.3)
    init = MapState(0.5, 0.5)
    assert generate_sequence(params, init, 64) == generate_sequence(params, init, 64)


def test_generate_sequence_rejects_bad_counts():
    params = MapParams(2.0, 2.0)
    init = MapState(0.1, 0.1)
    with pytest.raises(InvalidInput):
        generate_sequence(params, init, 0)
    with pytest.raises(InvalidInput):
        generate_sequence(params, init, 5, transient=-1)


def test_orbit_is_two_binary64_buffers_that_numpy_reads_in_place():
    n = 65_536
    (xs, ys), peak = traced(generate_sequence, MapParams(2.5, 1.5), MapState(1 / n, 1 - 1 / n), n)
    assert peak <= 17 * n  # 8 bytes per point per buffer, plus a fixed overhead
    assert np.shares_memory(np.asarray(xs), xs) and np.shares_memory(np.asarray(ys), ys)


def test_tiny_parameter_change_decorrelates_orbit():
    init = MapState(0.001, 0.999)
    xs1, _ = generate_sequence(MapParams(2.7, 1.9), init, 1000)
    xs2, _ = generate_sequence(MapParams(2.7 + 1e-15, 1.9), init, 1000)
    differ = sum(u != v for u, v in zip(xs1[100:], xs2[100:]))
    assert differ >= 0.9 * 900


def test_pinned_long_orbit_digest():
    # SHA-256 of the little-endian doubles x[0..4095] then y[0..4095],
    # recorded before the map's step was inlined into generate_sequence.
    xs, ys = generate_sequence(MapParams(3.7, 2.9), MapState(0.123, 0.456), 4096, transient=64)
    digest = hashlib.sha256(struct.pack(f"<{2 * 4096}d", *xs, *ys)).hexdigest()
    assert digest == "203dfdc3c13240860ebd2b81ff2a26609d02c5b1a3535917e8612018c151a737"


@pytest.mark.parametrize(
    "params, state",
    [
        # 2*pi*y overflows, so the first sin raises
        (MapParams(2.5, 1.5), MapState(0.1, 1e308)),
        # x + b + a*sin(..) overflows: x turns NaN, then y, and stays NaN
        (MapParams(1.7e308, 1.7e308), MapState(0.1, 0.1)),
        # y overflows on the last step, after the last sin
        (MapParams(-1.7e308, 0.0), MapState(0.999, 2.8e307)),
    ],
)
@pytest.mark.parametrize("transient", [0, 3])
def test_orbit_leaving_the_finite_doubles_raises(params, state, transient):
    with pytest.raises(NumericalError):
        generate_sequence(params, state, 1, transient)
    with pytest.raises(NumericalError):
        generate_sequence(params, state, 5, transient)


def _lanes(a, b, initial, n, transient):
    """Every lane's xs that chaos._orbits yields and its ys that
    chaos._ys_of sums back from them, stacked, and the number of blocks
    _orbits steps: one per chaos._step_lanes call, and one per lane that it
    steps alone with generate_sequence."""
    chaos._numpy_sin_matches_libm()  # probed before the count starts
    sizes = []
    with pytest.MonkeyPatch.context() as patch:
        step_lanes, generate = chaos._step_lanes, chaos.generate_sequence
        patch.setattr(chaos, "_step_lanes", lambda a, *args: sizes.append(len(a)) or step_lanes(a, *args))
        patch.setattr(chaos, "generate_sequence", lambda *args: sizes.append(1) or generate(*args))
        xs = np.array(list(chaos._orbits(a, b, initial, n, transient)))
    a = np.broadcast_to(a, len(xs)).tolist()
    b = np.broadcast_to(b, len(xs)).tolist()
    ys = []
    for k in range(len(xs)):
        start = initial
        if transient:  # the lane's point after its transient
            tx, ty = generate_sequence(MapParams(a[k], b[k]), initial, transient)
            start = MapState(tx[-1], ty[-1])
        ys.append(chaos._ys_of(a[k], start, xs[k]))
    return xs, np.array(ys), len(sizes)


def test_lane_mod_one_is_python_float_mod():
    # chaos._step_lanes writes x's mod 1 as v - floor(v): it must give the
    # double that generate_sequence's v % 1.0 gives, and numpy's % too.
    edges = [0.0, -0.0, 5e-324, -5e-324, -1e-20, 2.0**53, -(2.0**53), 1e300, -1e300]
    for k in range(-10, 11):  # the integers, negative ones included, and 1 ulp either side
        edges += [math.nextafter(k, -math.inf), float(k), math.nextafter(k, math.inf)]
    draws = np.random.default_rng(32).uniform(-5.0, 10.0, 10**6)
    v = np.concatenate([np.array(edges), draws])
    lane = v - np.floor(v)
    assert lane.tobytes() == np.array([x % 1.0 for x in v.tolist()]).tobytes()
    assert lane.tobytes() == (v % 1.0).tobytes()
    assert -1e-20 % 1.0 == 1.0  # rounds up to 1.0, which the >= 1.0 fix-up then sets to 0.0


@pytest.mark.parametrize("transient", [0, 3])
@pytest.mark.parametrize(
    "lanes, n, blocks",
    [
        (1, 40, 1),
        (ORBIT_MIN_LANES - 1, 40, 1),  # below the lane floor: stepped lane by lane
        (ORBIT_MIN_LANES, 40, 1),
        (63, 40, 1),  # both sides of the floor's old value, 64
        (64, 40, 1),
        (300, 1000, 2),  # more lanes than ORBIT_BLOCK_BYTES holds at n = 1000 (262)
    ],
)
@pytest.mark.parametrize("numpy_sin_matches", [True, False])
def test_orbits_match_generate_sequence_lane_by_lane(monkeypatch, lanes, n, blocks, transient, numpy_sin_matches):
    if not numpy_sin_matches:  # the fallback where numpy's sin is not libm's
        monkeypatch.setattr(chaos, "_numpy_sin_matches_libm", lambda: False)
    rng = random.Random(lanes)
    a = [rng.uniform(1.0, 4.0) for _ in range(lanes)]
    b = [rng.uniform(0.0, 4.0) for _ in range(lanes)]
    # In lane 0 every x + b + a*sin(2*pi*y) is about -1e-20, whose % 1.0
    # rounds to 1.0, so each of its x values is set by the >= 1.0 fix-up.
    a[0], b[0] = 2e-20, 0.0
    initial = MapState(1e-20, 0.75)
    xs, ys, count = _lanes(a, b, initial, n, transient)
    # below the lane floor, and where the probe fails, each lane is stepped alone
    stepped_together = lanes // blocks >= ORBIT_MIN_LANES and chaos._numpy_sin_matches_libm()
    assert count == (blocks if stepped_together else lanes)
    assert xs.shape == ys.shape == (lanes, n)
    for k in range(lanes):
        want_x, want_y = generate_sequence(MapParams(a[k], b[k]), initial, n, transient)
        assert xs[k].tobytes() == np.array(want_x).tobytes()
        assert ys[k].tobytes() == np.array(want_y).tobytes()


def test_orbits_step_lanes_together_only_in_blocks_at_the_lane_floor(monkeypatch):
    numpy_path = chaos._numpy_sin_matches_libm()  # probed before the count starts
    calls = []
    real = chaos.generate_sequence
    monkeypatch.setattr(chaos, "generate_sequence", lambda *args: calls.append(args) or real(*args))
    _lanes([2.5] * ORBIT_MIN_LANES, 1.5, MapState(0.1, 0.1), 10, 0)
    assert len(calls) == (0 if numpy_path else ORBIT_MIN_LANES)
    calls.clear()
    _lanes([2.5] * (ORBIT_MIN_LANES - 1), 1.5, MapState(0.1, 0.1), 10, 0)
    assert len(calls) == ORBIT_MIN_LANES - 1


@pytest.mark.parametrize(
    "params, state",
    [
        (MapParams(2.5, 1.5), MapState(0.1, 1e308)),
        (MapParams(1.7e308, 1.7e308), MapState(0.1, 0.1)),
        (MapParams(-1.7e308, 0.0), MapState(0.999, 2.8e307)),
    ],
)
@pytest.mark.parametrize("transient", [0, 3])
def test_orbits_with_a_divergent_lane_raise_without_warnings(params, state, transient):
    a = [2.5] * ORBIT_MIN_LANES
    b = [1.5] * ORBIT_MIN_LANES
    a[7], b[7] = params.a, params.b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 5):
            with pytest.raises(NumericalError, match="orbit left the finite doubles"):
                _lanes(a, b, state, n, transient)


def test_orbits_reject_bad_counts_as_generate_sequence_does():
    # chaos._orbits takes its counts from callers that reject them first:
    # test_analysis.py::test_grid_inputs_are_checked_before_the_grid_orbits.
    for n, transient, message in [(0, 0, "sequence length must be >= 1"), (5, -1, "transient must be >= 0")]:
        with pytest.raises(InvalidInput, match=message):
            generate_sequence(MapParams(2.0, 2.0), MapState(0.1, 0.1), n, transient)
