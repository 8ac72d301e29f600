import hashlib
import math
import random

import numpy as np
import pytest

from chaocrypt import (
    FitnessEvaluator,
    GaConfig,
    InvalidInput,
    KeyRecord,
    MapParams,
    MapState,
    NumericalError,
    analysis,
    bifurcation_sweep,
    chaos,
    fitness_landscape,
    generate_sequence,
    keyspace_size,
    length_experiment,
    lyapunov_spectrum,
    sample_text,
    sensitivity_probe,
    summarize_lengths,
)
from chaocrypt.analysis import COVERAGE_BINS, DEFAULT_SWEEP_STATE, bin_coverage
from chaocrypt.chaos import ORBIT_BLOCK_BYTES, ORBIT_MIN_LANES, TWO_PI
from conftest import traced


def _three_uneven_blocks(monkeypatch, n, numpy_sin_matches):
    """Shrink the orbit blocks so 121 lanes of n points step as blocks of
    40, 40 and 41 lanes, and return the list that the lanes of each
    chaos._step_lanes call are added to.  The lane-by-lane fallback adds a
    1 for each of its 121 generate_sequence calls instead."""
    if not numpy_sin_matches:  # the fallback where numpy's sin is not libm's
        monkeypatch.setattr(chaos, "_numpy_sin_matches_libm", lambda: False)
    chaos._numpy_sin_matches_libm()  # probed before the count starts
    monkeypatch.setattr(chaos, "ORBIT_BLOCK_BYTES", 45 * 8 * n)
    sizes = []
    step_lanes, generate = chaos._step_lanes, chaos.generate_sequence
    monkeypatch.setattr(chaos, "_step_lanes", lambda a, *args: sizes.append(len(a)) or step_lanes(a, *args))
    monkeypatch.setattr(chaos, "generate_sequence", lambda *args: sizes.append(1) or generate(*args))
    return sizes


def test_bifurcation_row_count():
    values, xs = bifurcation_sweep("a", 2.0, 1.0, 4.0, steps=100, iterations=600, transient=500)
    assert values.shape == (100,) and xs.shape == (100, 100)
    assert np.all(xs >= 0.0) and np.all(xs < 1.0)
    _, xs = bifurcation_sweep("b", 2.0, 0.0, 4.0, steps=3, iterations=11, transient=10)
    assert xs.shape == (3, 1)  # one point per row is still a row


@pytest.mark.parametrize("swept", ["a", "b"])
@pytest.mark.parametrize("numpy_sin_matches", [True, False])
def test_bifurcation_sweep_over_several_blocks_matches_generate_sequence(monkeypatch, swept, numpy_sin_matches):
    sizes = _three_uneven_blocks(monkeypatch, 200, numpy_sin_matches)
    values, xs = bifurcation_sweep(swept, 2.0, 1.0, 4.0, steps=121, iterations=300, transient=100)
    assert sizes == ([40, 40, 41] if chaos._numpy_sin_matches_libm() else [1] * 121)
    for value, row in zip(values.tolist(), xs):
        params = MapParams(value, 2.0) if swept == "a" else MapParams(2.0, value)
        want, _ = generate_sequence(params, DEFAULT_SWEEP_STATE, 200, 100)
        assert row.tobytes() == np.array(want).tobytes()


def test_bifurcation_sweep_over_a_is_dense():
    _, xs = bifurcation_sweep("a", 2.0, 1.0, 4.0, steps=100, iterations=1500, transient=500)
    assert np.all(bin_coverage(xs) >= 0.95)


def test_bifurcation_sweep_over_b_is_dense():
    # Note: the coverage claim holds on sampled grids, not pointwise; there
    # is a narrow periodic window at exactly (a=2, b=2.5) that 100-point
    # grids over (0, 4) straddle.
    _, xs = bifurcation_sweep("b", 2.0, 0.0, 4.0, steps=100, iterations=1500, transient=500)
    assert np.all(bin_coverage(xs) >= 0.95)


def _unique_bins(row):
    """Reference: the number of distinct bins np.unique finds, over the bins."""
    bins = COVERAGE_BINS
    return len(np.unique(np.minimum((np.asarray(row) * bins).astype(np.int64), bins - 1))) / bins


def test_bin_coverage_of_rows_equals_coverage_of_each_row():
    below_one = math.nextafter(1.0, 0.0)
    blocks = [
        np.array(
            [
                [0.5, 0.5, 0.5, 0.5],
                [0.0, 0.0, 0.0, 0.0],
                [below_one] * 4,
                [0.0, below_one, 0.0, below_one],
                [below_one, 0.5, 0.25, 0.0],
            ]
        ),
        np.array([[0.0], [below_one], [0.3]]),  # single elements
    ]
    for rows in blocks:
        got = bin_coverage(rows)
        assert got.shape == (len(rows),)
        assert got.tolist() == [_unique_bins(row) for row in rows]


@pytest.mark.parametrize(
    "xs",
    [
        [],
        np.empty((0, 4)),
        np.empty((3, 0)),
        [0.5, 0.25],
        np.zeros((2, 2, 2)),
        # values outside [0, 1), for which it has no bin
        [np.linspace(-3, 0.999, 1000)],
        [[-0.5, 0.5]],
        [[0.5, 1.0]],
        [[math.nan]],
    ],
)
def test_bin_coverage_rejects_no_values_and_other_than_rows(xs):
    with pytest.raises(InvalidInput):
        bin_coverage(xs)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"swept_parameter": "c"}, "swept_parameter must be 'a' or 'b'"),
        ({"fixed_value": math.nan}, "fixed_value must be finite"),
        ({"fixed_value": math.inf}, "fixed_value must be finite"),
        ({"range_low": 4.0, "range_high": 1.0}, "range 4.0:1.0 needs low < high"),
        ({"range_low": 1.0, "range_high": math.nan}, "range 1.0:nan needs low < high"),
        (
            {"range_low": -1.7e308, "range_high": 1.7e308},
            "range -1.7e+308:1.7e+308 is too wide: high - low overflows a double",
        ),
        ({"steps": 1}, "steps must be >= 2"),
        ({"transient": -1}, "need iterations > transient >= 0"),
        ({"iterations": 100, "transient": 100}, "need iterations > transient >= 0"),
    ],
)
def test_sweep_spec_rejects_each_bad_field_when_constructed(fields, message):
    good = dict(swept_parameter="a", fixed_value=2.0, range_low=1.0, range_high=4.0,
                steps=10, iterations=100, transient=0)
    with pytest.raises(InvalidInput) as exc:
        bifurcation_sweep(**{**good, **fields})
    assert str(exc.value) == message


class _GridOrbitsReached(Exception):
    pass


def _unreachable_grid_orbits(*args, **kwargs):
    raise _GridOrbitsReached


_SWEEP = dict(swept_parameter="b", fixed_value=2.0, range_low=0.0, range_high=4.0,
              steps=4, iterations=100, transient=10)
_LANDSCAPE = dict(plaintext=b"grid", a_range=(1.0, 4.0), b_range=(0.1, 4.0), grid_a=3, grid_b=3)
_GRID_CALLS = {
    "sweep": lambda **fields: bifurcation_sweep(**{**_SWEEP, **fields}),
    "landscape": lambda **fields: fitness_landscape(**{**_LANDSCAPE, **fields}),
}
_UNCHECKED_GRID_INPUTS = [
    ("sweep", {"iterations": 10}),  # iterations == transient
    ("sweep", {"transient": -1}),
    ("sweep", {"fixed_value": math.nan}),
    ("sweep", {"fixed_value": math.inf}),
    ("sweep", {"range_high": math.nan}),
    ("sweep", {"range_high": math.inf}),
    ("sweep", {"range_low": -math.inf}),
    ("landscape", {"plaintext": b""}),
    ("landscape", {"plaintext": bytes(5)}),  # all NUL: x0 = mean / sum has no value
    ("landscape", {"grid_a": 0}),
    ("landscape", {"grid_b": 0}),
    ("landscape", {"a_range": (1.0, math.nan)}),
    ("landscape", {"b_range": (0.1, math.inf)}),
    ("landscape", {"a_range": (-math.inf, 4.0)}),
    ("landscape", {"b_range": (-1.7e308, 1.7e308)}),  # high - low overflows
]


@pytest.mark.parametrize(
    "call, fields",
    _UNCHECKED_GRID_INPUTS,
    ids=[f"{c}-{k}={v}" for c, f in _UNCHECKED_GRID_INPUTS for k, v in f.items()],
)
def test_grid_inputs_are_checked_before_the_grid_orbits(monkeypatch, call, fields):
    # chaos._orbits checks nothing itself: every input its checks used to
    # catch is rejected by the public call before the orbits are stepped.
    monkeypatch.setattr(chaos, "_orbits", _unreachable_grid_orbits)
    with pytest.raises(_GridOrbitsReached):  # checked inputs do reach it
        _GRID_CALLS[call]()
    with pytest.raises(InvalidInput):
        _GRID_CALLS[call](**fields)


def test_lyapunov_degenerates_to_zero_for_rigid_rotation():
    # a = 0 turns the map into x' = x + b, y' = 1 + y with identity Jacobian.
    result = lyapunov_spectrum(MapParams(0.0, 0.3), MapState(0.4, 0.2))
    assert abs(result.exponent_1) <= 1e-6
    assert abs(result.exponent_2) <= 1e-6


def test_lyapunov_positive_in_key_range():
    result = lyapunov_spectrum(MapParams(2.0, 2.0), MapState(0.1, 0.1))
    assert result.exponent_1 > 0.0
    # frozen regression value for the default windows
    assert result.exponent_1 == pytest.approx(1.290783075757862, rel=1e-9)
    assert result.exponent_2 == pytest.approx(0.8400895659340064, rel=1e-9)


@pytest.mark.parametrize(
    "params, iterations, transient, hex_1, hex_2",
    [
        (MapParams(2.0, 2.0), 2500, 500, "0x1.4a70c2789c3d2p+0", "0x1.ae203836cb772p-1"),
        (MapParams(3.7, 2.9), 1, 0, "0x1.3dfa5f3472933p+1", "0x1.bf2faf87328c5p-3"),
    ],
)
def test_lyapunov_bits_are_pinned(params, iterations, transient, hex_1, hex_2):
    # Recorded while the Lyapunov loop still stepped the map itself.
    result = lyapunov_spectrum(params, MapState(0.1, 0.1), iterations, transient)
    assert (result.exponent_1.hex(), result.exponent_2.hex()) == (hex_1, hex_2)


@pytest.mark.parametrize("numpy_sin_matches", [True, False])
def test_lyapunov_cells_are_pinned_with_and_without_numpy_cos(monkeypatch, numpy_sin_matches):
    # The exponents take cos from libm alone, whether or not the grids' sin
    # probe passes: a call to numpy's cos fails the test.
    def no_cos(*args):
        raise AssertionError("np.cos called by lyapunov_spectrum")

    if not numpy_sin_matches:
        monkeypatch.setattr(chaos, "_numpy_sin_matches_libm", lambda: False)
    monkeypatch.setattr(np, "cos", no_cos)
    for params, iterations, transient, hex_1, hex_2 in [
        (MapParams(2.0, 2.0), 2500, 500, "0x1.4a70c2789c3d2p+0", "0x1.ae203836cb772p-1"),
        (MapParams(3.7, 2.9), 1, 0, "0x1.3dfa5f3472933p+1", "0x1.bf2faf87328c5p-3"),
    ]:
        result = lyapunov_spectrum(params, MapState(0.1, 0.1), iterations, transient)
        assert (result.exponent_1.hex(), result.exponent_2.hex()) == (hex_1, hex_2)
    # An 8 x 8 grid over the key ranges, recorded while every Jacobian entry
    # was computed with math.cos step by step.
    cells = []
    for a in np.linspace(1.0, 4.0, 8).tolist():
        for b in np.linspace(0.1, 4.0, 8).tolist():
            result = lyapunov_spectrum(MapParams(a, b), MapState(0.1, 0.1), 400, 100)
            cells.append(f"{result.exponent_1.hex()} {result.exponent_2.hex()}")
    digest = hashlib.sha256("\n".join(cells).encode()).hexdigest()
    assert digest == "b8486ac7682eba7de64391404b9906f27c18978e0fce78ab4a906c6abac30f9f"


def test_trig_probe_fails_when_numpy_sin_differs_from_libm(monkeypatch):
    real_sin = np.sin

    def sin_one_ulp_off(values):
        out = real_sin(values)
        out[0] = np.nextafter(out[0], np.inf)
        return out

    chaos._numpy_sin_matches_libm.cache_clear()
    try:
        monkeypatch.setattr(np, "sin", sin_one_ulp_off)
        assert chaos._numpy_sin_matches_libm() is False
    finally:
        monkeypatch.undo()
        chaos._numpy_sin_matches_libm.cache_clear()


def test_lyapunov_rejects_orbit_leaving_the_finite_doubles():
    with pytest.raises(NumericalError):
        lyapunov_spectrum(MapParams(1.0, 1.0), MapState(0.1, 1e308), 50, 10)


def test_lyapunov_rejects_a_frame_that_degenerates_without_warnings():
    # The orbit stays finite, but -2 * a overflows and times x = 0.0 is NaN:
    # the frame check, not a numpy warning, reports it.
    with pytest.raises(NumericalError, match="^tangent frame degenerated$"):
        lyapunov_spectrum(MapParams(1e308, 0.5), MapState(0.0, 0.25), 10, 2)
    # At (x0, y0) = (-4*pi, 0) with a = 1/(4*pi) the first Jacobian is
    # [[1, 0.5], [2, 1]], which is singular: it maps the frame (1, 0), (0, 1)
    # to (1, 2) and (0.5, 1), and Gram-Schmidt leaves exactly 0 of the second.
    a, x0 = 0.07957747154594767, -12.566370614359172
    assert TWO_PI * a * math.cos(0.0) == 0.5 and -2.0 * a * x0 == 2.0
    with pytest.raises(NumericalError, match="^tangent frame degenerated$"):
        lyapunov_spectrum(MapParams(a, 1.0), MapState(x0, 0.0), 3, 1)


def _lyapunov_checked_each_step(params, initial, iterations, transient):
    """The Lyapunov loop as it was before the frame was checked once: libm's
    cos point by point, and both stretch factors range-checked at every
    step.  The oracle of the differential test below."""
    analysis._check_window(iterations, transient)
    a = params.a
    xs, ys = generate_sequence(params, initial, iterations)
    x = np.concatenate(([initial.x], np.asarray(xs)[:-1]))
    y = np.concatenate(([initial.y], np.asarray(ys)[:-1]))
    cos_2pi_y = np.array([math.cos(v) for v in (TWO_PI * y).tolist()])
    with np.errstate(all="ignore"):
        j12s = (TWO_PI * a * cos_2pi_y).tolist()
        j21s = (-2.0 * a * x).tolist()
    v1x, v1y = 1.0, 0.0
    v2x, v2y = 0.0, 1.0
    s1 = s2 = 0.0
    for i, j12, j21 in zip(range(iterations), j12s, j21s):
        u1x = v1x + j12 * v1y
        u1y = j21 * v1x + v1y
        u2x = v2x + j12 * v2y
        u2y = j21 * v2x + v2y
        r1 = math.hypot(u1x, u1y)
        if not 0.0 < r1 < math.inf:  # also false for NaN
            raise NumericalError("tangent frame degenerated")
        e1x, e1y = u1x / r1, u1y / r1
        d = u2x * e1x + u2y * e1y
        w2x, w2y = u2x - d * e1x, u2y - d * e1y
        r2 = math.hypot(w2x, w2y)
        if not 0.0 < r2 < math.inf:
            raise NumericalError("tangent frame degenerated")
        v1x, v1y = e1x, e1y
        v2x, v2y = w2x / r2, w2y / r2
        if i >= transient:
            s1 += math.log(r1)
            s2 += math.log(r2)
    measured = iterations - transient
    l1, l2 = s1 / measured, s2 / measured
    if l2 > l1:
        l1, l2 = l2, l1
    return analysis.LyapunovResult(l1, l2)


def _lyapunov_outcome(fn, *args):
    """The exponents' bits, or the type and message of the error raised."""
    try:
        result = fn(*args)
    except (InvalidInput, NumericalError) as exc:
        return type(exc).__name__, str(exc)
    return result.exponent_1.hex(), result.exponent_2.hex()


@pytest.mark.filterwarnings("error")
def test_lyapunov_matches_the_loop_checked_each_step():
    # Crafted cases at the edges of the frame checks: huge |a| overflows
    # the Jacobian, a = 1/(4*pi) with x0 = -4*pi makes it singular, a = 0
    # makes it the identity, and huge or tiny starts leave the doubles.
    rng = random.Random(30)
    four_pi = 4.0 * math.pi
    a_values = [0.0, 1.0 / four_pi, 1.7e308, -1.7e308, 1e308, -1e308, 2.0, 3.7, -2.5]
    points = [0.0, -four_pi, 1e300, -1e300, 1e-300, -1e-300, 0.1, 0.5]
    outcomes = {}
    for case in range(3000):
        if case % 3:
            a = rng.choice(a_values)
        else:  # any magnitude up to 1.7e308, either sign
            a = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 308.0) * rng.uniform(0.1, 1.7)
        params = MapParams(a, rng.choice((0.0, 0.5, 1.0, rng.uniform(-4.0, 4.0))))
        initial = MapState(rng.choice(points), rng.choice(points))
        iterations = rng.randint(1, 60)
        transient = rng.randint(0, iterations - 1)
        args = (params, initial, iterations, transient)
        want = _lyapunov_outcome(_lyapunov_checked_each_step, *args)
        assert _lyapunov_outcome(lyapunov_spectrum, *args) == want, args
        kind = want if want[0] == "NumericalError" else "finite"
        outcomes[kind] = outcomes.get(kind, 0) + 1
    # Every outcome is well represented, so no one of them is checked vacuously.
    assert len(outcomes) == 3 and min(outcomes.values()) >= 300, outcomes


def test_lyapunov_exponents_sorted_descending():
    rng = random.Random(0)
    for _ in range(10):
        params = MapParams(rng.uniform(1, 4), rng.uniform(0.1, 4))
        result = lyapunov_spectrum(params, MapState(0.1, 0.1), 800, 100)
        assert result.exponent_1 >= result.exponent_2


def test_lyapunov_converged_under_window_doubling():
    base = lyapunov_spectrum(MapParams(2.0, 2.0), MapState(0.1, 0.1), 2500, 500)
    double = lyapunov_spectrum(MapParams(2.0, 2.0), MapState(0.1, 0.1), 4500, 500)
    assert abs(base.exponent_1 - double.exponent_1) < 0.1
    assert abs(base.exponent_2 - double.exponent_2) < 0.1


def test_lyapunov_rejects_bad_windows():
    with pytest.raises(InvalidInput):
        lyapunov_spectrum(MapParams(2.0, 2.0), MapState(0.1, 0.1), 100, 100)


def test_lyapunov_holds_only_its_orbit():
    # generate_sequence's two array("d") buffers take 16 B per point, and the
    # frame loop reads each step's Jacobian from them: nothing else n-long.
    n = 400_000
    lyapunov_spectrum(MapParams(2.5, 1.5), DEFAULT_SWEEP_STATE, 1000, 100)
    _, peak = traced(lyapunov_spectrum, MapParams(2.5, 1.5), DEFAULT_SWEEP_STATE, n, 500)
    assert peak < 17 * n


def test_landscape_shape_and_range():
    plaintext = sample_text(64, random.Random(1))
    table = fitness_landscape(plaintext, (1.0, 4.0), (0.1, 4.0), 2, 2)
    assert table.shape == (4, 2 + 1)
    assert np.all(table[:, 2] >= 0.0) and np.all(table[:, 2] <= 100.0)


def test_landscape_matches_direct_scoring():
    # 81 cells: enough lanes for the orbits to be stepped together
    plaintext = sample_text(120, random.Random(2))
    table = fitness_landscape(plaintext, (1.0, 4.0), (0.1, 4.0), 9, 9)
    assert table.shape[0] >= ORBIT_MIN_LANES
    evaluator = FitnessEvaluator(plaintext)
    for a, b, f in table.tolist():
        assert evaluator.score(MapParams(a, b)) == f


@pytest.mark.parametrize("numpy_sin_matches", [True, False])
def test_landscape_over_several_blocks_matches_direct_scoring(monkeypatch, numpy_sin_matches):
    plaintext = sample_text(120, random.Random(3))
    sizes = _three_uneven_blocks(monkeypatch, 120, numpy_sin_matches)
    table = fitness_landscape(plaintext, (1.0, 4.0), (0.1, 4.0), 11, 11)
    assert sizes == ([40, 40, 41] if chaos._numpy_sin_matches_libm() else [1] * 121)
    evaluator = FitnessEvaluator(plaintext)
    for a, b, f in table.tolist():
        assert evaluator.score(MapParams(a, b)) == f


@pytest.mark.parametrize("numpy_sin_matches", [True, False])
def test_landscape_holds_one_orbit_block_at_a_time(monkeypatch, numpy_sin_matches):
    # 800 cells at n = 1,000 are 4 blocks of 200 lanes' x values, 1.6 MB each.
    # chaos._orbits drops each block before it steps the next and yields one
    # lane's xs at a time, whose ys the landscape sums back alone, so it holds
    # one block and one orbit; the lane-by-lane fallback makes no block.
    if not numpy_sin_matches:
        monkeypatch.setattr(chaos, "_numpy_sin_matches_libm", lambda: False)
    n, cells = 1000, 800
    blocks = -(-cells // (ORBIT_BLOCK_BYTES // (8 * n)))
    assert blocks == 4
    plaintext = sample_text(n, random.Random(4))
    fitness_landscape(plaintext, (1.0, 4.0), (0.1, 4.0), 1, 1)
    _, peak = traced(fitness_landscape, plaintext, (1.0, 4.0), (0.1, 4.0), 20, 40)
    assert peak < (1.25 * (8 * n * cells // blocks) if numpy_sin_matches else 0.1 * ORBIT_BLOCK_BYTES)


@pytest.mark.parametrize("numpy_sin_matches", [True, False])
def test_sweep_over_several_blocks_holds_its_output_once(monkeypatch, numpy_sin_matches):
    # 200 steps at m = 1,000 are 5 blocks of 40 lanes.  The sweep copies each
    # lane's xs into its output as chaos._orbits yields them, so besides the
    # output it holds one block of xs and one lane's: no list of blocks, no
    # join, and no ys.
    if not numpy_sin_matches:
        monkeypatch.setattr(chaos, "_numpy_sin_matches_libm", lambda: False)
    chaos._numpy_sin_matches_libm()  # probed before the peak is traced
    m, steps = 1000, 200
    monkeypatch.setattr(chaos, "ORBIT_BLOCK_BYTES", 45 * 8 * m)
    blocks = -(-steps // 45)
    assert blocks == 5
    _, peak = traced(bifurcation_sweep, "a", 2.0, 1.0, 4.0, steps, m + 100, 100)
    assert peak < 8 * steps * m + 1.25 * (8 * m * steps // blocks)


def test_landscape_has_multiple_near_optimal_basins():
    plaintext = sample_text(1000, random.Random(109))
    table = fitness_landscape(plaintext, (1.0, 4.0), (0.1, 4.0), 50, 50)
    best = table[:, 2].max()
    assert best >= 99.0
    assert int((table[:, 2] >= best - 0.5).sum()) >= 2


def test_length_experiment_row_count_and_reproducibility():
    config = GaConfig(rng_seed=5, max_generations=3)
    rows = length_experiment([10, 50, 100], config, trials=2)
    assert len(rows) == 6
    assert rows == length_experiment([10, 50, 100], config, trials=2)
    summary = summarize_lengths(rows)
    assert [s[0] for s in summary] == [10, 50, 100]


def test_length_experiment_refuses_a_repeated_length_before_any_key_search(monkeypatch):
    # A repeated length would repeat its seeds, so its rows and its trials.
    def must_not_run(*args):
        raise AssertionError("a key search ran for a refused list")

    monkeypatch.setattr(analysis, "evolve", must_not_run)
    with pytest.raises(InvalidInput, match="^each length may be given only once$"):
        length_experiment([10, 10, 20], GaConfig(), trials=2)


def test_length_one_fitness_is_all_or_nothing():
    config = GaConfig(rng_seed=6, max_generations=2)
    rows = length_experiment([1], config, trials=3)
    for _, _, _, max_fitness in rows:
        assert max_fitness in (0.0, 100.0)


def test_sensitivity_zero_epsilon_changes_nothing():
    plaintext = sample_text(256, random.Random(7))
    key = KeyRecord(2.5, 1.5, 1.0 / 256, 1.0 - 1.0 / 256)
    assert sensitivity_probe(plaintext, key, "a", 0.0) == 0.0


def test_sensitivity_rejects_an_unknown_component():
    plaintext = sample_text(64, random.Random(8))
    key = KeyRecord(2.5, 1.5, 1.0 / 64, 1.0 - 1.0 / 64)
    with pytest.raises(InvalidInput, match="^component must be one of"):
        sensitivity_probe(plaintext, key, "z", 1e-15)


def test_sensitivity_rejects_out_of_range_perturbation():
    plaintext = sample_text(64, random.Random(8))
    key = KeyRecord(4.0, 1.5, 1.0 / 64, 1.0 - 1.0 / 64)
    with pytest.raises(InvalidInput):
        sensitivity_probe(plaintext, key, "a", 0.5)  # a leaves [1, 4]


def test_sensitivity_refuses_a_plaintext_its_key_was_not_made_for():
    cases = [
        (sample_text(60, random.Random(8)), KeyRecord(2.5, 1.5, 1.0 / 28, 1.0 - 1.0 / 28),
         "data is 60 bytes but the key is for a 28-byte message"),
        # every valid key names a length >= 1, so no key is for an empty plaintext
        (b"", KeyRecord(2.5, 1.5, 0.25, 0.5), "data is 0 bytes but the key is for a 4-byte message"),
    ]
    for plaintext, key, message in cases:
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            sensitivity_probe(plaintext, key, "a", 1e-15)


def test_sensitivity_detects_parameter_nudges():
    plaintext = sample_text(1000, random.Random(9))
    key = KeyRecord(3.1, 2.2, 0.001, 0.999)
    assert sensitivity_probe(plaintext, key, "a", 1e-15) >= 0.9
    assert sensitivity_probe(plaintext, key, "b", 1e-15) >= 0.9


def _parameter_nudges(n):
    """Criterion c07a's probe at a message length of n bytes: its draws
    (random.Random(107), 20 keys per component, x0 = 1/n) and the fraction
    of bytes each 1e-15 nudge of a or b changes."""
    rng = random.Random(107)
    fractions = []
    for component in ("a", "b"):
        for _ in range(20):
            plaintext = rng.randbytes(n)
            key = KeyRecord(rng.uniform(1.0, 3.9), rng.uniform(0.1, 3.9), 1.0 / n, 1.0 - 1.0 / n)
            fractions.append(sensitivity_probe(plaintext, key, component, 1e-15))
    return fractions


def test_parameter_sensitivity_holds_at_128_bytes_but_not_at_16():
    # Both ends of README's table ("Known limitation"): a 1e-15 nudge takes
    # about 20 steps to grow to order 1, so a short message barely changes.
    assert sum(f == 0.0 for f in _parameter_nudges(16)) >= 30
    assert min(_parameter_nudges(128)) >= 0.9


def test_keyspace_matches_component_ranges():
    size = keyspace_size(
        [(1, 4, 1e-15), (0.1, 4, 1e-15), (0, 1, 1e-16), (0, 1, 1e-16)]
    )
    assert size == pytest.approx(1.17e63, rel=1e-10)
    assert size > 2.0**128


def test_keyspace_two_cells():
    assert keyspace_size([(0, 1, 0.5)]) == pytest.approx(2.0)


def test_keyspace_is_multiplicative_over_components():
    first = [(1.0, 4.0, 1e-15), (0.1, 4.0, 1e-15)]
    second = [(0.0, 1.0, 1e-16), (0.0, 1.0, 1e-16)]
    assert keyspace_size(first + second) == pytest.approx(
        keyspace_size(first) * keyspace_size(second), rel=1e-12
    )


def test_keyspace_rejects_bad_entries():
    with pytest.raises(InvalidInput):
        keyspace_size([(1.0, 1.0, 0.1)])
    with pytest.raises(InvalidInput):
        keyspace_size([(0.0, 1.0, 0.0)])
    with pytest.raises(InvalidInput, match="too wide"):
        keyspace_size([(0.0, math.inf, 1.0)])
    with pytest.raises(InvalidInput, match="too wide"):
        keyspace_size([(-1.7e308, 1.7e308, 1e-15)])
    with pytest.raises(InvalidInput, match="needs low < high"):
        keyspace_size([(math.nan, 1.0, 0.1)])
    for precision in (math.inf, math.nan, -1e-15):
        with pytest.raises(InvalidInput, match="precision"):
            keyspace_size([(0.0, 1.0, precision)])
    with pytest.raises(InvalidInput, match="key space size overflows"):
        keyspace_size([(0.0, 1.0, 1e-320), (0.0, 1.0, 1e-320)])
    with pytest.raises(InvalidInput, match="key space size overflows"):
        keyspace_size([(0.0, 1.0, 1e-200), (0.0, 1.0, 1e-200)])
    with pytest.raises(InvalidInput, match="key space size underflows to 0"):
        keyspace_size([(0.0, 1e-300, 1e300)])
    with pytest.raises(InvalidInput, match="key space size underflows to 0"):
        keyspace_size([(0.0, 1e-200, 1.0), (0.0, 1e-200, 1.0)])


def test_sample_text_rejects_no_length():
    with pytest.raises(InvalidInput, match="^length must be >= 1$"):
        sample_text(0, random.Random(10))


def test_sample_text_is_textlike():
    rng = random.Random(10)
    data = sample_text(500, rng)
    assert len(data) == 500
    assert all(97 <= c <= 122 or c == 32 for c in data)
    assert len(set(data)) <= 13
