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
    SweepSpec,
    bifurcation_sweep,
    chaos,
    fitness_landscape,
    keyspace_size,
    length_experiment,
    lyapunov_spectrum,
    sample_text,
    sensitivity_probe,
    summarize_lengths,
)
from chaocrypt.analysis import COVERAGE_BINS, bin_coverage
from chaocrypt.chaos import ORBIT_MIN_LANES


def test_bifurcation_row_count():
    spec = SweepSpec("a", 2.0, 1.0, 4.0, steps=100, iterations=600, transient=500)
    values, xs = bifurcation_sweep(spec)
    assert values.shape == (100,) and xs.shape == (100, 100)
    assert np.all(xs >= 0.0) and np.all(xs < 1.0)


def test_bifurcation_sweep_over_a_is_dense():
    spec = SweepSpec("a", 2.0, 1.0, 4.0, steps=100, iterations=1500, transient=500)
    _, xs = bifurcation_sweep(spec)
    assert np.all(bin_coverage(xs) >= 0.95)


def test_bifurcation_sweep_over_b_is_dense():
    # Note: the coverage claim holds on sampled grids, not pointwise; there
    # is a narrow periodic window at exactly (a=2, b=2.5) that 100-point
    # grids over (0, 4) straddle.
    spec = SweepSpec("b", 2.0, 0.0, 4.0, steps=100, iterations=1500, transient=500)
    _, xs = bifurcation_sweep(spec)
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


@pytest.mark.parametrize("xs", [[], np.empty((0, 4)), np.empty((3, 0)), [0.5, 0.25], np.zeros((2, 2, 2))])
def test_bin_coverage_rejects_no_values_and_other_than_rows(xs):
    with pytest.raises(InvalidInput):
        bin_coverage(xs)


def test_bifurcation_rejects_bad_specs():
    with pytest.raises(InvalidInput):
        bifurcation_sweep(SweepSpec("c", 2.0, 1.0, 4.0, 10, 100, 0))
    with pytest.raises(InvalidInput):
        bifurcation_sweep(SweepSpec("a", 2.0, 4.0, 1.0, 10, 100, 0))
    with pytest.raises(InvalidInput):
        bifurcation_sweep(SweepSpec("a", 2.0, 1.0, 4.0, 1, 100, 0))
    with pytest.raises(InvalidInput):
        bifurcation_sweep(SweepSpec("a", 2.0, 1.0, 4.0, 10, 100, 100))


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
        SweepSpec(**{**good, **fields})
    assert str(exc.value) == message


class _GridOrbitsReached(Exception):
    pass


def _unreachable_grid_orbits(*args, **kwargs):
    raise _GridOrbitsReached


_SWEEP = dict(swept_parameter="b", fixed_value=2.0, range_low=0.0, range_high=4.0,
              steps=4, iterations=100, transient=10)
_LANDSCAPE = dict(plaintext=b"grid", a_range=(1.0, 4.0), b_range=(0.1, 4.0), grid_a=3, grid_b=3)
_GRID_CALLS = {
    "sweep": lambda **fields: bifurcation_sweep(SweepSpec(**{**_SWEEP, **fields})),
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


@pytest.mark.parametrize("numpy_trig_matches", [True, False])
def test_lyapunov_cells_are_pinned_with_and_without_numpy_cos(monkeypatch, numpy_trig_matches):
    if not numpy_trig_matches:  # the fallback where numpy's cos is not libm's

        def no_cos(*args):
            raise AssertionError("np.cos called after the probe failed")

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


def test_trig_probe_fails_when_numpy_cos_differs_from_libm(monkeypatch):
    real_cos = np.cos

    def cos_one_ulp_off(values):
        out = real_cos(values)
        out[0] = np.nextafter(out[0], np.inf)
        return out

    chaos._numpy_sin_matches_libm.cache_clear()
    try:
        monkeypatch.setattr(np, "cos", cos_one_ulp_off)
        assert chaos._numpy_sin_matches_libm() is False
    finally:
        monkeypatch.undo()
        chaos._numpy_sin_matches_libm.cache_clear()


def test_lyapunov_rejects_orbit_leaving_the_finite_doubles():
    with pytest.raises(NumericalError):
        lyapunov_spectrum(MapParams(1.0, 1.0), MapState(0.1, 1e308), 50, 10)


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


def test_length_one_fitness_is_all_or_nothing():
    config = GaConfig(rng_seed=6, max_generations=2)
    rows = length_experiment([1], config, trials=3)
    for r in rows:
        assert r.max_fitness in (0.0, 100.0)


def test_sensitivity_zero_epsilon_changes_nothing():
    plaintext = sample_text(256, random.Random(7))
    key = KeyRecord(2.5, 1.5, 1.0 / 256, 1.0 - 1.0 / 256)
    assert sensitivity_probe(plaintext, key, "a", 0.0) == 0.0


def test_sensitivity_rejects_out_of_range_perturbation():
    plaintext = sample_text(64, random.Random(8))
    key = KeyRecord(4.0, 1.5, 1.0 / 64, 1.0 - 1.0 / 64)
    with pytest.raises(InvalidInput):
        sensitivity_probe(plaintext, key, "a", 0.5)  # a leaves [1, 4]


def test_sensitivity_detects_parameter_nudges():
    plaintext = sample_text(1000, random.Random(9))
    key = KeyRecord(3.1, 2.2, 0.001, 0.999)
    assert sensitivity_probe(plaintext, key, "a", 1e-15) >= 0.9
    assert sensitivity_probe(plaintext, key, "b", 1e-15) >= 0.9


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


def test_sample_text_is_textlike():
    rng = random.Random(10)
    data = sample_text(500, rng)
    assert len(data) == 500
    assert all(97 <= c <= 122 or c == 32 for c in data)
    assert len(set(data)) <= 13
