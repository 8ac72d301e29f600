"""Chaos diagnostics and desk-scale experiments.

Covers the bifurcation sweeps, the two-exponent Lyapunov spectrum via the
Benettin tangent-frame method, the (a, b) fitness landscape, the
plaintext-length experiment, key sensitivity probes, and key-space size
arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import chain

from . import chaos
from .chaos import A_MAX, A_MIN, B_MAX, B_MIN, TWO_PI, MapParams, MapState, generate_sequence
from .cipher import KEY_FIELDS, KeyRecord, decrypt, keystream_from_orbit
from .errors import InvalidInput, NumericalError
from .ga import FitnessEvaluator, GaConfig, evolve

# Default initial point for sweeps and exponent scans.  Nothing special about
# it beyond being in the basin; it is echoed into CSV headers so runs can be
# reproduced.
DEFAULT_SWEEP_STATE = MapState(0.1, 0.1)

# bin_coverage counts this many equal-width bins of [0, 1).
COVERAGE_BINS = 100

# (low, high, precision) per key component: a, b at 1e-15, x0, y0 at 1e-16.
DEFAULT_KEYSPACE_RANGES = (
    (A_MIN, A_MAX, 1e-15),
    (B_MIN, B_MAX, 1e-15),
    (0.0, 1.0, 1e-16),
    (0.0, 1.0, 1e-16),
)


def _check_range(low: float, high: float) -> None:
    """Reject a range unless low < high and high - low is a finite double."""
    if not (low < high):
        raise InvalidInput(f"range {low!r}:{high!r} needs low < high")
    if not math.isfinite(high - low):
        raise InvalidInput(f"range {low!r}:{high!r} is too wide: high - low overflows a double")


def _check_window(iterations: int, transient: int) -> None:
    """Reject a measurement window unless iterations > transient >= 0."""
    if transient < 0 or iterations <= transient:
        raise InvalidInput("need iterations > transient >= 0")


@dataclass(frozen=True)
class LyapunovResult:
    exponent_1: float  # per-step log divergence, natural log, sorted descending
    exponent_2: float


def bifurcation_sweep(
    swept_parameter: str,
    fixed_value: float,
    range_low: float,
    range_high: float,
    steps: int,
    iterations: int,
    transient: int,
    initial_state: MapState = DEFAULT_SWEEP_STATE,
):
    """Asymptotic x-values as swept_parameter ("a" or "b") steps from
    range_low to range_high and the other parameter holds fixed_value.

    Returns (values, xs): the `steps` swept parameter values, and xs of shape
    (steps, iterations - transient), row i the post-transient x-values at
    values[i].
    """
    import numpy as np

    if swept_parameter not in ("a", "b"):
        raise InvalidInput("swept_parameter must be 'a' or 'b'")
    if not math.isfinite(fixed_value):
        raise InvalidInput("fixed_value must be finite")
    _check_range(range_low, range_high)
    if steps < 2:
        raise InvalidInput("steps must be >= 2")
    _check_window(iterations, transient)
    values = np.linspace(range_low, range_high, steps)
    m = iterations - transient
    if swept_parameter == "a":
        a, b = values, fixed_value
    else:
        a, b = fixed_value, values
    orbits = chaos._orbits(a, b, initial_state, m, transient)
    xs = np.fromiter(orbits, np.dtype((np.float64, (m,))), steps)
    return values, xs


def bin_coverage(xs):
    """Fraction of the COVERAGE_BINS equal-width bins of [0, 1) hit by each
    row of the 2-D xs (a bifurcation sweep's rows)."""
    import numpy as np

    arr = np.asarray(xs, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise InvalidInput("values must be a non-empty 2-D array: one row per swept value")
    if not (0.0 <= arr.min() and arr.max() < 1.0):  # a NaN fails both
        raise InvalidInput("values must lie in [0, 1)")
    # A row's distinct bins: its sorted bin indices, counted where they change.
    idx = np.sort((arr * COVERAGE_BINS).astype(np.int64))  # x < 1 gives a bin < COVERAGE_BINS
    return (1 + np.count_nonzero(idx[:, 1:] != idx[:, :-1], axis=1)) / COVERAGE_BINS


def lyapunov_spectrum(
    params: MapParams,
    initial: MapState,
    iterations: int = 2500,
    transient: int = 500,
) -> LyapunovResult:
    """Both Lyapunov exponents by the tangent-frame (Benettin) method.

    An orthonormal frame rides the orbit under the per-step Jacobian

        J(x, y) = [[1, 2*pi*a*cos(2*pi*y)],
                   [-2*a*x, 1]]

    with Gram-Schmidt re-orthonormalization every step; the exponents are the
    per-step averages of log stretch factors over the post-transient window.
    The frame is carried through the transient too, so it is already aligned
    when measurement starts.  Each step's Jacobian is read from the orbit
    generate_sequence stores (cos(2*pi*y) from libm), and nothing else
    n-long is made.  Raises NumericalError if the orbit leaves the finite
    doubles, or if a stretch factor is 0, +inf or NaN at any step.
    """
    _check_window(iterations, transient)
    xs, ys = generate_sequence(params, initial, iterations)
    j12_scale, j21_scale = TWO_PI * params.a, -2.0 * params.a
    hypot, log, cos = math.hypot, math.log, math.cos
    v1x, v1y = 1.0, 0.0
    v2x, v2y = 0.0, 1.0
    s1 = s2 = 0.0
    try:
        # Step i's Jacobian is taken at the point it starts from: the
        # initial point, then the orbit.
        for i, x, y in zip(range(iterations), chain((initial.x,), xs), chain((initial.y,), ys)):
            j12 = j12_scale * cos(TWO_PI * y)
            j21 = j21_scale * x
            u1x = v1x + j12 * v1y
            u1y = j21 * v1x + v1y
            u2x = v2x + j12 * v2y
            u2y = j21 * v2x + v2y
            r1 = hypot(u1x, u1y)
            v1x, v1y = u1x / r1, u1y / r1
            d = u2x * v1x + u2y * v1y
            w2x, w2y = u2x - d * v1x, u2y - d * v1y
            r2 = hypot(w2x, w2y)
            v2x, v2y = w2x / r2, w2y / r2
            if i >= transient:
                s1 += log(r1)
                s2 += log(r2)
    except ZeroDivisionError:  # a stretch of 0
        raise NumericalError("tangent frame degenerated") from None
    # A stretch of +inf or NaN leaves a frame vector zero or NaN: every later
    # step divides by 0 or stretches by NaN, up to the window's last step.
    if not (math.isfinite(s1) and math.isfinite(s2)):
        raise NumericalError("tangent frame degenerated")
    measured = iterations - transient
    l1, l2 = s1 / measured, s2 / measured
    if l2 > l1:
        l1, l2 = l2, l1
    return LyapunovResult(l1, l2)


def fitness_landscape(plaintext, a_range, b_range, grid_a: int, grid_b: int):
    """Fitness of encrypting `plaintext` at every point of an (a, b) grid.

    Returns grid_a * grid_b rows of (a, b, fitness), a-major order.  Each
    cell's xs come from chaos._orbits and its ys from chaos._ys_of, and the
    orbit is ranked and scored exactly as FitnessEvaluator.score would.
    """
    import numpy as np

    a_low, a_high = a_range
    b_low, b_high = b_range
    _check_range(a_low, a_high)
    _check_range(b_low, b_high)
    if grid_a < 1 or grid_b < 1:
        raise InvalidInput("grid sizes must be >= 1")
    evaluator = FitnessEvaluator(plaintext)
    a = np.repeat(np.linspace(a_low, a_high, grid_a), grid_b)
    b = np.tile(np.linspace(b_low, b_high, grid_b), grid_a)
    start = evaluator.initial
    orbits = zip(a, chaos._orbits(a, b, start, evaluator.n))
    scores = [evaluator.score_key(keystream_from_orbit(x, chaos._ys_of(ak, start, x))) for ak, x in orbits]
    return np.column_stack((a, b, scores))


# English letter frequencies, most common twelve letters only.  Sample texts
# keep a natural-text-sized alphabet even at a few thousand bytes, which is
# what makes the length-versus-fitness trend observable: the score compares
# value alphabets, and a plaintext alphabet near 100 symbols leaves no room
# above it.
_TEXT_LETTERS = "etaoinshrdlu"
_TEXT_WEIGHTS = (12.7, 9.1, 8.2, 7.5, 7.0, 6.7, 6.3, 6.1, 6.0, 4.3, 4.0, 2.8)


def sample_text(length: int, rng: random.Random) -> bytes:
    """Random words over common English letters, single-space separated."""
    if length < 1:
        raise InvalidInput("length must be >= 1")
    chars: list[str] = []
    while len(chars) < length:
        word = rng.choices(_TEXT_LETTERS, weights=_TEXT_WEIGHTS, k=rng.randint(2, 9))
        chars.extend(word[: length - len(chars)])
        if len(chars) < length:
            chars.append(" ")
    return "".join(chars).encode("ascii")


def _derive_seed(base: int, length: int, trial: int, salt: int) -> int:
    return (base * 1_000_003 + length * 7_919 + trial * 104_729 + salt) & 0x7FFFFFFF


def length_experiment(lengths, config: GaConfig, trials: int = 1) -> list[tuple[int, int, int, float]]:
    """Evolve a key for a fresh random text at each length, `trials` times.

    Returns one (length, trial, generations, max_fitness) row per run, in
    the order `lengths` gives and trial-minor.  Per-run seeds derive from
    config.rng_seed, the length, and the trial index, so the whole
    experiment is reproducible from one seed.
    """
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    lengths = list(lengths)
    if any(n < 1 for n in lengths):
        raise InvalidInput("every length must be >= 1")
    if len(set(lengths)) != len(lengths):
        raise InvalidInput("each length may be given only once")
    rows = []
    for length in lengths:
        for trial in range(trials):
            text_rng = random.Random(_derive_seed(config.rng_seed, length, trial, 0))
            plaintext = sample_text(length, text_rng)
            run_config = replace(config, rng_seed=_derive_seed(config.rng_seed, length, trial, 1))
            report = evolve(plaintext, run_config)
            rows.append((length, trial, report.generations_run, report.best[2]))
    return rows


def summarize_lengths(rows) -> list[tuple[int, float, float, float]]:
    """Per-length (length, max fitness, mean fitness, mean generations) of
    length_experiment's rows, by increasing length."""
    by_length: dict[int, list[tuple[int, float]]] = {}
    for length, _, generations, max_fitness in rows:
        by_length.setdefault(length, []).append((generations, max_fitness))
    out = []
    for length in sorted(by_length):
        generations, fitnesses = zip(*by_length[length])
        n = len(fitnesses)
        out.append((length, max(fitnesses), sum(fitnesses) / n, sum(generations) / n))
    return out


def sensitivity_probe(plaintext, key: KeyRecord, component: str, epsilon: float) -> float:
    """Fraction of bytes that fail to decrypt after nudging one key component.

    Encrypts with `key` as-is, adds epsilon to the chosen component, decrypts
    with the perturbed key, and compares against the original plaintext.
    """
    import numpy as np

    if component not in KEY_FIELDS:
        raise InvalidInput(f"component must be one of {KEY_FIELDS}")
    if not (epsilon >= 0.0):
        raise InvalidInput("epsilon must be >= 0")
    data = bytes(plaintext)
    ciphertext = decrypt(data, key)  # the XOR keystream is its own inverse
    perturbed = replace(key, **{component: getattr(key, component) + epsilon})
    recovered = decrypt(ciphertext, perturbed)
    original = np.frombuffer(data, dtype=np.uint8)
    return float(np.mean(np.frombuffer(recovered, dtype=np.uint8) != original))


def keyspace_size(ranges) -> float:
    """Product of (high - low) / precision over all key components."""
    total = 1.0
    for low, high, precision in ranges:
        _check_range(low, high)
        if not (0.0 < precision < math.inf):
            raise InvalidInput("each precision must be finite and > 0")
        total *= (high - low) / precision
    if total == 0.0:
        raise InvalidInput("key space size underflows to 0")
    if not math.isfinite(total):
        raise InvalidInput("key space size overflows a double")
    return total
