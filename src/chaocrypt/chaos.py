"""Hybrid 2D chaotic map and plaintext-derived initialization.

The map couples a circle-map style angular update with the quadratic
coordinate of the Henon map, both driven by the same two coefficients:

    x' = (x + b + a*sin(2*pi*y)) mod 1
    y' = 1 - a*x^2 + y

Both components are computed from the incoming state (simultaneous update).
x always lands back in [0, 1); y is left unbounded.

All arithmetic is IEEE-754 binary64.  Key reproducibility across machines
additionally requires a correctly rounded libm sin; +, -, *, and mod are
correctly rounded everywhere.  The test suite pins reference orbits.

generate_sequence is the definition of an orbit.  `_orbits` steps many of
them at once with numpy in the same operation order for the analysis grids,
keeping only their x values, and is used only where numpy's sin returns
libm's bits on a fixed probe; `_ys_of` sums a lane's y values back from its
xs in the scalar loop's order.  The tests bind all three.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

from .errors import InvalidInput, NumericalError

TWO_PI = 2.0 * math.pi

# `_orbits` holds at most this many bytes of x values per block of lanes, and
# steps a block in numpy only if it holds at least ORBIT_MIN_LANES lanes:
# below that numpy's fixed cost per step outweighs the lanes it steps at once.
# Measured at n = 1,000-4,096 (Xeon, numpy 2.4): lane by lane takes 1.04-1.15x
# the CPU time of numpy at 32 lanes, 1.29-1.39x at 40 and 1.9-2.0x at 63.
ORBIT_BLOCK_BYTES = 2 << 20
ORBIT_MIN_LANES = 40

# Points per step of every chunked loop (the transient here; the tie check and
# the composition of two orders in cipher): temporaries CHUNK long, not n long.
CHUNK = 1 << 14

# Ranges that encryption keys are drawn from.  Analysis sweeps may step
# outside them (e.g. b down to 0); a cipher.KeyRecord may not.
A_MIN, A_MAX = 1.0, 4.0
B_MIN, B_MAX = 0.1, 4.0


@dataclass(frozen=True)
class MapParams:
    """Coefficients (a, b) of the map."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidInput("map parameters must be finite")


@dataclass(frozen=True)
class MapState:
    """One orbit point (x, y)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidInput("map state must be finite")


def derive_initial_state(plaintext: bytes | bytearray) -> MapState:
    """Initial orbit point from the plaintext byte values.

    x0 is the mean of the byte values divided by their sum (algebraically
    1/len(plaintext), so only the length reaches the orbit); y0 = 1 - x0.
    """
    if len(plaintext) == 0:
        raise InvalidInput("plaintext must be non-empty")
    total = sum(plaintext)
    if total == 0:
        raise InvalidInput("plaintext bytes sum to zero")
    x0 = (total / len(plaintext)) / total
    return MapState(x0, 1.0 - x0)


def generate_sequence(
    params: MapParams,
    initial: MapState,
    n: int,
    transient: int = 0,
) -> tuple[array, array]:
    """Iterate the map from `initial`, discard `transient` points, then
    collect the next n.  Returns the x and y sequences as two array("d") of
    length n: np.asarray reads them without a copy, and + concatenates them
    as it does lists.

    A non-finite state is absorbing (a NaN stays NaN; an infinite y makes
    the next sin raise), so one check of the final state catches any orbit
    that left the finite doubles, and raises NumericalError.
    """
    if n < 1:
        raise InvalidInput("sequence length must be >= 1")
    if transient < 0:
        raise InvalidInput("transient must be >= 0")
    a, b = params.a, params.b
    x, y = initial.x, initial.y
    for done in range(0, transient, CHUNK):
        # x and y share each chunk's scratch buffer: its points are never read.
        scratch = array("d", [0.0]) * min(CHUNK, transient - done)
        x, y = _fill(a, b, x, y, scratch, scratch)
        del scratch
    xs = array("d", [0.0]) * n
    ys = array("d", [0.0]) * n
    x, y = _fill(a, b, x, y, xs, ys)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NumericalError("orbit left the finite doubles")
    return xs, ys


def _fill(a, b, x, y, xs, ys):
    """Step the map len(xs) times from (x, y), storing the points in xs and
    ys, and return the last one.  This is the only loop that steps the map
    one orbit at a time."""
    sin, two_pi = math.sin, TWO_PI  # locals spare a global and an attribute lookup per step
    # Stores through a memoryview are cheaper than on the array itself, and
    # release() is cheaper than a with block at small n.  The caller may
    # resize the arrays only once the views are released.
    xv, yv = memoryview(xs), memoryview(ys)
    try:
        for i in range(len(xs)):
            x, y = (x + b + a * sin(two_pi * y)) % 1.0, 1.0 - a * x * x + y
            if x >= 1.0:  # float % 1.0 can round up to exactly 1.0 for tiny negatives
                x = 0.0
            xv[i] = x
            yv[i] = y
    except ValueError:  # sin of an infinite y
        raise NumericalError("orbit left the finite doubles") from None
    finally:
        xv.release()
        yv.release()
    return x, y


@functools.cache
def _numpy_sin_matches_libm() -> bool:
    """Whether np.sin gives math.sin's bits on a fixed probe: the sin
    arguments of a fixed orbit and +-10**k for k = -8..8 in 1/8 steps.
    Checked on first use by _orbits, the one numpy trig caller."""
    import numpy as np

    _, ys = generate_sequence(MapParams(3.7, 2.9), MapState(0.123, 0.456), 2048)
    scales = np.logspace(-8.0, 8.0, 129)
    probe = np.concatenate([TWO_PI * np.asarray(ys), scales, -scales])
    return np.sin(probe).tobytes() == np.array([math.sin(v) for v in probe.tolist()]).tobytes()


def _orbits(a, b, initial: MapState, n: int, transient: int = 0):
    """generate_sequence's xs for K lanes of parameters (a[k], b[k]), all
    from `initial`: yields one xs array per lane, in lane order.  Its
    callers, analysis.bifurcation_sweep and analysis.fitness_landscape,
    have checked what it is given: a and b are finite and broadcast to one
    1-D sequence of lanes, n >= 1 and transient >= 0.

    Lanes are stepped in blocks of at most ORBIT_BLOCK_BYTES of xs, all
    lanes of a block at once in generate_sequence's operation order, so each
    lane's xs, yielded as its own contiguous copy, equal its
    generate_sequence xs bit for bit where np.sin rounds as math.sin does.
    A block of fewer than ORBIT_MIN_LANES lanes, and every block where
    _numpy_sin_matches_libm's probe fails, is stepped one lane at a time,
    each lane yielding generate_sequence's own xs.  Raises NumericalError,
    as generate_sequence does, if any lane leaves the finite doubles.
    """
    import numpy as np

    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    lanes = a.size
    capacity = max(1, ORBIT_BLOCK_BYTES // (8 * n))
    blocks = -(-lanes // capacity)
    for i in range(blocks):
        lo, hi = i * lanes // blocks, (i + 1) * lanes // blocks
        if hi - lo >= ORBIT_MIN_LANES and _numpy_sin_matches_libm():
            xs = _step_lanes(a[lo:hi], b[lo:hi], initial, n, transient)
            for k in range(hi - lo):
                yield xs[:, k].copy()
            del xs  # before the next block is stepped
            continue
        for k in range(lo, hi):
            yield generate_sequence(MapParams(float(a[k]), float(b[k])), initial, n, transient)[0]


def _step_lanes(a, b, initial, n, transient):
    """generate_sequence's loop over the lanes of a and b at once.  Returns
    an (n, lanes) buffer of xs: row i is step i, column k lane k.  y is
    stepped but not stored."""
    import numpy as np

    xs = np.empty((n, a.size))
    x, y = np.full(a.size, initial.x), np.full(a.size, initial.y)
    # A lane that leaves the finite doubles turns NaN or infinite and stays
    # so (np.sin(inf) is NaN where math.sin raises); the final check finds it.
    with np.errstate(all="ignore"):
        for i in range(-transient, n):
            # v - floor(v) is the double that v % 1.0 gives, for every v: the
            # exact fraction for v >= 0, f + 1 rounded once below 0, and +0.0
            # for integers and -0.0; it skips the divmod that % pays for.
            v = x + b + a * np.sin(TWO_PI * y)
            x, y = v - np.floor(v), 1.0 - a * x * x + y
            x[x >= 1.0] = 0.0
            if i >= 0:
                xs[i] = x
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericalError("orbit left the finite doubles")
    return xs


def _ys_of(a, start: MapState, xs):
    """The ys of the orbit at parameter a whose points after `start` have x
    values xs: each step's 1 - a*x*x from the x before it, as
    generate_sequence computes it, summed from start.y in step order
    (np.add.accumulate adds one value at a time, unlike np.sum), so they
    equal generate_sequence's ys bit for bit."""
    import numpy as np

    d = np.empty(len(xs) + 1)
    d[0], d[1] = start.y, start.x
    d[2:] = xs[:-1]
    d[1:] = 1.0 - a * d[1:] * d[1:]
    return np.add.accumulate(d)[1:]
