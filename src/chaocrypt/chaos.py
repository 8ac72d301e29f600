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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInput, NumericalError

TWO_PI = 2.0 * math.pi

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
) -> tuple[list[float], list[float]]:
    """Iterate the map from `initial`, discard `transient` points, then
    collect the next n.  Returns the x and y sequences, each of length n.

    This is the only loop that steps the map.  A non-finite state is
    absorbing (a NaN stays NaN; an infinite y makes the next sin raise), so
    one check of the final state catches any orbit that left the finite
    doubles, and raises NumericalError.
    """
    if n < 1:
        raise InvalidInput("sequence length must be >= 1")
    if transient < 0:
        raise InvalidInput("transient must be >= 0")
    a, b = params.a, params.b
    x, y = initial.x, initial.y
    sin, two_pi = math.sin, TWO_PI  # locals spare a global and an attribute lookup per step
    xs = [0.0] * n
    ys = [0.0] * n
    try:
        for i in range(-transient, n):
            x, y = (x + b + a * sin(two_pi * y)) % 1.0, 1.0 - a * x * x + y
            if x >= 1.0:  # float % 1.0 can round up to exactly 1.0 for tiny negatives
                x = 0.0
            if i >= 0:
                xs[i] = x
                ys[i] = y
    except ValueError:  # sin of an infinite y
        raise NumericalError("orbit left the finite doubles") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise NumericalError("orbit left the finite doubles")
    return xs, ys
