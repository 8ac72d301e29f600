"""Rank-permutation keystream and the XOR trapdoor.

The keystream construction: iterate the map once per plaintext byte, rank
both orbit sequences in descending order, and compose the two rank arrays
into the key array K[i] = S_y[S_x[i]].  K is a permutation of 0..n-1, so its
values exceed 255 for messages longer than 256 bytes; ciphertext bytes take
the low 8 bits of the XOR while the optimizer scores the full-width values
(see ga.fitness).

Ranks tie-break by index and do not depend on the numpy build, although the
fast path uses numpy's unstable sort (see rank_descending).

KeyRecord, the secret key (a, b, x0, y0), checks its fields when it is
constructed, so encrypt, decrypt and write_key_file never check it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import (
    A_MAX,
    A_MIN,
    B_MAX,
    B_MIN,
    MapParams,
    MapState,
    derive_initial_state,
    generate_sequence,
)
from .errors import InvalidInput


@dataclass(frozen=True)
class RankKeystream:
    """Rank arrays of the two orbit sequences and their composition."""

    s_x: np.ndarray
    s_y: np.ndarray
    key: np.ndarray


@dataclass(frozen=True)
class KeyRecord:
    """Complete decryption key: optimized (a, b) plus the initial point.

    y0 is only required to be finite, not re-derived from x0: sensitivity
    experiments perturb each component independently.
    """

    a: float
    b: float
    x0: float
    y0: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidInput("map parameters must be finite")
        if not (A_MIN <= self.a <= A_MAX):
            raise InvalidInput(f"parameter a={self.a!r} outside [{A_MIN}, {A_MAX}]")
        if not (B_MIN <= self.b <= B_MAX):
            raise InvalidInput(f"parameter b={self.b!r} outside [{B_MIN}, {B_MAX}]")
        if not math.isfinite(self.x0) or not (0.0 < self.x0 <= 1.0):
            raise InvalidInput(f"x0={self.x0!r} outside (0, 1]")
        if not math.isfinite(self.y0):
            raise InvalidInput("y0 must be finite")


def rank_descending(values) -> np.ndarray:
    """Position of each element in the descending sort of `values`.

    Ties break stably: among equal values the lower original index gets the
    lower rank.  The result is a permutation of 0..n-1.

    A tie-free array has exactly one descending order, so it is sorted with
    numpy's fastest (unstable) argsort; only an array with an equal adjacent
    pair after sorting (-0.0 == 0.0 counts) is sorted again stably.  Either
    way the ranks are the same on every numpy build.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInput("values must be a non-empty 1-D sequence")
    neg = -arr
    order = np.argsort(neg)
    ordered = neg[order]
    # NaNs sort last and infinities to the ends, so the ends show any of them.
    if not (math.isfinite(ordered[0]) and math.isfinite(ordered[-1])):
        raise InvalidInput("values must be finite")
    if np.count_nonzero(ordered[1:] == ordered[:-1]):  # cheaper than .any() at small n
        order = np.argsort(neg, kind="stable")
    ranks = np.empty(arr.size, dtype=np.int64)
    ranks[order] = np.arange(arr.size, dtype=np.int64)
    return ranks


def _check_permutation(arr: np.ndarray, name: str) -> None:
    n = arr.size
    if n == 0:
        raise InvalidInput(f"{name} must be non-empty")
    if arr.min() < 0 or arr.max() >= n or np.bincount(arr, minlength=n).max() != 1:
        raise InvalidInput(f"{name} is not a permutation of 0..{n - 1}")


def compose_key(s_x, s_y) -> np.ndarray:
    """Key array K[i] = s_y[s_x[i]]; both inputs must be permutations."""
    sx = np.asarray(s_x, dtype=np.int64)
    sy = np.asarray(s_y, dtype=np.int64)
    if sx.ndim != 1 or sy.ndim != 1 or sx.size != sy.size:
        raise InvalidInput("s_x and s_y must be 1-D and of equal length")
    _check_permutation(sx, "s_x")
    _check_permutation(sy, "s_y")
    return sy[sx]


def xor_apply(data, key) -> bytes:
    """XOR each byte with the low 8 bits of the matching key value."""
    buf = bytes(data)
    k = np.asarray(key, dtype=np.int64)
    if k.ndim != 1 or k.size != len(buf):
        raise InvalidInput("data and key lengths differ")
    d = np.frombuffer(buf, dtype=np.uint8)
    return (d ^ (k & 0xFF).astype(np.uint8)).tobytes()


def keystream_from_orbit(xs, ys) -> RankKeystream:
    """The rank keystream of one orbit's x and y sequences."""
    s_x = rank_descending(xs)
    s_y = rank_descending(ys)
    # Ranks are permutations by construction; compose_key's checks are for
    # arrays from outside the package.
    return RankKeystream(s_x=s_x, s_y=s_y, key=s_y[s_x])


def build_keystream(params: MapParams, initial: MapState, n: int) -> RankKeystream:
    """Generate the orbit and assemble the rank keystream for n bytes."""
    return keystream_from_orbit(*generate_sequence(params, initial, n))


def encrypt(plaintext, params: MapParams) -> tuple[bytes, KeyRecord]:
    """Encrypt and return (ciphertext, key record needed to decrypt)."""
    data = bytes(plaintext)
    initial = derive_initial_state(data)
    # Built before the keystream, so (a, b) outside the key ranges fails
    # before any orbit work.
    record = KeyRecord(a=params.a, b=params.b, x0=initial.x, y0=initial.y)
    ks = build_keystream(params, initial, len(data))
    return xor_apply(data, ks.key), record


def decrypt(ciphertext, key: KeyRecord) -> bytes:
    """Rebuild the keystream from the key record and undo the XOR."""
    data = bytes(ciphertext)
    if len(data) == 0:
        raise InvalidInput("ciphertext must be non-empty")
    ks = build_keystream(MapParams(key.a, key.b), MapState(key.x0, key.y0), len(data))
    return xor_apply(data, ks.key)
