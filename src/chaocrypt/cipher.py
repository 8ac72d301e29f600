"""Rank-permutation keystream and the XOR trapdoor.

The keystream construction: iterate the map once per plaintext byte, rank
both orbit sequences in descending order, and compose the two rank arrays
into the key array K[i] = S_y[S_x[i]].  K is a permutation of 0..n-1, so its
values exceed 255 for messages longer than 256 bytes; ciphertext bytes take
the low 8 bits of the XOR while the optimizer scores the full-width values
(see ga.fitness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chaos import (
    MapParams,
    MapState,
    derive_initial_state,
    generate_sequence,
    validate_key_params,
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
    """Complete decryption key: optimized (a, b) plus the initial point."""

    a: float
    b: float
    x0: float
    y0: float


def validate_key_record(key: KeyRecord) -> None:
    """Check a KeyRecord is usable for en/decryption.

    y0 is only required to be finite, not re-derived from x0: sensitivity
    experiments perturb each component independently.
    """
    validate_key_params(MapParams(key.a, key.b))
    if not math.isfinite(key.x0) or not (0.0 < key.x0 <= 1.0):
        raise InvalidInput(f"x0={key.x0!r} outside (0, 1]")
    if not math.isfinite(key.y0):
        raise InvalidInput("y0 must be finite")


def rank_descending(values) -> np.ndarray:
    """Position of each element in the descending sort of `values`.

    Ties break stably: among equal values the lower original index gets the
    lower rank.  The result is a permutation of 0..n-1.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInput("values must be a non-empty 1-D sequence")
    if not np.isfinite(arr).all():
        raise InvalidInput("values must be finite")
    order = np.argsort(-arr, kind="stable")
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


def build_keystream(params: MapParams, initial: MapState, n: int) -> RankKeystream:
    """Generate the orbit and assemble the rank keystream for n bytes."""
    xs, ys = generate_sequence(params, initial, n)
    s_x = rank_descending(xs)
    s_y = rank_descending(ys)
    # Ranks are permutations by construction; compose_key's checks are for
    # arrays from outside the package.
    return RankKeystream(s_x=s_x, s_y=s_y, key=s_y[s_x])


def encrypt(plaintext, params: MapParams) -> tuple[bytes, KeyRecord]:
    """Encrypt and return (ciphertext, key record needed to decrypt)."""
    validate_key_params(params)
    data = bytes(plaintext)
    initial = derive_initial_state(data)
    ks = build_keystream(params, initial, len(data))
    record = KeyRecord(a=params.a, b=params.b, x0=initial.x, y0=initial.y)
    return xor_apply(data, ks.key), record


def decrypt(ciphertext, key: KeyRecord) -> bytes:
    """Rebuild the keystream from the key record and undo the XOR."""
    data = bytes(ciphertext)
    if len(data) == 0:
        raise InvalidInput("ciphertext must be non-empty")
    validate_key_record(key)
    ks = build_keystream(MapParams(key.a, key.b), MapState(key.x0, key.y0), len(data))
    return xor_apply(data, ks.key)
