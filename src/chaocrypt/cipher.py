"""Rank-permutation keystream and the XOR trapdoor.

The keystream construction: iterate the map once per plaintext byte, rank
both orbit sequences in descending order, and compose the two rank arrays
into the key array K[i] = S_y[S_x[i]].  K is a permutation of 0..n-1, so its
values exceed 255 for messages longer than 256 bytes; ciphertext bytes take
the low 8 bits of the XOR while the optimizer scores the full-width values
(see ga.fitness).

Ranks tie-break by index and do not depend on the numpy build: arrays of up
to STABLE_SORT_MAX values are sorted stably, and a longer one goes through
numpy's unstable sort only when it has no ties (see _descending_order).
A message of at most PURE_PYTHON_MAX bytes is keyed, XORed and scored (see
ga.FitnessEvaluator) in pure Python, to the same values, and numpy is
imported only by the functions that use it: a CLI run on a short message
never loads it.

KeyRecord, the secret key (a, b, x0, y0), checks its fields when it is
constructed; decrypt checks only that the key fits the data's length.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, fields

from .chaos import (
    A_MAX,
    A_MIN,
    B_MAX,
    B_MIN,
    CHUNK,
    MapParams,
    MapState,
    derive_initial_state,
    generate_sequence,
)
from .errors import InvalidInput


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
        if not (A_MIN <= self.a <= A_MAX):
            raise InvalidInput(f"parameter a={self.a!r} outside [{A_MIN}, {A_MAX}]")
        if not (B_MIN <= self.b <= B_MAX):
            raise InvalidInput(f"parameter b={self.b!r} outside [{B_MIN}, {B_MAX}]")
        if not (0.0 < self.x0 <= 1.0):
            raise InvalidInput(f"x0={self.x0!r} outside (0, 1]")
        if not math.isfinite(self.y0):
            raise InvalidInput("y0 must be finite")


# KeyRecord's field names in declaration order: the key file's field order.
KEY_FIELDS = tuple(f.name for f in fields(KeyRecord))

# The longest array _descending_order sorts with one stable argsort.  On orbit
# axes a stable argsort costs 0.35-0.7 of the unstable sort and the CHUNK-wise
# tie check together at 16-130 values, 0.6-1.04 at 160 and 0.9-1.9 at 256
# (numpy 2.4, 2-vCPU x86-64 Xeon, over repeated runs): they cross in 160-256.
STABLE_SORT_MAX = 160

# The longest message build_keystream, xor_apply and ga.FitnessEvaluator
# handle in pure Python.  Per in-process score, pure Python takes 0.8 of
# numpy's CPU time at 16 B, 0.96 at 24, 1.0 at 29, 1.06 at 32, 1.14 at 40 and
# 1.27 at 64 (numpy 2.4, Python 3.11, 2-vCPU x86-64 Xeon): this is the
# largest power of two within about 10 % of numpy.  A process that stays at
# or below it never imports numpy, about 0.13 s of CPU: thousands of scores.
PURE_PYTHON_MAX = 32


def _descending_order(values):
    """Indices that sort `values` in descending order, equal values in index
    order; raises InvalidInput unless `values` is a non-empty 1-D sequence of
    finite floats.

    Up to STABLE_SORT_MAX values are sorted with one stable argsort.  A
    longer array is sorted with numpy's fastest (unstable) argsort, reversed,
    and again stably only if the sorted values hold an equal adjacent pair
    (-0.0 == 0.0 counts): a tie-free array has exactly one descending order.
    Either way the order is the same on every numpy build.  The pairs are
    checked CHUNK at a time, each chunk overlapping the next by one value so
    that a tie across a chunk edge is seen, and no sorted copy is made.
    """
    import numpy as np

    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInput("values must be a non-empty 1-D sequence")
    if arr.size <= STABLE_SORT_MAX:
        order = (-arr).argsort(kind="stable")
    else:
        order = arr.argsort()[::-1]
        for lo in range(0, arr.size - 1, CHUNK):
            ordered = arr[order[lo : lo + CHUNK + 1]]
            if np.count_nonzero(ordered[1:] == ordered[:-1]):  # cheaper than .any() at these n
                del order, ordered  # freed first, so a tied axis peaks no higher than a tie-free one
                order = (-arr).argsort(kind="stable")
                break
    # NaNs and infinities sort to the ends, so the ends show any of them.
    if not (math.isfinite(arr[order[0]]) and math.isfinite(arr[order[-1]])):
        raise InvalidInput("values must be finite")
    return order


def _compose_orders(order_x, order_y):
    """The key array K = S_y[S_x] of the ranks whose descending orders these
    are, made without either rank array.

    S_y[order_y[r]] = r and K[order_x[j]] = S_y[j], so K[order_x[order_y[r]]]
    = r: each chunk of ranks r is scattered through the two orders.
    """
    import numpy as np

    key = np.empty(order_x.size, dtype=np.int64)
    for lo in range(0, key.size, CHUNK):
        at = order_x[order_y[lo : lo + CHUNK]]
        key[at] = np.arange(lo, lo + at.size, dtype=np.int64)
    return key


def rank_descending(values):
    """Position of each element in the descending sort of `values`.

    Ties break stably: among equal values the lower original index gets the
    lower rank.  The result is an int64 array, a permutation of 0..n-1.
    """
    import numpy as np

    order = _descending_order(values)
    ranks = np.empty(order.size, dtype=np.int64)
    ranks[order] = np.arange(order.size, dtype=np.int64)
    return ranks


def _check_permutation(arr, name: str) -> None:
    import numpy as np

    n = arr.size
    if n == 0:
        raise InvalidInput(f"{name} must be non-empty")
    if arr.min() < 0 or arr.max() >= n or np.bincount(arr, minlength=n).max() != 1:
        raise InvalidInput(f"{name} is not a permutation of 0..{n - 1}")


def compose_key(s_x, s_y):
    """Key array K[i] = s_y[s_x[i]], int64; both inputs must be permutations."""
    import numpy as np

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
    small = len(buf) <= PURE_PYTHON_MAX
    if not small:
        import numpy as np

        key = np.asarray(key, dtype=np.int64)
    if getattr(key, "ndim", 1) != 1 or len(key) != len(buf):
        raise InvalidInput("data and key lengths differ")
    if small:
        return bytes([b ^ (k & 0xFF) for b, k in zip(buf, key)])
    d = np.frombuffer(buf, dtype=np.uint8)
    return (d ^ key.astype(np.uint8)).tobytes()  # the cast keeps the low 8 bits


def keystream_from_orbit(xs, ys):
    """The int64 key array K = S_y[S_x] of one orbit's x and y sequences."""
    import numpy as np

    order_y = _descending_order(ys)
    x = np.asarray(xs, dtype=np.float64)
    if x.shape != order_y.shape:
        raise InvalidInput("xs and ys must be 1-D and of equal length")
    return _compose_orders(_descending_order(x), order_y)


def build_keystream(params: MapParams, initial: MapState, n: int):
    """Generate the orbit and return its n-value key array K: an array("q")
    up to PURE_PYTHON_MAX values, else an int64 ndarray, with equal values.

    The short path ranks each axis with a reverse sorted(), which keeps
    equal values (-0.0 == 0.0 counts) in index order as the stable argsort
    of _descending_order does, and scatters K[order_x[order_y[r]]] = r as
    _compose_orders does.
    """
    xs, ys = generate_sequence(params, initial, n)
    if n <= PURE_PYTHON_MAX:
        xs, ys = xs.tolist(), ys.tolist()  # a list read makes no new float, an array read does
        order_x = sorted(range(n), key=xs.__getitem__, reverse=True)
        order_y = sorted(range(n), key=ys.__getitem__, reverse=True)
        key = array("q", bytes(8 * n))
        for r, j in enumerate(order_y):
            key[order_x[j]] = r
        return key
    # Each axis is freed once it is sorted, and K is allocated after both
    # sorts, so a build holds at most three n-long arrays of 8 B per value.
    order_y = _descending_order(ys)
    del ys
    order_x = _descending_order(xs)
    del xs
    return _compose_orders(order_x, order_y)


def encrypt(plaintext, params: MapParams) -> tuple[bytes, KeyRecord]:
    """Encrypt and return (ciphertext, key record needed to decrypt)."""
    data = bytes(plaintext)
    initial = derive_initial_state(data)
    # Built before the keystream, so (a, b) outside the key ranges fails
    # before any orbit work.
    record = KeyRecord(a=params.a, b=params.b, x0=initial.x, y0=initial.y)
    return xor_apply(data, build_keystream(params, initial, len(data))), record


def decrypt(ciphertext, key: KeyRecord) -> bytes:
    """Rebuild the keystream from the key record and undo the XOR.

    x0 is 1/len(plaintext) to within an ulp, so the key names its message's
    length and data of any other length is refused; x0 <= 1 keeps it >= 1.
    An x0 so small that 1/x0 passes sys.maxsize names no length at all.
    """
    data = bytes(ciphertext)
    n = 1.0 / key.x0
    if not n <= sys.maxsize:  # also true for an infinite n
        raise InvalidInput(f"the key's x0={key.x0!r} names no possible message length")
    length = round(n)
    if len(data) != length:
        unit = "byte" if len(data) == 1 else "bytes"
        raise InvalidInput(f"data is {len(data)} {unit} but the key is for a {length}-byte message")
    return xor_apply(data, build_keystream(MapParams(key.a, key.b), MapState(key.x0, key.y0), len(data)))
