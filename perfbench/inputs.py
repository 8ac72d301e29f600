"""Seeded input generation for the benchmark workloads.

Inputs are made here, not with the package's own helpers, so that a change
to the program cannot change what the benchmark feeds it.  Every function is
a pure function of its arguments: the same seed gives the same bytes.
"""

from __future__ import annotations

import random

# Common English words over 17 letters: joined by single spaces they give
# natural-looking text with an 18-symbol alphabet.  The alphabet size decides
# how hard the GA finds a short message.  With this one about a sixth of the
# 16 B-4 KB short messages, those below about 130 bytes, run to the
# 500-generation cap, so the p90 latency falls inside that group rather than
# on its edge; texts above a few hundred bytes stop at generation 1.
WORDS = tuple(
    """
    the and to in is it that he was on are as at his had not or one all she
    there their an so out no into other than then these said her has its
    those three tree state told under end lend hold hand land round sound
    ground around north south dinner thin hint idea ideas area nation salt
    seal heat heart listen shine note dot art ear ran sun tan tin iron unit
    union road rain real read rest sea tail trail train stone store shore
    short hunt rule tune turn return earth dear near hear hard stand usual
    little still tall halt hidden dress does done inside outside instead
    solution station relation tradition hotel radio total letter hello old
    hunter thread threat united nurse rider saint island sand tide ride
    shade trade sheet street rose nose noise horse house hole hill lion
    come came much man men more most time some such main city center common
    class music
    """.split()
)

SHORT_MIN_BYTES = 16
SHORT_MAX_BYTES = 4096
# Short-message log-lengths follow a golden-ratio (Weyl) sequence from a
# seeded start: any run of consecutive messages covers 16 B to 4 KB almost
# evenly, so latency percentiles move little from seed to seed.
_GOLDEN_STEP = (5**0.5 - 1) / 2


def text(n: int, rng: random.Random) -> bytes:
    """n bytes of space-separated words."""
    parts: list[str] = []
    size = 0
    while size < n:
        word = rng.choice(WORDS)
        parts.append(word)
        size += len(word) + 1
    return " ".join(parts)[:n].encode("ascii")


def _rng(seed: int, *labels) -> random.Random:
    # String seeds are hashed with SHA-512, so this is stable across runs
    # and Python builds, unlike hash().
    return random.Random(":".join(str(x) for x in (seed, *labels)))


def bulk_text(seed: int, n: int) -> bytes:
    return text(n, _rng(seed, "bulk"))


def ga_seed(seed: int, *labels) -> int:
    return _rng(seed, "ga", *labels).randrange(2**31)


def short_message(seed: int, index: int) -> tuple[bytes, int]:
    """Message `index` of the short-message stream and its GA seed.

    Lengths are log-uniform over [SHORT_MIN_BYTES, SHORT_MAX_BYTES].
    """
    u = (_rng(seed, "short-start").random() + index * _GOLDEN_STEP) % 1.0
    n = int(SHORT_MIN_BYTES * (SHORT_MAX_BYTES / SHORT_MIN_BYTES) ** u)
    rng = _rng(seed, "short", index)
    return text(n, rng), rng.randrange(2**31)


def landscape_text(seed: int, n: int = 1000) -> bytes:
    return text(n, _rng(seed, "landscape"))


def bifurcation_fixed(seed: int) -> tuple[float, float]:
    """Fixed b for the a-sweep and fixed a for the b-sweep."""
    rng = _rng(seed, "bifurcation")
    return round(rng.uniform(0.5, 3.5), 6), round(rng.uniform(1.5, 3.5), 6)
