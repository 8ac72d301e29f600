"""Helpers that more than one test module uses, imported by name
(`from conftest import traced`)."""

import tracemalloc


def traced(fn, *args):
    """fn(*args) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def descending_ranks(values):
    """The rank of each value in descending order, equal values by index:
    the sorted-list oracle for `rank_descending`."""
    ranks = [0] * len(values)
    for r, i in enumerate(sorted(range(len(values)), key=lambda i: (-values[i], i))):
        ranks[i] = r
    return ranks
