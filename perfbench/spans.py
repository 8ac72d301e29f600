"""In-memory span tracing of the package's layers, from outside the package.

`Tracer.install()` replaces the public functions listed in LAYERS with
wrappers that record one span per call: name, start and end (process CPU
time), parent span and benchmark op id.  A function imported by name into
another module (`from .cipher import build_keystream`) is rebound there too,
so the calls that module makes are seen.

Spans stay in column arrays until the run ends; `self_times` turns them
into per-span self time, the span's length minus the part of it covered by
its children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "chaocrypt"

# Layer (module) -> the public functions wrapped, "Class.method" for methods:
# those on the workloads' paths whose spans feed a per-layer metric.  Helpers
# they call per genome, per cell or per step (mutate, crossover, bin_coverage,
# _step_xy, ...) stay unwrapped, so their time is their caller's self time.
LAYERS = {
    "chaos": ("generate_sequence",),
    "cipher": ("build_keystream", "rank_descending", "compose_key", "xor_apply", "encrypt", "decrypt"),
    "ga": ("FitnessEvaluator.score", "evolve"),
    "analysis": ("fitness_landscape", "bifurcation_sweep", "lyapunov_spectrum"),
    "keyfile": ("write_key_file", "read_key_file"),
    "cli": ("main",),
}

NO_PARENT = -1

# Calls whose arguments or result feed a count metric.
OBSERVED = frozenset(
    (
        "chaos.generate_sequence",
        "cipher.build_keystream",
        "ga.FitnessEvaluator.score",
        "ga.evolve",
        "analysis.lyapunov_spectrum",
    )
)


class Tracer:
    """Records spans and the per-call facts the count metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack = [NO_PARENT]
        self.current_op = 0
        self.steps = 0  # orbit points iterated by generate_sequence
        self.lyapunov_steps = 0
        self.generations = 0
        # op id -> list of call keys, for the unique ratios
        self.keystreams: dict[int, list] = defaultdict(list)
        self.scores: dict[int, list] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _observe(self, qualname, bound, result):
        if qualname == "chaos.generate_sequence":
            self.steps += bound["n"] + bound["transient"]
        elif qualname == "cipher.build_keystream":
            p, s = bound["params"], bound["initial"]
            self.keystreams[self.current_op].append((p.a, p.b, s.x, s.y, bound["n"]))
        elif qualname == "ga.FitnessEvaluator.score":
            p = bound["params"]
            self.scores[self.current_op].append((p.a, p.b))
        elif qualname == "ga.evolve":
            self.generations += result.generations_run
        elif qualname == "analysis.lyapunov_spectrum":
            self.lyapunov_steps += bound["iterations"]

    def _wrap(self, qualname, fn):
        nid = len(self.names)
        self.names.append(qualname)
        observed = qualname in OBSERVED
        if observed:
            params = inspect.signature(fn).parameters
            names, defaults = list(params), {n: p.default for n, p in params.items()}
        clock = time.process_time_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.current_op)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if observed:
                bound = dict(defaults)
                bound.update(zip(names, args))
                bound.update(kwargs)
                self._observe(qualname, bound, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in LAYERS and rebind it wherever imported."""
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer, funcs in LAYERS.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in funcs:
                qualname = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self._wrap(qualname, orig))
                    continue
                orig = getattr(home, name)
                wrapped = self._wrap(qualname, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def self_seconds_by_name(self) -> dict[str, float]:
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, float] = defaultdict(float)
        for nid, s in zip(self.name_id, selfs):
            out[self.names[nid]] += s / 1e9
        return out

    def calls_by_name(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for nid in self.name_id:
            out[self.names[nid]] += 1
        return out

    def write_csv(self, path) -> None:
        """All spans, one line each: op,name,start_ns,end_ns,parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]},{self.names[self.name_id[i]]},"
                    f"{self.start[i]},{self.end[i]},{self.parent[i]}\n"
                )


def unique_ratio(calls_by_op: dict) -> tuple[int, int]:
    """(distinct call keys summed over ops, total calls)."""
    distinct = sum(len(set(keys)) for keys in calls_by_op.values())
    total = sum(len(keys) for keys in calls_by_op.values())
    return distinct, total


def self_times(start, end, parent) -> list[int]:
    """Self time of each span: its length minus the union of its children's
    intervals, clipped to the span.  `parent[i]` is the index of span i's
    parent or NO_PARENT."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: start[c]):
            c_lo, c_hi = max(start[c], lo), min(end[c], hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out
