"""chaocrypt benchmark: one client, closed loop, single process.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all       # every workload, in turn

The package is imported from the `src/` directory next to this one and from
nowhere else.  Each workload generates its inputs from --seed
(perfbench/inputs.py), drives the program through `chaocrypt.cli.main` in
process (plus `analysis.lyapunov_spectrum`, which has no grid command), waits
for each operation before starting the next, and checks every output.

--trace 0 runs the workload's items one after another for about --seconds
and reports the end-to-end metrics: set-up time, peak RSS, and the p50 and
p90 over distinct inputs of the workload's main and auxiliary latencies:

    bulk            main: GA encrypt of 256 KB    aux: its decrypt
    short-messages  main: GA encrypt of a message aux: its decrypt
    analysis-grids  main: landscape + Lyapunov    aux: both bifurcation sweeps

Latencies and set-up time are CPU time of the benchmark process (or of the
set-up child), scaled to a reference host speed.  On a shared 2-vCPU host
the wall time of a fixed loop swings by 3x as the hypervisor runs other
tenants; CPU time swings less, but still by a third between quiet and busy
spells lasting minutes.  So the run also times `reference_work`, a fixed job
of the benchmark's own shaped like the program's hot path, every so often,
and multiplies every time by REFERENCE_S / (its mean CPU time in the run).
Both slow down together, so the scaled figures keep the program's changes
and lose most of the host's; the raw reference time is printed with them.
The run itself lasts --seconds of wall time.

--trace 1 runs a fixed set of items once untraced and once with every public
function of the package wrapped (perfbench/spans.py), and reports per-layer
self times and counts; the counts repeat exactly for a given seed.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Lines before it give the machine record and the figures users know
(MB/s, cells/s, ...).  The exit code is 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

import inputs
from spans import Tracer, unique_ratio

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).with_name("golden.json")
WORK_ROOT = ROOT / ".perfbench_tmp"
SPANS_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 0
WORKLOADS = ("bulk", "short-messages", "analysis-grids")
BULK_BYTES = 256 * 1024
SHORT_MIN_MESSAGES = 100  # the p90 over them has ten messages above it
MIN_REPEATS = 2
SETUP_PROBES = 10
REFERENCE_PROBES = 60  # reference_work calls spread over one run
REFERENCE_S = 0.010  # reported times are scaled to a host where it takes this
# Items a traced run makes once untraced and then once traced.
TRACE_ITEMS = {"bulk": 1, "short-messages": 20, "analysis-grids": 1}
LANDSCAPE_GRID = 50
LYAPUNOV_GRID = 20
BIFURCATION_STEPS, BIFURCATION_ITERS, BIFURCATION_TRANSIENT = 100, 600, 500

FAILED = object()  # what Run._timed returns for an op that raised

SETUP_SCRIPT = "import sys\nfrom chaocrypt.cli import main\nsys.exit(main(sys.argv[1:]))\n"
SETUP_PLAINTEXT = b"setup probe: a short message\n"


def load_package():
    """Import chaocrypt from SRC, or exit 2 if this checkout has no source."""
    if not (SRC / "chaocrypt" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import chaocrypt

    if Path(chaocrypt.__file__).resolve().parent != (SRC / "chaocrypt").resolve():
        print(f"error: imported chaocrypt from {chaocrypt.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return chaocrypt


chaocrypt = load_package()
import numpy as np  # noqa: E402  (after the package, whose dependency it is)
from chaocrypt import analysis, cli  # noqa: E402
from chaocrypt.chaos import MapParams, MapState, generate_sequence  # noqa: E402
from chaocrypt.keyfile import read_key_file  # noqa: E402


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def sin_fingerprint() -> str:
    """Digest of a fixed orbit: equal on machines whose libm sin rounds alike."""
    xs, ys = generate_sequence(MapParams(3.7, 2.9), MapState(0.123, 0.456), 4096, transient=64)
    return sha(np.asarray(xs + ys, dtype="<f8").tobytes())


def reference_work() -> float:
    """CPU seconds of a fixed job like the program's hot path: a Python
    float loop with sin over 20,000 points, two stable argsorts, a
    composition and a set of ints.  It uses none of the program's code."""
    t0 = time.process_time()
    n = 20_000
    x, y = 0.1, 0.2
    xs, ys = [0.0] * n, [0.0] * n
    for i in range(n):
        x = (x + 0.3 + 0.7 * math.sin(6.283185307179586 * y)) % 1.0
        y = 1.0 - 0.5 * x * x + y
        xs[i], ys[i] = x, y
    order_x = np.argsort(-np.asarray(xs), kind="stable")
    order_y = np.argsort(-np.asarray(ys), kind="stable")
    set((order_y[order_x] ^ 77).tolist())
    return time.process_time() - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def percentile(samples, q: int) -> float:
    """q-th percentile, interpolated between samples (never past the max)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


class Run:
    """State of one benchmark run: op timings, failures and output digests.

    A workload runs items, each a few operations on the inputs made from
    (seed, item index).  Bulk and analysis-grids repeat one item; short
    messages give every item a new message.
    """

    def __init__(self, workload: str, seed: int, golden: dict, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.item = 0
        # op kind -> item -> one time per repeat, in seconds
        self.samples: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.op_seconds = 0.0
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.tracer: Tracer | None = None
        self.golden = golden
        # item -> {output name: digest}: from golden.json at the default
        # seed, else as first seen in this run; repeats must match.
        self.expected: dict[str, dict[str, str]] = {}
        self.recorded: dict[str, dict[str, str]] = {}
        self.recorded_setup: dict[str, str] = {}
        if seed == DEFAULT_SEED:
            for key, digests in golden.get(workload, {}).items():
                self.expected[key] = dict(digests)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def path(self, name: str) -> str:
        return str(self.work / name)

    def fail(self, message: str) -> None:
        self.failed_ops.add(self.attempted)
        self.failures.append(message)

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    def _timed(self, kind: str, fn, *args):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.current_op = self.attempted
        t0 = time.process_time()
        try:
            result = fn(*args)
        except Exception as exc:  # a crashing op is a failed op; the run goes on
            self.fail(f"{kind} item {self.item}: {exc!r}")
            return FAILED
        dt = time.process_time() - t0
        self.samples[kind][self.item].append(dt)
        self.op_seconds += dt
        return result

    def cli(self, kind: str, argv: list[str]) -> str | None:
        """Run `chaocrypt <argv>` in process; its stdout, or None on failure."""
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv)

        rc = self._timed(kind, call)
        if rc is FAILED or not self.expect(
            rc == 0, f"{kind} item {self.item}: exit code {rc}: {err.getvalue().strip()}"
        ):
            return None
        return out.getvalue()

    def call(self, kind: str, fn, *args):
        """Time a library call; its result, or None if it raised."""
        result = self._timed(kind, fn, *args)
        return None if result is FAILED else result

    def digest(self, name: str, data) -> None:
        """Compare an output's digest with the one expected for this item."""
        key, d = str(self.item), sha(data)
        self.recorded.setdefault(key, {})[name] = d
        want = self.expected.setdefault(key, {}).setdefault(name, d)
        self.expect(d == want, f"{self.workload} item {key}: {name} digest {d[:16]} != {want[:16]}")

    def per_item(self, kinds: tuple[str, ...]) -> list[float]:
        """Per item, the mean over repeats of each op kind, summed over kinds.

        Other tenants of the host slow it by up to half for seconds at a
        time; a mean over repeats spread across the run averages that out,
        where a minimum or median would jump between the fast and slow
        speeds."""
        items = set.intersection(*(set(self.samples[k]) for k in kinds))
        return [sum(statistics.fmean(self.samples[k][i]) for k in kinds) for i in sorted(items)]


class Workload(NamedTuple):
    item: Callable[[int], None]  # runs item i's ops and checks their outputs
    repeats_item_0: bool  # every item is item 0 (else each is a new input)
    min_items: int
    main: tuple[str, ...]  # op kinds whose times add up to the main latency
    aux: tuple[str, ...]  # and to the auxiliary one
    people: Callable[[], list]  # (name, value, unit) of the figures users know


# -- workloads -----------------------------------------------------------------


def encrypt_round_trip(run: Run, plaintext: bytes, ga_seed: int) -> None:
    """GA-encrypt then decrypt through the CLI, checking every output."""
    p, c, k, r = (run.path(n) for n in ("plain.txt", "cipher.bin", "msg.key", "out.txt"))
    Path(p).write_bytes(plaintext)
    out = run.cli("encrypt", ["encrypt", p, "--out", c, "--key-out", k, "--seed", str(ga_seed)])
    if out is not None:
        lines = out.splitlines()
        run.expect(
            len(lines) == 3
            and lines[0].startswith("generations: ")
            and lines[1].startswith("best fitness: ")
            and lines[2].startswith("terminated by: "),
            f"encrypt item {run.item}: unexpected stdout {out!r}",
        )
        ciphertext = Path(c).read_bytes()
        run.expect(len(ciphertext) == len(plaintext), f"encrypt item {run.item}: ciphertext length")
        try:
            read_key_file(k)
        except chaocrypt.ChaocryptError as exc:
            run.fail(f"encrypt item {run.item}: key file does not read back: {exc}")
        run.digest("ciphertext", ciphertext)
        run.digest("key_file", Path(k).read_bytes())
        run.digest("encrypt_stdout", out)
    out = run.cli("decrypt", ["decrypt", c, "--key", k, "--out", r])
    if out is not None:
        run.expect(out == "", f"decrypt item {run.item}: unexpected stdout {out!r}")
        run.expect(Path(r).read_bytes() == plaintext, f"decrypt item {run.item}: round trip differs")


def bulk(run: Run) -> Workload:
    plaintext = inputs.bulk_text(run.seed, BULK_BYTES)
    ga_seed = inputs.ga_seed(run.seed, "bulk")

    def people():
        mb = BULK_BYTES / 1e6
        return [
            ("encrypt_MBps", mb / run.per_item(("encrypt",))[0], "MB/s"),
            ("decrypt_MBps", mb / run.per_item(("decrypt",))[0], "MB/s"),
        ]

    return Workload(
        lambda i: encrypt_round_trip(run, plaintext, ga_seed),
        True,
        MIN_REPEATS,
        ("encrypt",),
        ("decrypt",),
        people,
    )


def short_messages(run: Run) -> Workload:
    def item(i):
        encrypt_round_trip(run, *inputs.short_message(run.seed, i))

    def people():
        rows = []
        for kind in ("encrypt", "decrypt"):
            best = run.per_item((kind,))
            rows.append((f"{kind}_p50_ms", 1e3 * statistics.median(best), "ms"))
            rows.append((f"{kind}_p90_ms", 1e3 * percentile(best, 90), "ms"))
        return rows

    return Workload(item, False, SHORT_MIN_MESSAGES, ("encrypt",), ("decrypt",), people)


def lyapunov_grid(a_values, b_values):
    state = analysis.DEFAULT_SWEEP_STATE
    return [
        analysis.lyapunov_spectrum(MapParams(float(a), float(b)), state)
        for a in a_values
        for b in b_values
    ]


def analysis_grids(run: Run) -> Workload:
    text_path = run.path("landscape.txt")
    Path(text_path).write_bytes(inputs.landscape_text(run.seed))
    b_fixed, a_fixed = inputs.bifurcation_fixed(run.seed)
    a_values = np.linspace(1.0, 4.0, LYAPUNOV_GRID)
    b_values = np.linspace(0.1, 4.0, LYAPUNOV_GRID)
    sweeps = (("bif_a", "a", b_fixed, "1:4"), ("bif_b", "b", a_fixed, "0.1:4"))
    bif_rows = BIFURCATION_STEPS * (BIFURCATION_ITERS - BIFURCATION_TRANSIENT)

    def csv_check(name, csv_path, out, data_rows, comment_lines):
        data = Path(csv_path).read_bytes()
        lines = data.split(b"\n")
        run.expect(
            lines[-1] == b"" and len(lines) - 1 == data_rows + 1 + comment_lines,
            f"{name}: CSV has {len(lines) - 1} lines, want {data_rows + 1 + comment_lines}",
        )
        run.expect(out.startswith(f"rows: {data_rows}\n"), f"{name}: stdout {out!r}")
        run.digest(f"{name}_csv", data)
        run.digest(f"{name}_stdout", out)

    def item(i):
        grid = str(LANDSCAPE_GRID)
        csv_path = run.path("landscape.csv")
        argv = ["analyze", "landscape", "--plaintext", text_path, "--grid-a", grid, "--grid-b", grid]
        out = run.cli("landscape", argv + ["--out", csv_path])
        if out is not None:
            csv_check("landscape", csv_path, out, LANDSCAPE_GRID**2, 0)

        results = run.call("lyapunov", lyapunov_grid, a_values, b_values)
        if results is not None:
            exps = np.array([(r.exponent_1, r.exponent_2) for r in results], dtype="<f8")
            run.expect(
                exps.shape == (LYAPUNOV_GRID**2, 2) and np.isfinite(exps).all(),
                "lyapunov: missing or non-finite exponents",
            )
            run.digest("lyapunov_bits", exps.tobytes())

        for kind, param, fixed, span in sweeps:
            csv_path = run.path(f"{kind}.csv")
            argv = ["analyze", "bifurcation", "--param", param, "--fixed", repr(fixed), "--range", span]
            out = run.cli(kind, argv + ["--out", csv_path])
            if out is not None:
                csv_check(kind, csv_path, out, bif_rows, 1)

    def people():
        return [
            ("landscape_cells_per_s", LANDSCAPE_GRID**2 / run.per_item(("landscape",))[0], "1/s"),
            ("lyapunov_cells_per_s", LYAPUNOV_GRID**2 / run.per_item(("lyapunov",))[0], "1/s"),
            ("bifurcation_points_per_s", 2 * bif_rows / run.per_item(("bif_a", "bif_b"))[0], "1/s"),
        ]

    return Workload(item, True, MIN_REPEATS, ("landscape", "lyapunov"), ("bif_a", "bif_b"), people)


WORKLOAD_FUNCS = {"bulk": bulk, "short-messages": short_messages, "analysis-grids": analysis_grids}


# -- set-up, end-to-end and traced runs ----------------------------------------


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_probe(run: Run) -> float:
    """CPU time of a fresh interpreter importing chaocrypt and finishing one
    tiny --skip-ga encrypt, whose outputs are checked against golden."""
    p, c, k = run.path("setup.txt"), run.path("setup.bin"), run.path("setup.key")
    Path(p).write_bytes(SETUP_PLAINTEXT)
    argv = ["encrypt", p, "--out", c, "--key-out", k, "--skip-ga", "--a", "2.5", "--b", "1.5"]
    run.attempted += 1
    t0 = children_cpu_seconds()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SCRIPT, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=run.work,
        capture_output=True,
        timeout=120,
    )
    dt = children_cpu_seconds() - t0
    if run.expect(proc.returncode == 0, f"setup: exit code {proc.returncode}: {proc.stderr!r}"):
        run.recorded_setup = {
            "ciphertext": sha(Path(c).read_bytes()),
            "key_file": sha(Path(k).read_bytes()),
            "stdout": sha(proc.stdout),
        }
        for name, d in run.recorded_setup.items():
            want = run.golden.get("setup", {}).get(name, d)
            run.expect(d == want, f"setup: {name} digest {d[:16]} != {want[:16]}")
    return dt


def run_items(run: Run, wl: Workload, count: int) -> None:
    for i in range(count):
        run.item = 0 if wl.repeats_item_0 else i
        wl.item(run.item)


def end_to_end(run: Run, seconds: float) -> dict:
    wl = WORKLOAD_FUNCS[run.workload](run)
    setup_probe(run)  # warm-ups: the first launch may compile bytecode,
    reference_work()  # the first argsort may set up numpy
    reference_times: list[float] = []
    # Set-up probes are spread over the run, at most one before each item,
    # so that their median sees the same host load as the items do.
    setup_times: list[float] = []
    start = time.perf_counter()

    # At least min_items, then more while one more of average length would
    # end less than half an item past `seconds`.
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        # Reference probes keep pace with the clock, caught up between items.
        due = max(1, math.ceil(REFERENCE_PROBES * elapsed / max(seconds, 1.0)))
        while len(reference_times) < due:
            reference_times.append(reference_work())
        if done >= wl.min_items and elapsed * (done + 0.5) / done >= seconds:
            break
        due = len(setup_times) * seconds / SETUP_PROBES
        if len(setup_times) < SETUP_PROBES and elapsed >= due:
            setup_times.append(setup_probe(run))
        run.item = 0 if wl.repeats_item_0 else done
        wl.item(run.item)
        done += 1

    reference_s = statistics.fmean(reference_times)
    scale = REFERENCE_S / reference_s
    main, aux = run.per_item(wl.main), run.per_item(wl.aux)
    print(
        f"{run.workload} reference_work {1e3 * reference_s:.4g} ms CPU (n={len(reference_times)}): "
        f"times below are CPU time x {scale:.4g}"
    )
    for name, value, unit in wl.people():
        value = value / scale if unit == "1/s" or unit == "MB/s" else value * scale
        print(f"{run.workload} {name} {value:.6g} {unit}")
    print(f"{run.workload} items {done} distinct {len(main)} set-up probes {len(setup_times)}")
    print(f"{run.workload} failed_ratio {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted})")
    return {
        "setup_s": (scale * statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "main_p50_ms": (1e3 * scale * statistics.median(main), "ms"),
        "main_p90_ms": (1e3 * scale * percentile(main, 90), "ms"),
        "aux_p50_ms": (1e3 * scale * statistics.median(aux), "ms"),
        "aux_p90_ms": (1e3 * scale * percentile(aux, 90), "ms"),
    }


def traced(run: Run) -> dict:
    """The first TRACE_ITEMS items untraced, then the same items traced."""
    wl = WORKLOAD_FUNCS[run.workload](run)
    count = TRACE_ITEMS[run.workload]
    run_items(run, wl, count)
    untraced_s = run.op_seconds
    with Tracer() as tracer:
        run.tracer = tracer
        run_items(run, wl, count)
    run.tracer = None
    traced_s = run.op_seconds - untraced_s
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{run.workload}-seed{run.seed}.csv"
    tracer.write_csv(spans_path)
    print(f"{run.workload} spans {len(tracer.start)} written to {spans_path}")
    return layer_metrics(tracer, traced_s / untraced_s)


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    selfs, calls = tracer.self_seconds_by_name(), tracer.calls_by_name()

    def ratio(a, b):
        return a / b if b else 0.0

    gen_self = selfs["chaos.generate_sequence"]
    evolve_self = selfs["ga.evolve"]
    metrics = {
        "chaos.generate_sequence.calls": (calls["chaos.generate_sequence"], "count"),
        "chaos.steps": (tracer.steps, "count"),
        "chaos.generate_sequence.self_s": (gen_self, "s"),
        "chaos.ns_per_step": (ratio(1e9 * gen_self, tracer.steps), "ns"),
        "cipher.build_keystream.calls": (calls["cipher.build_keystream"], "count"),
        "cipher.keystream_unique_ratio": (ratio(*unique_ratio(tracer.keystreams)), "ratio"),
        "ga.score.calls": (calls["ga.FitnessEvaluator.score"], "count"),
        "ga.score_unique_ratio": (ratio(*unique_ratio(tracer.scores)), "ratio"),
        "ga.score.self_s": (selfs["ga.FitnessEvaluator.score"], "s"),
        "ga.evolve.self_s": (evolve_self, "s"),
        "ga.generations": (tracer.generations, "count"),
        "ga.evolve.self_ms_per_generation": (ratio(1e3 * evolve_self, tracer.generations), "ms"),
        "analysis.lyapunov_steps": (tracer.lyapunov_steps, "count"),
        "cli.main.calls": (calls["cli.main"], "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    for name in (
        "cipher.rank_descending",
        "cipher.compose_key",
        "cipher.xor_apply",
        "cipher.encrypt",
        "cipher.decrypt",
        "analysis.fitness_landscape",
        "analysis.bifurcation_sweep",
        "analysis.lyapunov_spectrum",
        "keyfile.write_key_file",
        "keyfile.read_key_file",
        "cli.main",
    ):
        metrics[f"{name}.self_s"] = (selfs[name], "s")
    return metrics


def machine_record(fingerprint: str, golden: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sin_fingerprint": fingerprint,
        "sin_fingerprint_matches_golden": fingerprint == golden.get("sin_fingerprint"),
    }


def run_one(args) -> int:
    golden = {} if args.record_golden else load_golden()
    fingerprint = sin_fingerprint()
    print("machine " + json.dumps(machine_record(fingerprint, golden), sort_keys=True))
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    run = Run(args.workload, args.seed, golden, work)
    try:
        if args.trace:
            metrics = traced(run)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if run.failures:
        if golden and fingerprint != golden.get("sin_fingerprint"):
            print(
                f"sin_fingerprint {fingerprint[:16]} differs from golden "
                f"{golden.get('sin_fingerprint', '')[:16]}: this machine's libm sin "
                "rounds differently from the one the digests were recorded on",
                file=sys.stderr,
            )
        for message in run.failures[:20]:
            print(f"FAIL {message}", file=sys.stderr)
    if args.record_golden:
        record_golden(run, fingerprint)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def record_golden(run: Run, fingerprint: str) -> None:
    """Store this default-seed run's digests as the reference in golden.json."""
    if run.seed != DEFAULT_SEED or run.failed:
        raise SystemExit("error: golden digests come from a clean run at the default seed")
    golden = load_golden()
    golden["sin_fingerprint"] = fingerprint
    golden["setup"] = run.recorded_setup
    golden[run.workload] = run.recorded
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run_all(args) -> int:
    """Every workload, each in its own process; prints all their lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] &= result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="rewrite golden.json with this run's digests (default seed only)",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
