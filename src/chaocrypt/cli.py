"""Command-line front end.

Exit codes: 0 success, 2 usage or input error, 3 internal numerical error.
Ciphertext files are raw bytes, exactly as long as the plaintext; all secret
material travels in the key file.  Every file a command writes is made by
`keyfile.write_atomic`, mode 0600, and renamed into place: `encrypt`'s
`--report` CSV, then its key file, then its ciphertext; `decrypt`'s
plaintext; the CSV of `analyze bifurcation`, `landscape` and `lengths`, and
of `lyapunov` and `sensitivity` given `--out` (`keyspace` writes none).  So
a failed run leaves no half-written file and no ciphertext without its key.
An existing output that is not a regular file is refused before any input
is read.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from . import analysis, ga
from .chaos import A_MAX, A_MIN, B_MAX, B_MIN, MapParams, MapState, derive_initial_state
from .cipher import KEY_FIELDS, KeyRecord, encrypt
from .cipher import decrypt as cipher_decrypt
from .errors import FormatError, InvalidInput, NumericalError
from .keyfile import read_key_file, write_atomic, write_key_file


# The printf form of every number the CLI writes in full: 17 significant
# digits give back the same double.  "%" formats it through the same C
# routine as format(v, ".17g"), so the digits are the same.
_NUM = "%.17g"


def _fmt(v: float) -> str:
    return _NUM % v


def _write_csv(path, header, blocks, comment: str | None = None) -> None:
    """Write an optional "# comment" line, the header, then blocks of rows.

    A block is a (line, values) pair: line is the printf format of one row,
    one conversion per field that is not already text in it, and values
    holds the fields of all the block's rows, flat; the text a line holds
    (a formatted number, a fixed name) has no "%".  Each block is
    formatted by one % call and written before the next is made, so memory
    stays bounded by a block.  Every field is a number or a fixed name, so
    nothing is quoted; lines end in LF.
    """
    def chunks():
        if comment:
            yield f"# {comment}\n".encode()
        yield (",".join(header) + "\n").encode()
        for line, values in blocks:
            yield ((line + "\n") * (len(values) // line.count("%")) % tuple(values)).encode()

    write_atomic(path, chunks())


def _parse_range(text: str, parts: int):
    pieces = text.split(":")
    if len(pieces) != parts:
        raise InvalidInput(f"expected {parts} colon-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in pieces)
    except ValueError:
        raise InvalidInput(f"malformed range {text!r}") from None


def _read_bytes(path) -> bytes:
    return Path(path).read_bytes()


# GaConfig field -> (its flag, its type).  The flags default to None, so a
# command can tell a flag given from one left out.
_GA_FLAGS = {
    "population_size": ("--population", int),
    "elite_fraction": ("--elite-fraction", float),
    "mutation_probability": ("--mutation-prob", float),
    "mutation_step": ("--mutation-step", float),
    "fitness_threshold": ("--threshold", float),
    "quorum_fraction": ("--quorum", float),
    "max_generations": ("--max-generations", int),
    "rng_seed": ("--seed", int),
}


def _ga_config(args) -> ga.GaConfig:
    """GaConfig from the GA flags given; GaConfig's defaults fill the rest."""
    given = {field: getattr(args, field) for field in _GA_FLAGS}
    return ga.GaConfig(**{field: v for field, v in given.items() if v is not None})


def _add_ga_flags(parser) -> None:
    for field, (flag, kind) in _GA_FLAGS.items():
        parser.add_argument(flag, dest=field, type=kind, default=None)


def cmd_encrypt(args) -> int:
    if args.skip_ga:
        if args.a is None or args.b is None:
            raise InvalidInput("--skip-ga requires --a and --b")
        if args.report is not None:
            raise InvalidInput("--report cannot be used with --skip-ga")
        for field, (flag, _) in _GA_FLAGS.items():
            if getattr(args, field) is not None:
                raise InvalidInput(f"{flag} cannot be used with --skip-ga")
    elif args.a is not None or args.b is not None:
        raise InvalidInput("--a and --b are used only with --skip-ga")
    plaintext = _read_bytes(args.plaintext)

    if args.skip_ga:
        params = MapParams(args.a, args.b)
        ciphertext, record = encrypt(plaintext, params)
        score = ga.FitnessEvaluator(plaintext).score(params)
        print(f"a: {_fmt(params.a)}")
        print(f"b: {_fmt(params.b)}")
        print(f"fitness: {score:.4f}")
    else:
        config = _ga_config(args)
        report = ga.evolve(plaintext, config)
        a, b, best_fitness = report.best
        ciphertext, record = encrypt(plaintext, MapParams(a, b))
        print(f"generations: {report.generations_run}")
        print(f"best fitness: {best_fitness:.4f}")
        print(f"terminated by: {report.terminated_by}")
        if args.report:
            line = f"%d,%d,{_NUM},{_NUM},{_NUM}"
            _write_csv(
                args.report,
                ("generation", "genome", "a", "b", "fitness"),
                (
                    (line, [v for i, genome in enumerate(population) for v in (generation, i, *genome)])
                    for generation, population in enumerate(report.history, 1)
                ),
            )

    write_key_file(record, args.key_out)
    write_atomic(args.out, [ciphertext])
    if not args.skip_ga and args.rng_seed is None:
        print(f"warning: no --seed given: every such run spawns the same {config.population_size} (a, b) pairs "
              f"(seed {config.rng_seed}), and a message of 300 bytes or more usually keeps one of them", file=sys.stderr)
    return 0


def cmd_decrypt(args) -> int:
    key = read_key_file(args.key)
    plaintext = cipher_decrypt(_read_bytes(args.ciphertext), key)
    write_atomic(args.out, [plaintext])
    return 0


def cmd_analyze_bifurcation(args) -> int:
    low, high = _parse_range(args.range, 2)
    values, xs = analysis.bifurcation_sweep(
        args.param, args.fixed, low, high, args.steps, args.iters, args.transient, MapState(args.x0, args.y0)
    )
    coverages = analysis.bin_coverage(xs).tolist()
    comment = (
        f"swept={args.param} fixed={_fmt(args.fixed)} x0={_fmt(args.x0)} y0={_fmt(args.y0)} "
        f"iterations={args.iters} transient={args.transient}"
    )
    _write_csv(
        args.out,
        (args.param, "x"),
        ((f"{_fmt(p)},{_NUM}", row.tolist()) for p, row in zip(values.tolist(), xs)),
        comment=comment,
    )
    print(f"rows: {xs.size}")
    print(f"min bin coverage: {min(coverages):.2f}")
    print(f"mean bin coverage: {sum(coverages) / len(coverages):.4f}")
    return 0


def cmd_analyze_lyapunov(args) -> int:
    result = analysis.lyapunov_spectrum(
        MapParams(args.a, args.b),
        MapState(args.x0, args.y0),
        iterations=args.iters,
        transient=args.transient,
    )
    print(f"exponent_1: {_fmt(result.exponent_1)}")
    print(f"exponent_2: {_fmt(result.exponent_2)}")
    if args.out:
        _write_csv(
            args.out,
            ("a", "b", "x0", "y0", "iterations", "transient", "exponent_1", "exponent_2"),
            [
                (
                    f"{_NUM},{_NUM},{_NUM},{_NUM},%d,%d,{_NUM},{_NUM}",
                    (args.a, args.b, args.x0, args.y0, args.iters, args.transient,
                     result.exponent_1, result.exponent_2),
                )
            ],
        )
    return 0


def cmd_analyze_landscape(args) -> int:
    plaintext = _read_bytes(args.plaintext)
    a_range = _parse_range(args.a_range, 2)
    b_range = _parse_range(args.b_range, 2)
    table = analysis.fitness_landscape(plaintext, a_range, b_range, args.grid_a, args.grid_b)
    line = f"{_NUM},{_NUM},{_NUM}"
    _write_csv(args.out, ("a", "b", "fitness"), ((line, row.tolist()) for row in table.reshape(args.grid_a, -1)))
    best = table[:, 2].max()
    near = int((table[:, 2] >= best - 0.5).sum())
    print(f"rows: {table.shape[0]}")
    print(f"max fitness: {best:.4f}")
    print(f"cells within 0.5 of max: {near}")
    return 0


def cmd_analyze_lengths(args) -> int:
    try:
        lengths = [int(p) for p in args.lengths.split(",") if p]
    except ValueError:
        raise InvalidInput(f"malformed length list {args.lengths!r}") from None
    if not lengths:
        raise InvalidInput("no lengths given")
    config = _ga_config(args)
    results = analysis.length_experiment(lengths, config, trials=args.trials)
    if args.trials == 1:
        header, line = ("length", "generations", "max_fitness"), f"%d,%d,{_NUM}"
        values = [v for r in results for v in (r.length, r.generations, r.max_fitness)]
    else:
        header, line = ("length", "trial", "generations", "max_fitness"), f"%d,%d,%d,{_NUM}"
        values = [v for r in results for v in (r.length, r.trial, r.generations, r.max_fitness)]
    _write_csv(args.out, header, [(line, values)])
    for length, best, mean, gens in analysis.summarize_lengths(results):
        print(f"length {length}: max fitness {best:.4f}, mean fitness {mean:.4f}, mean generations {gens:.1f}")
    return 0


def cmd_analyze_sensitivity(args) -> int:
    if args.key and (args.a is not None or args.b is not None):
        raise InvalidInput("--a and --b cannot be used with --key")
    if not args.key and (args.a is None or args.b is None):
        raise InvalidInput("provide either --key or both --a and --b")
    plaintext = _read_bytes(args.plaintext)
    if args.key:
        key = read_key_file(args.key)
    else:
        initial = derive_initial_state(plaintext)
        key = KeyRecord(a=args.a, b=args.b, x0=initial.x, y0=initial.y)
    fraction = analysis.sensitivity_probe(plaintext, key, args.component, args.epsilon)
    print(f"fraction changed: {fraction:.4f}")
    if args.out:
        _write_csv(
            args.out,
            ("component", "epsilon", "fraction_changed"),
            [(f"{args.component},{_NUM},{_NUM}", (args.epsilon, fraction))],
        )
    return 0


def cmd_keyspace(args) -> int:
    if args.range:
        ranges = [_parse_range(r, 3) for r in args.range]
    else:
        ranges = list(analysis.DEFAULT_KEYSPACE_RANGES)
    size = analysis.keyspace_size(ranges)
    print(f"key space size: {size:.6g}")
    print(f"ratio to 2^128: {size / math.pow(2.0, 128):.6g}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaocrypt",
        description="Chaotic-map text encryption with a genetic-algorithm key optimizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encrypt", help="optimize a key and encrypt a file")
    p.add_argument("plaintext", help="input file")
    p.add_argument("--out", required=True, help="ciphertext output path")
    p.add_argument("--key-out", required=True, help="key file output path")
    p.add_argument("--report", help="optional per-generation CSV report")
    p.add_argument("--skip-ga", action="store_true", help="encrypt directly with --a/--b")
    p.add_argument("--a", type=float, help="map parameter a (with --skip-ga)")
    p.add_argument("--b", type=float, help="map parameter b (with --skip-ga)")
    _add_ga_flags(p)
    p.set_defaults(func=cmd_encrypt, inputs=("plaintext",), outputs=("out", "key_out", "report"))

    p = sub.add_parser("decrypt", help="decrypt a file with a key file")
    p.add_argument("ciphertext", help="input file")
    p.add_argument("--key", required=True, help="key file path")
    p.add_argument("--out", required=True, help="plaintext output path")
    p.set_defaults(func=cmd_decrypt, inputs=("ciphertext", "--key"), outputs=("out",))

    an = sub.add_parser("analyze", help="chaos diagnostics and experiments")
    ansub = an.add_subparsers(dest="subcommand", required=True)

    p = ansub.add_parser("bifurcation", help="parameter sweep of asymptotic x-values")
    p.add_argument("--param", choices=("a", "b"), required=True)
    p.add_argument("--fixed", type=float, required=True, help="value of the other parameter")
    p.add_argument("--range", required=True, help="LOW:HIGH for the swept parameter")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--iters", type=int, default=600)
    p.add_argument("--transient", type=int, default=500)
    p.add_argument("--x0", type=float, default=analysis.DEFAULT_SWEEP_STATE.x)
    p.add_argument("--y0", type=float, default=analysis.DEFAULT_SWEEP_STATE.y)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_analyze_bifurcation, inputs=(), outputs=("out",))

    p = ansub.add_parser("lyapunov", help="two-exponent Lyapunov spectrum")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--x0", type=float, default=analysis.DEFAULT_SWEEP_STATE.x)
    p.add_argument("--y0", type=float, default=analysis.DEFAULT_SWEEP_STATE.y)
    p.add_argument("--iters", type=int, default=2500)
    p.add_argument("--transient", type=int, default=500)
    p.add_argument("--out", help="optional CSV output path")
    p.set_defaults(func=cmd_analyze_lyapunov, inputs=(), outputs=("out",))

    p = ansub.add_parser("landscape", help="fitness over an (a, b) grid")
    p.add_argument("--plaintext", required=True)
    p.add_argument("--a-range", default=f"{A_MIN!r}:{A_MAX!r}")
    p.add_argument("--b-range", default=f"{B_MIN!r}:{B_MAX!r}")
    p.add_argument("--grid-a", type=int, default=50)
    p.add_argument("--grid-b", type=int, default=50)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_analyze_landscape, inputs=("--plaintext",), outputs=("out",))

    p = ansub.add_parser("lengths", help="plaintext-length experiment")
    p.add_argument("--lengths", default="10,50,100,300,700,1000", help="comma-separated")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", required=True, help="CSV output path")
    _add_ga_flags(p)
    p.set_defaults(func=cmd_analyze_lengths, inputs=(), outputs=("out",))

    p = ansub.add_parser("sensitivity", help="key perturbation probe")
    p.add_argument("--plaintext", required=True)
    p.add_argument("--key", help="key file (otherwise give --a/--b)")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--component", choices=KEY_FIELDS, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--out", help="optional CSV output path")
    p.set_defaults(func=cmd_analyze_sensitivity, inputs=("--plaintext", "--key"), outputs=("out",))

    p = sub.add_parser("keyspace", help="key space size arithmetic")
    p.add_argument(
        "--range",
        action="append",
        help="LOW:HIGH:PRECISION, repeatable; defaults to the key component ranges",
    )
    p.set_defaults(func=cmd_keyspace, inputs=(), outputs=())

    return parser


def _file_id(path):
    """What names the file at path: its device and inode where it exists, so
    links to it match, else its real path.  Any other failure to stat it,
    such as a symlink loop, raises OSError, so the command exits 2 before it
    reads any input."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _check_outputs(args) -> None:
    """Reject an output whose directory is missing, that is a directory or
    another existing file that is not a regular file (a FIFO, a device), or
    that names the same file as an input or another output, before any input
    is read.  Inputs are named as on the command line: a positional's name or
    an option's flag."""
    seen = {}  # file id -> the input or output flag that named it first
    for name in args.inputs:
        path = getattr(args, name.lstrip("-"))
        if path is not None:
            seen[_file_id(path)] = name
    for dest in args.outputs:
        path = getattr(args, dest)
        if path is None:
            continue
        path, flag = Path(path), "--" + dest.replace("_", "-")
        if not path.parent.is_dir():
            raise InvalidInput(f"{path}: directory {str(path.parent)!r} does not exist")
        if path.is_dir():
            raise InvalidInput(f"{path}: is a directory")
        if path.exists() and not path.is_file():
            raise InvalidInput(f"{path}: is not a regular file")
        first = seen.setdefault(_file_id(path), flag)
        if first != flag:
            raise InvalidInput(f"{first} and {flag} are the same file: {path}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_outputs(args)
        return args.func(args)
    except (InvalidInput, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the request needs more memory than this machine has", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
