"""Property tests for the CLI's exit-code contract.

Arbitrary key files: reading one either gives a KeyRecord or raises
FormatError/InvalidInput, and `chaocrypt decrypt` with it exits 0, 2 or 3
without a traceback.  Arbitrary argv for the analysis, keyspace and
`encrypt --skip-ga` commands: every float option is drawn from all doubles
(and the strings inf/nan), and the command exits 0, 2 or 3 without a
traceback and writes no output when it fails.  Work-setting integers stay
small, since they set how long a command runs."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from chaocrypt import FormatError, InvalidInput, KeyRecord
from chaocrypt.cli import main
from chaocrypt.keyfile import float_to_hex, read_key_file

CIPHERTEXT = bytes(range(1, 9))
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

_FIELD_NAMES = ["version", *(f"{c}.{e}" for c in ("a", "b", "x0", "y0") for e in ("dec", "hex"))]


@st.composite
def _field_line(draw):
    """One `name = value` line, mostly well formed, with any float behind it."""
    name = draw(st.sampled_from(_FIELD_NAMES) | st.text(max_size=8))
    v = draw(st.floats() | st.sampled_from([0.125, 1.0 - 0.125, 2.5, 1.5, 5e-324, 1e308]))
    value = draw(
        st.sampled_from(["1", format(v, ".17g"), float_to_hex(v)]) | st.text(max_size=20)
    )
    return f"{name} = {value}"


@st.composite
def _near_valid_key(draw):
    """A valid key file (x0 often 1/len(CIPHERTEXT), or tiny), then up to two
    of its lines replaced by arbitrary ones."""
    x0 = draw(st.sampled_from([1 / len(CIPHERTEXT), 1.0, 5e-324, 1e-310]) | st.floats(0.0, 1.0))
    values = {
        "a": draw(st.floats(1.0, 4.0)),
        "b": draw(st.floats(0.1, 4.0)),
        "x0": x0,
        "y0": draw(st.just(1.0 - x0) | st.floats(allow_nan=False, allow_infinity=False)),
    }
    lines = ["version = 1"]
    for name, v in values.items():
        lines += [f"{name}.dec = {v:.17g}", f"{name}.hex = {float_to_hex(v)}"]
    for _ in range(draw(st.integers(0, 2))):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(_field_line())
    return ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")


KEY_BYTES = st.binary(max_size=300) | _near_valid_key()


@FUZZ
@given(KEY_BYTES)
def test_read_key_file_returns_a_record_or_raises_a_format_error(data):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "k"
        path.write_bytes(data)
        try:
            key = read_key_file(path)
        except (FormatError, InvalidInput):
            return
    assert isinstance(key, KeyRecord)
    assert all(math.isfinite(v) for v in (key.a, key.b, key.x0, key.y0))


@FUZZ
@given(KEY_BYTES)
def test_decrypt_with_any_key_file_keeps_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as d:
        key, cipher, out = Path(d) / "k", Path(d) / "c", Path(d) / "o"
        key.write_bytes(data)
        cipher.write_bytes(CIPHERTEXT)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["decrypt", str(cipher), "--key", str(key), "--out", str(out)])
        assert rc in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert (rc == 0) == out.exists()


FLOAT = st.floats().map(repr) | st.sampled_from(["inf", "-inf", "nan", "1e308", "-1e308", "1.7e308"])
PLAINTEXTS = st.sampled_from([b"x", b"attack at dawn", bytes(range(256)), b"", b"\x00\x00"])


def _num(lo, hi):
    return st.floats(lo, hi).map(repr)


def _span(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=2, max_size=2).map(lambda v: ":".join(map(repr, sorted(v))))


def _wild_span(parts):
    return st.lists(FLOAT, min_size=parts, max_size=parts).map(":".join)


A, B, UNIT, Y = _num(1.0, 4.0), _num(0.1, 4.0), _num(0.0, 1.0), _num(-2.0, 2.0)

# Per command, its float-valued options with a strategy for a usable value.
FLOAT_OPTIONS = {
    "lyapunov": {"a": A, "b": B, "x0": UNIT, "y0": Y},
    "bifurcation": {"fixed": B, "range": _span(0.1, 4.0), "x0": UNIT, "y0": Y},
    "sensitivity": {"a": A, "b": B, "epsilon": _num(0.0, 1e-3)},
    "landscape": {"a-range": _span(1.0, 4.0), "b-range": _span(0.1, 4.0)},
    "keyspace": {"range": st.builds("{}:{}:{}".format, _num(0.0, 1.0), _num(1.0, 4.0), _num(1e-16, 1.0))},
    "encrypt": {"a": A, "b": B},
}


def _opt(name, value):
    # --name=value, so a value such as -1e+308 is not taken for an option
    return f"--{name}={value}"


@st.composite
def _argv(draw):
    """A usable command line with up to two of its float options replaced by
    any double or inf/nan; returns it with the placeholders (PLAIN, OUT,
    KEY) of the files it names and the placeholders it writes to."""
    command = draw(st.sampled_from(sorted(FLOAT_OPTIONS)))
    values = {name: draw(strategy) for name, strategy in FLOAT_OPTIONS[command].items()}
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(values)))
        values[name] = draw(_wild_span(values[name].count(":") + 1) if "range" in name else FLOAT)
    options = [_opt(name, value) for name, value in values.items()]
    iters = [_opt("iters", draw(st.integers(1, 50))), _opt("transient", draw(st.integers(0, 10)))]
    if command == "keyspace":
        return ["keyspace", *options[: draw(st.integers(0, 1))]], []
    if command == "encrypt":
        return ["encrypt", "PLAIN", "--out", "OUT", "--key-out", "KEY", "--skip-ga", *options], ["OUT", "KEY"]
    argv = ["analyze", command, "--out", "OUT", *options]
    if command == "lyapunov":
        argv += iters
    elif command == "bifurcation":
        argv += [_opt("param", draw(st.sampled_from("ab"))), _opt("steps", draw(st.integers(1, 4))), *iters]
    elif command == "sensitivity":
        argv += ["--plaintext", "PLAIN", _opt("component", draw(st.sampled_from(["a", "b", "x0", "y0"])))]
    else:
        argv += ["--plaintext", "PLAIN", _opt("grid-a", draw(st.integers(0, 4))), _opt("grid-b", draw(st.integers(0, 4)))]
    return argv, ["OUT"]


@FUZZ
@given(_argv(), PLAINTEXTS)
def test_cli_with_any_numeric_arguments_keeps_the_exit_code_contract(argv_outputs, plaintext):
    argv, outputs = argv_outputs
    with tempfile.TemporaryDirectory() as d:
        paths = {name: Path(d) / name.lower() for name in ("PLAIN", "OUT", "KEY")}
        paths["PLAIN"].write_bytes(plaintext)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([str(paths[a]) if a in paths else a for a in argv])
        assert rc in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if rc != 0:
            assert not any(paths[name].exists() for name in outputs)
