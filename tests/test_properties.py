"""Property tests for the CLI's exit-code contract on arbitrary key files:
reading one either gives a KeyRecord or raises FormatError/InvalidInput, and
`chaocrypt decrypt` with it exits 0, 2 or 3 without a traceback."""

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
