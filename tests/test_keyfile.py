import random
import struct

import numpy as np
import pytest

from chaocrypt import FormatError, KeyRecord, read_key_file, write_key_file
from chaocrypt.keyfile import float_to_hex, hex_to_float, write_atomic


def _random_key(rng):
    x0 = rng.uniform(1e-6, 1.0)
    return KeyRecord(
        a=rng.uniform(1.0, 4.0),
        b=rng.uniform(0.1, 4.0),
        x0=x0,
        y0=1.0 - x0,
    )


def test_round_trip_is_bit_exact(tmp_path):
    rng = random.Random(0)
    path = tmp_path / "key.txt"
    for _ in range(100):
        key = _random_key(rng)
        write_key_file(key, path)
        back = read_key_file(path)
        assert back == key


def test_comments_blank_lines_spaces_and_order_are_ignored(tmp_path):
    key = KeyRecord(2.0, 1.0, 0.5, 0.5)
    path = tmp_path / "key.txt"
    write_key_file(key, path)
    # name=value with other spacing, last field first, blank lines between
    lines = [f"  {line.replace(' = ', '=')}\t" for line in reversed(path.read_text().splitlines())]
    path.write_text("# a key for the tests\n\n" + "\n  \n".join(lines) + "\n")
    assert read_key_file(path) == key


def test_write_cut_short_leaves_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "key.txt"
    write_key_file(KeyRecord(2.0, 1.0, 0.5, 0.5), path)
    before = path.read_bytes()

    def chunks():
        yield b"the first half of a new file"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_atomic(path, chunks())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["key.txt"]


def test_known_bit_pattern_for_one_thousandth():
    assert float_to_hex(0.001) == "3F50624DD2F1A9FC"
    assert hex_to_float("3F50624DD2F1A9FC") == 0.001


def test_hex_agrees_with_independent_converter():
    # numpy's view of the raw bits is the independent reference here
    rng = random.Random(1)
    for _ in range(200):
        v = rng.uniform(1e-9, 4.0)
        expected = np.float64(v).view(np.uint64)
        assert int(float_to_hex(v), 16) == int(expected)
        assert struct.unpack(">Q", struct.pack(">d", v))[0] == int(expected)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "key.txt"
    write_key_file(KeyRecord(2.0, 1.0, 0.5, 0.5), path)
    text = path.read_text().replace("version = 1", "version = 2")
    path.write_text(text)
    with pytest.raises(FormatError, match="version"):
        read_key_file(path)


def test_rejects_decimal_hex_mismatch(tmp_path):
    path = tmp_path / "key.txt"
    write_key_file(KeyRecord(2.0, 1.0, 0.5, 0.5), path)
    text = path.read_text().replace("a.dec = 2", "a.dec = 2.25", 1)
    path.write_text(text)
    with pytest.raises(FormatError, match="a"):
        read_key_file(path)


def test_rejects_missing_field(tmp_path):
    path = tmp_path / "key.txt"
    write_key_file(KeyRecord(2.0, 1.0, 0.5, 0.5), path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("b.hex")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="b.hex"):
        read_key_file(path)


def test_rejects_malformed_lines(tmp_path):
    path = tmp_path / "key.txt"
    write_key_file(KeyRecord(2.0, 1.0, 0.5, 0.5), path)
    valid = path.read_bytes()
    cases = (
        (b"version = 1\nnot a field line\n", "name = value"),
        (b"\xff\xfe", "UTF-8"),
        # a repeated field must not silently replace the first one
        (valid + f"a.hex = {float_to_hex(3.0)}\na.dec = 3\n".encode(), "duplicate field a.hex"),
        # 14 hex digits are 7 bytes, not a binary64
        (valid.replace(float_to_hex(2.0).encode(), float_to_hex(2.0)[:14].encode()),
         "field a.hex: invalid bit pattern"),
        # the right digits with spaces between them are not 16 hex digits
        (valid.replace(float_to_hex(2.0).encode(), b"40 00 00 00 00 00 00 00"),
         "field a.hex: invalid bit pattern"),
        (valid.replace(float_to_hex(2.0).encode(), b"4000 0000 0000 0000"),
         "field a.hex: invalid bit pattern"),
    )
    for content, message in cases:
        path.write_bytes(content)
        with pytest.raises(FormatError, match=message):
            read_key_file(path)


def test_rejects_bad_hex_digits(tmp_path):
    path = tmp_path / "key.txt"
    write_key_file(KeyRecord(2.0, 1.0, 0.5, 0.5), path)
    text = path.read_text().replace(float_to_hex(2.0), "XXXX000000000000")
    path.write_text(text)
    with pytest.raises(FormatError, match="a.hex"):
        read_key_file(path)


def test_rejects_out_of_range_decoded_values(tmp_path):
    path = tmp_path / "key.txt"
    write_key_file(KeyRecord(2.0, 1.0, 0.5, 0.5), path)
    valid = path.read_text()
    # a non-finite field decodes, and KeyRecord's range test refuses it
    for dec, hex_digits in (("9", float_to_hex(9.0)), ("inf", "7FF0000000000000")):
        text = valid.replace("a.dec = 2", f"a.dec = {dec}", 1).replace(float_to_hex(2.0), hex_digits, 1)
        path.write_text(text)
        with pytest.raises(FormatError) as exc:
            read_key_file(path)
        assert str(exc.value) == f"parameter a={float(dec)!r} outside [1.0, 4.0]"


def test_last_hex_digit_flip_changes_key(tmp_path):
    path = tmp_path / "key.txt"
    write_key_file(KeyRecord(2.0, 1.0, 0.5, 0.5), path)
    original = float_to_hex(2.0)
    flipped = original[:-1] + ("1" if original[-1] == "0" else "0")
    nudged = hex_to_float(flipped)
    text = path.read_text()
    text = text.replace(original, flipped)
    text = text.replace("a.dec = 2", f"a.dec = {nudged:.17g}", 1)
    path.write_text(text)
    back = read_key_file(path)
    assert back.a != 2.0
    assert abs(back.a - 2.0) < 1e-14
