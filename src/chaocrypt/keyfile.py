"""Key files: decimal rendering for humans, IEEE-754 bit patterns as the
authority.  Line-oriented UTF-8, one field per line:

    version = 1
    a.dec = 2.5
    a.hex = 4004000000000000
    ...

On read the hex bit pattern wins; the decimal must parse back to the same
double or the file is rejected.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path

from .cipher import KEY_FIELDS, KeyRecord
from .errors import FormatError, InvalidInput

FORMAT_VERSION = 1


def float_to_hex(v: float) -> str:
    """16 hex digits of the big-endian binary64 bit pattern."""
    return struct.pack(">d", v).hex().upper()


def hex_to_float(s: str) -> float:
    raw = bytes.fromhex(s)  # which skips spaces: the length of s is checked too
    if len(s) != 16 or len(raw) != 8:
        raise ValueError("expected 16 hex digits")
    return struct.unpack(">d", raw)[0]


def write_atomic(path, chunks) -> None:
    """Write the byte chunks to a new temp file in path's directory and
    rename it over path, so path is never seen half written; on any failure
    the temp is removed.  mkstemp makes the temp exclusively (never through
    a planted link), mode 0600, under a name no one can guess, and the
    rename keeps that mode: every file the package writes is made here."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with open(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_key_file(key: KeyRecord, path) -> None:
    lines = [f"version = {FORMAT_VERSION}"]
    for name in KEY_FIELDS:
        v = float(getattr(key, name))
        lines.append(f"{name}.dec = {v:.17g}")
        lines.append(f"{name}.hex = {float_to_hex(v)}")
    write_atomic(path, [("\n".join(lines) + "\n").encode()])


def read_key_file(path) -> KeyRecord:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: key file is not UTF-8 text") from None
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"line {lineno}: expected 'name = value'")
        name = name.strip()
        if name in fields:
            raise FormatError(f"line {lineno}: duplicate field {name}")
        fields[name] = value.strip()

    version = fields.get("version")
    if version != str(FORMAT_VERSION):
        raise FormatError(f"unsupported key file version {version!r}")

    values: dict[str, float] = {}
    for name in KEY_FIELDS:
        hex_field, dec_field = f"{name}.hex", f"{name}.dec"
        for field in (hex_field, dec_field):
            if field not in fields:
                raise FormatError(f"missing field {field}")
        try:
            v = hex_to_float(fields[hex_field])
        except ValueError:
            raise FormatError(f"field {hex_field}: invalid bit pattern") from None
        try:
            dec = float(fields[dec_field])
        except ValueError:
            raise FormatError(f"field {dec_field}: not a number") from None
        if dec != v:
            raise FormatError(f"field {name}: decimal and hex encodings disagree")
        values[name] = v

    try:
        return KeyRecord(**values)
    except InvalidInput as exc:
        raise FormatError(str(exc)) from None
