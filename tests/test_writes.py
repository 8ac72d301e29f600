"""Exactly one function in the package creates files: keyfile.write_atomic.

Every output goes through it, so every output is made the same way: a new
0600 temp file renamed into place.  This walks each module's syntax tree,
as tests/test_imports.py does, and lists every file-creating call outside
that function as module:line.  File-creating calls are `open` with a "w",
"a" or "x" mode (or a mode that is not a literal), `write_text`,
`write_bytes`, `os.open` and `mkstemp`.
"""

import ast
from pathlib import Path

import chaocrypt

PACKAGE = Path(chaocrypt.__file__).parent
WRITER = ("keyfile", "write_atomic")


def _name(func: ast.expr) -> str:
    """The called name: os.open as "os.open", open(...) and x.open(...) as "open"."""
    if isinstance(func, ast.Attribute):
        if func.attr == "open" and isinstance(func.value, ast.Name) and func.value.id == "os":
            return "os.open"
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _creates_a_file(call: ast.Call) -> bool:
    name = _name(call.func)
    if name in ("os.open", "write_text", "write_bytes", "mkstemp"):
        return True
    if name != "open":
        return False
    # open(file, mode) as a function; path.open(mode) as a method.
    position = 1 if isinstance(call.func, ast.Name) else 0
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    if len(call.args) > position:
        modes.append(call.args[position])
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode chosen at run time may create the file
    return bool(set(mode.value) & set("wax"))


def _file_creating_calls(tree: ast.Module, module: str) -> list[str]:
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (module, node.name) == WRITER:
            allowed = {id(inner) for inner in ast.walk(node)}
    return [
        f"chaocrypt.{module}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _creates_a_file(node) and id(node) not in allowed
    ]


def test_the_checker_finds_each_kind_of_file_creating_call():
    source = "\n".join(
        [
            "open(p, 'w')",
            "open(p, mode='ab')",
            "open(p, 'x')",
            "open(p, m)",
            "path.open('w')",
            "Path(p).write_text(s)",
            "p.write_bytes(b)",
            "os.open(p, flags)",
            "tempfile.mkstemp()",
            "mkstemp(dir=d)",
            "open(p)",
            "open(p, 'rb')",
            "path.open()",
            "p.read_text()",
            "def write_atomic(path, chunks):\n    open(fd, 'wb')",
        ]
    )
    found = _file_creating_calls(ast.parse(source), "keyfile")
    assert found == [f"chaocrypt.keyfile:{line}" for line in range(1, 11)]


def test_only_write_atomic_creates_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        entry
        for path in modules
        for entry in _file_creating_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert not found, "creates a file outside keyfile.write_atomic:\n" + "\n".join(found)
