"""List the lines of src/chaocrypt/ that the test suite never runs.

Runs the tests in this process under the standard library's `trace` module,
so no coverage package is needed, and prints each executable line of the
package that never ran as `chaocrypt/<module>.py:<line>`, then the count on
stderr.  It is a report, not a gate: it exits 0 whatever the tests or the
lines.  Arguments go to pytest; by default it runs all of tests/.

    python3 tools/uncovered.py            # about 75 s on a 2-core Xeon
    python3 tools/uncovered.py tests/test_cli.py

A line run only in a child process (`python -m chaocrypt.cli`) is not seen.
`__init__.py` is left out: `trace` decides once per module base name
whether to ignore a file, and the first `__init__` it meets is one under
sys.prefix, so the package's own would always be listed.  It holds only
imports and `__version__`.
"""

from __future__ import annotations

import dis
import os
import sys
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chaocrypt"


def executable_lines(path: Path) -> set[int]:
    """The lines that start an instruction in the module or any code object
    nested in it: the lines a `trace` count can ever hold."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    import pytest

    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.base_prefix])
    tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    ran: dict[Path, set[int]] = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    missed = [
        f"chaocrypt/{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for line in sorted(executable_lines(path) - ran.get(path.resolve(), set()))
    ]
    for line in missed:
        print(line)
    print(f"{len(missed)} lines of src/chaocrypt never ran", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
