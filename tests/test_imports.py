"""Every name a chaocrypt module imports is used in that module.

No linter ships with the test dependencies, so this walks each module's
syntax tree instead.  `__init__.py` is skipped: its imports are the
package's public re-exports.
"""

import ast
from pathlib import Path

import chaocrypt

PACKAGE = Path(chaocrypt.__file__).parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"chaocrypt.{path.stem}:{line}:{name}" for name, line in imported.items() if name not in used]


def test_every_module_uses_each_name_it_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)
