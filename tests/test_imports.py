"""Every name a chaocrypt module imports is used in that module, every
private module-level name is used somewhere in the package, each
InvalidInput message is raised at one place in the package, and no CLI
command returns a value.

No linter ships with the test dependencies, so this walks each module's
syntax tree instead.  `__init__.py` is skipped by the import check: its
imports are the package's public re-exports.
"""

import ast
from pathlib import Path

import chaocrypt

PACKAGE = Path(chaocrypt.__file__).parent


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unused_imports(path: Path) -> list[str]:
    tree = _tree(path)
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


def _private_definitions(tree: ast.Module):
    """(name, node) for each function, class or constant the module body
    defines under a name with one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _unreferenced_private_names(paths: list[Path]) -> list[str]:
    trees = {path: _tree(path) for path in paths}
    references: dict[str, list[tuple[Path, int]]] = {}  # name -> where it is read
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                references.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                references.setdefault(node.attr, []).append((path, node.lineno))
    dead = []
    for path, tree in trees.items():
        for name, node in _private_definitions(tree):
            # A use inside the definition itself (recursion) does not count.
            outside = [
                (where, line) for where, line in references.get(name, [])
                if where != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                dead.append(f"chaocrypt.{path.stem}:{node.lineno}:{name}")
    return dead


def test_every_module_uses_each_name_it_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_every_private_module_level_name_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    dead = _unreferenced_private_names(modules)
    assert not dead, "private and never used:\n" + "\n".join(dead)


def _invalid_input_sites(paths: list[Path]) -> dict[str, list[str]]:
    """The source of the first argument of each `raise InvalidInput(...)` ->
    the `module:line` of every raise that gives it."""
    sites: dict[str, list[str]] = {}
    for path in paths:
        for node in ast.walk(_tree(path)):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name) and exc.func.id == "InvalidInput":
                sites.setdefault(ast.unparse(exc.args[0]), []).append(f"{path.stem}:{node.lineno}")
    return sites


def test_each_invalid_input_message_is_raised_at_one_site():
    # A rule checked twice raises its message twice; the check that runs
    # first is the one a caller sees, and the other is dead weight.
    sites = _invalid_input_sites(sorted(PACKAGE.glob("*.py")))
    assert sites
    repeated = [f"{message} at {', '.join(where)}" for message, where in sites.items() if len(where) > 1]
    assert not repeated, "raised at more than one site:\n" + "\n".join(repeated)


def test_cli_commands_return_nothing():
    # cli.main alone turns a run into its exit code: a command that fails
    # raises, and one that returns has succeeded.
    tree = _tree(PACKAGE / "cli.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = [
        keyword.value.id
        for node in ast.walk(functions["_build_parser"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "set_defaults"
        for keyword in node.keywords
        if keyword.arg == "func"
    ]
    assert len(commands) == 8
    returning = [
        f"cli:{node.lineno}:{name}"
        for name in commands
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Return) and node.value is not None
    ]
    assert not returning, "a command returns a value:\n" + "\n".join(returning)
