"""Source hygiene of the package, read from its syntax trees: no imported
name goes unused, every import sits at module level, where it runs once and
not on every call, no check is a bare `assert`, which `python -O`
strips and which escapes the CLI as a traceback instead of exit code 2,
the integer kernels make no true division, which on two ints would
silently give a float, and no top-level function is dead code."""

import ast
from pathlib import Path

import pytest

import gptlab

MODULES = sorted(Path(gptlab.__file__).parent.glob("*.py"))
# the package's own imports are its public surface, used or not
INTERNAL = [path for path in MODULES if path.name != "__init__.py"]
INTEGER_KERNELS = [path for path in MODULES if path.name in ("cones.py", "lp.py")]
# a benchmark tracer target kept for its counters until the tracer drops it
UNCALLED = {"cones.reduce_generators"}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level or nested import binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
    return names


@pytest.mark.parametrize("path", INTERNAL, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}; raise InternalCheckError instead"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    tree = ast.parse(path.read_text())
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    lines = sorted(
        {
            node.lineno
            for scope in ast.walk(tree)
            if isinstance(scope, scopes)
            for node in ast.walk(scope)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )
    assert not lines, f"{path.name}: import inside a function or class at lines {lines}"


@pytest.mark.parametrize("path", INTEGER_KERNELS, ids=lambda p: p.name)
def test_integer_kernels_make_no_true_division(path):
    tree = ast.parse(path.read_text())
    lines = sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        }
    )
    assert not lines, f"{path.name}: true division at lines {lines}; use // on exact multiples or Fraction"


def _references(tree: ast.AST) -> list[str]:
    """Every name the tree loads, bare or as an attribute."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    ]


def test_every_function_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    loaded = [name for tree in trees.values() for name in _references(tree)]
    exported = set(_imported(trees.pop("__init__")))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name in exported:
                continue
            calls = loaded.count(node.name) - _references(node).count(node.name)
            if calls == 0 and f"{module}.{node.name}" not in UNCALLED:
                dead.append(f"{module}.{node.name}")
    assert not dead, f"functions nothing in the package calls or exports: {dead}"
