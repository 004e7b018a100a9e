"""Import hygiene, in place of a linter: every name a package module
imports is used in that module or exported through its ``__all__``,
every top-level name is read somewhere in the package or timed by the
benchmark, and only ``delaunay`` imports Qhull's Delaunay mesh
builder."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dualquant"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = set(_imported(tree)) - used - _exported(tree)
    assert sorted(unused) == []


def _spans():
    """perfbench's SPANS, the names it times per layer, read as a literal."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["SPANS"])


def _defined(tree):
    """Top-level functions, classes and assigned names, but __all__."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id != "__all__":
                        yield name.id


def _read(tree):
    """Names a module loads, reads as attributes, or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_name_is_read(path):
    read = {name for module in SRC.glob("*.py")
            for name in _read(ast.parse(module.read_text()))}
    timed = set(_spans().get(path.stem, ()))
    dead = set(_defined(ast.parse(path.read_text()))) - read - timed
    assert sorted(dead) == []


def test_only_delaunay_builds_meshes():
    # every grid's Delaunay mesh is built by delaunay.Mesh
    importers = {
        path.name for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.spatial"
        and {"Delaunay", "QhullError"} & {alias.name for alias in node.names}}
    assert importers == {"delaunay.py"}
