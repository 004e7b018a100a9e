"""Import hygiene, in place of a linter: every name a package module
imports is used in that module or exported through its ``__all__``, and
only ``delaunay`` imports Qhull's Delaunay mesh builder."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dualquant"
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


def test_only_delaunay_builds_meshes():
    # every grid's Delaunay mesh is built by delaunay.Mesh
    importers = {
        path.name for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.spatial"
        and {"Delaunay", "QhullError"} & {alias.name for alias in node.names}}
    assert importers == {"delaunay.py"}
