"""Import hygiene, in place of a linter: every name a package module
imports is used in that module or exported through its ``__all__``,
every top-level name is read somewhere in the package or timed by the
benchmark, every parameter of a package function but ``self`` and
``cls`` is read in that function's body, only ``delaunay`` imports
Qhull's Delaunay mesh builder, no other module calls its
O(rows x triangles) planar locator, and each outside-the-hull error has
its one owner."""

import ast
from pathlib import Path

import pytest

from dualquant.errors import InfeasibleError, SampleOutsideHullError

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                  + [a.vararg, a.kwarg] if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{fn.name}({name})" for name in params
                   if name not in read and name not in ("self", "cls")]
    assert unread == []


def test_only_delaunay_builds_meshes():
    # every grid's Delaunay mesh is built by delaunay.Mesh
    importers = {
        path.name for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.spatial"
        and {"Delaunay", "QhullError"} & {alias.name for alias in node.names}}
    assert importers == {"delaunay.py"}


def test_no_module_calls_the_planar_locator():
    # batch_solve tests every triangle per row, which only a caller
    # outside the solves (perfbench's layer timings) may afford
    locator = {"batch_solve", "locate", "hull_mask"}
    callers = {
        path.name for path in SRC.glob("*.py") if path.name != "delaunay.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in locator}
    assert sorted(callers) == []


def test_outside_the_hull_is_decided_once():
    # the LP owns InfeasibleError, and a batch solve or an estimator
    # raises its SampleOutsideHullError; single-point callers re-raise
    # neither, they solve through BatchSolver
    assert issubclass(SampleOutsideHullError, InfeasibleError)
    raisers = {name: set() for name in ("InfeasibleError",
                                         "SampleOutsideHullError")}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id",
                                                      None) in raisers:
                raisers[node.func.id].add(path.name)
    assert raisers == {"InfeasibleError": {"lp.py"},
                       "SampleOutsideHullError": {"batch.py", "metrics.py"}}
