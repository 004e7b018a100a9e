"""Import hygiene, in place of a linter: every name a package module
imports is used in that module or exported through its ``__all__``,
every top-level name is read somewhere in the package or timed by the
benchmark, every parameter of a package function but ``self`` and
``cls`` is read in that function's body, only ``delaunay`` imports
Qhull's Delaunay mesh builder, no other module calls its
O(rows x triangles) planar locator, each outside-the-hull error has
its one owner, and every optional parameter of a public function is set
by some caller outside the tests."""

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


# Optional parameters no caller sets that select another quantity, not
# another way to compute the same one.
MODES = {
    "metrics.dq_values_batch(extended)": "the extended functional",
    "cubature.weights_exact_1d(extended)": "the extended weights",
    "optim1d.gradient_1d(mode)": "the extended functional's gradient",
    "optim1d.hessian_1d(mode)": "the extended functional's Hessian",
    "metrics.scalar_bound(p)": "the bound of another error power",
    "metrics.theoretical_1d_uniform(p)": "the optimum of another power",
    "metrics.voronoi_1d_uniform_optimum(p)": "the optimum of another power",
    "optimnd.mc_gradient(return_std)": "the gradient's standard errors",
}


def _optional_parameters():
    """(function, parameter, position) of every defaulted parameter of a
    public top-level package function; position is None for a
    keyword-only parameter."""
    for path in MODULES:
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef) or fn.name[0] == "_":
                continue
            a = fn.args
            pos = a.posonlyargs + a.args
            first = len(pos) - len(a.defaults)
            for i, p in enumerate(pos[first:], first):
                yield f"{path.stem}.{fn.name}", p.arg, i
            for p, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{path.stem}.{fn.name}", p.arg, None


def _callee(node):
    return getattr(node, "id", getattr(node, "attr", None))


def _calls():
    """(callee name, positional count, keyword names) of every call in
    the package, the demos and the benchmark.  perfbench's
    ``Runner.api(rep, stage, key, fn, *args, **kw)`` forwards its
    arguments to fn; a starred argument counts as any number, and a
    ``**`` splat (keyword None) as any keyword."""
    for path in [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name, args = _callee(node.func), node.args
            if name == "api" and len(args) >= 4:
                name, args = _callee(args[3]), args[4:]
            starred = any(isinstance(a, ast.Starred) for a in args)
            yield (name, float("inf") if starred else len(args),
                   {k.arg for k in node.keywords})


def test_every_optional_parameter_is_set_by_a_caller():
    calls = list(_calls())
    unset = [f"{fn}({param})" for fn, param, pos in _optional_parameters()
             if not any(name == fn.split(".")[1]
                        and ({param, None} & kw
                             or pos is not None and pos < n_pos)
                        for name, n_pos, kw in calls)]
    assert sorted(unset) == sorted(MODES)
