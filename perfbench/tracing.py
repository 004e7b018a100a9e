"""In-memory spans around calls into the dualquant layers.

Nothing inside the package changes: ``instrument`` swaps the public
functions named in ``SPANS`` for recording wrappers in every dualquant
module namespace that holds them, and puts the originals back on exit.
A span carries a name, start, end, parent and run id; spans opened in
MC shard threads take the main thread's open span as their parent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import itertools
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Public functions timed per layer.  Hot inner predicates (orient2d,
# incircle_*) and norm helpers are left out on purpose: they run
# thousands of times per triangulation or LP solve, and a wrapper there
# would cost more than the work it measures.
SPANS = {
    "lp": ("local_dq_solve", "local_dq_value", "local_dq_value_extended",
           "enumerate_bases_oracle", "is_nondegenerate",
           "optimality_region_contains"),
    "geometry": ("load_grid", "save_grid", "circumcenter",
                 "in_convex_hull", "is_affine_basis"),
    "splitting": ("split", "split_extended", "split_many", "interpolate",
                  "nn_project"),
    "delaunay": ("triangulate", "locate", "dq_solve_delaunay", "hull_mask",
                 "batch_values", "batch_solve"),
    "metrics": ("mc_dq_error", "mc_voronoi_error", "dq_values_batch",
                "exact_1d_dq_error", "exact_1d_voronoi_error",
                "product_grid", "rate_fit"),
    "cubature": ("weights", "second_order_report", "expect",
                 "weights_exact_1d"),
    "optimnd": ("train", "refine", "mc_gradient", "cvlq_step"),
    "optim1d": ("newton_solve", "gradient_1d", "hessian_1d"),
    "distributions": ("parse_distribution", "make_uniform_box",
                      "make_normal", "make_exponential", "make_bm_sup"),
    "rng": (),
    "cli": ("main",),
}
LAYERS = tuple(SPANS)


def points_digest(points) -> str:
    """Short content hash of a point array, to tell grids apart."""
    arr = np.ascontiguousarray(np.asarray(points, dtype=float))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


@dataclasses.dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    attrs: dict

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``dump`` returns them for writing out."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # first span in a shard thread: hang it under the caller
            parent = self._main_stack[-1] if self._main_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def close(self, sid, parent, stack, name, start, attrs) -> None:
        end = perf_counter()
        stack.pop()
        self.spans.append(Span(sid, parent, name, start, end, attrs))

    @contextmanager
    def span(self, name: str, **attrs):
        sid, parent, stack = self.open()
        start = perf_counter()
        try:
            yield
        finally:
            self.close(sid, parent, stack, name, start, attrs)

    def wrap(self, name: str, fn, attrs_of=None):
        def wrapper(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of else {}
            sid, parent, stack = self.open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid, parent, stack, name, start, attrs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> dict:
        return {"run_id": self.run_id,
                "spans": [dataclasses.asdict(s) for s in self.spans]}


def _grid_attrs(args, kwargs) -> dict:
    grid = args[0] if args else kwargs.get("grid")
    pts = getattr(grid, "points", grid)
    pts = np.asarray(pts, dtype=float)
    return {"n": int(pts.shape[0]), "dim": int(pts.shape[1]),
            "grid": points_digest(pts)}


def _dim_attrs(args, kwargs) -> dict:
    grid = args[0] if args else kwargs.get("grid")
    return {"dim": int(grid.dim), "n": int(grid.n)}


_ATTRS = {"delaunay.triangulate": _grid_attrs,
          "lp.local_dq_solve": _dim_attrs}


@contextmanager
def instrument(tracer: Tracer):
    """Route the SPANS functions (plus Grid construction, RngStream
    substreams and distribution samplers) through ``tracer``."""
    layer_mods = {layer: importlib.import_module(f"dualquant.{layer}")
                  for layer in LAYERS}
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "dualquant"
                                     or name.startswith("dualquant."))]
    undo = []

    def swap_everywhere(orig, repl):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, repl)
                    undo.append((mod, attr, orig))

    for layer, names in SPANS.items():
        for fname in names:
            orig = getattr(layer_mods[layer], fname)
            span_name = f"{layer}.{fname}"
            wrapped = tracer.wrap(span_name, orig, _ATTRS.get(span_name))
            if layer == "distributions":
                wrapped = _sampling(tracer, wrapped)
            swap_everywhere(orig, wrapped)

    for cls, meth, span_name in (
            (layer_mods["geometry"].Grid, "__init__", "geometry.Grid"),
            (layer_mods["rng"].RngStream, "substream", "rng.substream")):
        orig = vars(cls)[meth]
        setattr(cls, meth, tracer.wrap(span_name, orig))
        undo.append((cls, meth, orig))
    try:
        yield tracer
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)


def _sampling(tracer: Tracer, make):
    """Wrap a distribution factory so its specs time their sampler."""

    def rows(args, kwargs):
        return {"rows": int(args[1]) if len(args) > 1 else 0}

    def factory(*args, **kwargs):
        spec = make(*args, **kwargs)
        if hasattr(spec.sampler, "__wrapped__"):  # factory called a factory
            return spec
        return dataclasses.replace(
            spec, sampler=tracer.wrap("distributions.sample", spec.sampler,
                                      rows))

    return factory


# --- span arithmetic ---------------------------------------------------------


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (shard threads overlap)."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    kids: dict[int, list[Span]] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return {s.id: s.duration - covered([(c.start, c.end)
                                        for c in kids.get(s.id, ())])
            for s in spans}


def layer_self_seconds(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s.layer in out:
            out[s.layer] += own[s.id]
    return out


def outermost_total(spans: list[Span], name: str) -> tuple[float, int]:
    """Inclusive seconds and count of ``name`` spans not nested in one
    of the same name (recursion would otherwise count twice)."""
    by_id = {s.id: s for s in spans}
    total, count = 0.0, 0
    for s in spans:
        if s.name != name:
            continue
        count += 1
        p = by_id.get(s.parent)
        while p is not None and p.name != name:
            p = by_id.get(p.parent)
        if p is None:
            total += s.duration
    return total, count


def nearest_ancestor(spans_by_id: dict[int, Span], span: Span,
                     names: set[str]) -> Span | None:
    p = spans_by_id.get(span.parent)
    while p is not None and p.name not in names:
        p = spans_by_id.get(p.parent)
    return p
