"""One batch local-solve layer shared by errors, splitting and gradients.

``BatchSolver`` picks a path once per grid and serves many query rows:

* an ordered 1D grid brackets each query by its two neighbours;
* a planar grid under the Euclidean norm with p = 2 uses the Delaunay
  triangle that contains the query;
* a grid in d >= 3 under the Euclidean norm with p = 2 uses the Qhull
  Delaunay simplex that contains the query; only rows near the hull,
  and for ``solve`` rows with more than one optimal basis, take the LP;
* every other setting, and a grid Qhull rejects or thins (flat, or a
  point too close to another), solves one LP per row.

Rows outside the convex hull of the grid are handled here, once: they
raise SampleOutsideHullError unless the solver is extended, in which
case they are served by their nearest grid point.  ``shard_reduce`` is
the one loop that splits Monte Carlo work into numbered shards.

Ties: on a cocircular grid more than one simplex is optimal at a row.
The planar path answers with the triangle of the canonical
triangulation, so ``cubature.weights``, ``optimnd.mc_gradient`` and
``optimnd.train`` use it; ``lp.local_dq_solve``, ``splitting.split``,
``optimnd.cvlq_step`` and the d >= 3 path answer with the LP's
lexicographically smallest basis.  The value is the same either way
(on a 5 x 5 product grid, 192 of 400 random rows get another basis and
the values agree to 7e-18).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree

from .delaunay import (QHULL_OPTIONS, batch_solve, batch_values, hull_mask,
                       incircle_det, incircle_eps, triangulate)
from .errors import FlatGridError, InfeasibleError, SampleOutsideHullError
from .geometry import EUCLIDEAN_QUADRATIC, Grid, NormSpec, norm_value_batch
from .lp import local_dq_solve

# The simplicial path leaves to the LP (whose tolerances are 1e-9) a row
# with a barycentric weight below FACET_TOL or outside the hull by less
# than FACET_TOL times the grid span, and a row in a simplex with another
# grid point within SPHERE_TOL (relative) of its circumsphere.
FACET_TOL = 1e-7
SPHERE_TOL = 1e-8


@dataclass(frozen=True)
class BatchSolution:
    """Local solutions of many query rows, one row per query.

    ``basis`` (N, d+1) lists the optimal simplex in the path's own vertex
    order and ``weights`` holds the barycentric weights aligned with it;
    ``u1`` (N, d) is the spatial dual.  An exterior row is the one-point
    simplex at its nearest grid point: basis repeats that index, weights
    are (1, 0, ..., 0) and u1 is zero.  ``nearest`` holds that index for
    exterior rows and -1 for interior ones.
    """

    basis: np.ndarray
    weights: np.ndarray
    u1: np.ndarray
    nearest: np.ndarray


def _segment_values(xs: np.ndarray, x: np.ndarray, p: float) -> np.ndarray:
    """F^p on the convex hull of an ordered 1D grid, vectorized.

    The optimal pair brackets the query as tightly as possible: the pair
    value u*v*(u^{p-1}+v^{p-1})/(u+v) grows in each gap width, and basic
    LP solutions in 1D carry at most two atoms.
    """
    j = np.clip(np.searchsorted(xs, x, side="right"), 1, len(xs) - 1)
    u = x - xs[j - 1]
    v = xs[j] - x
    if p == 2:
        return u * v
    return (v * u**p + u * v**p) / (u + v)


class _Segments:
    """Ordered 1D grid: the bracketing pair, in increasing position."""

    name = "segments"

    def __init__(self, grid: Grid, spec: NormSpec):
        self.order = np.argsort(grid.points[:, 0], kind="stable")
        self.xs = grid.points[self.order, 0]
        self.p = spec.p

    def _inside(self, X: np.ndarray) -> np.ndarray:
        x = X[:, 0]
        return (x >= self.xs[0]) & (x <= self.xs[-1])

    def values(self, X):
        inside = self._inside(X)
        vals = np.empty(len(X))
        vals[inside] = _segment_values(self.xs, X[inside, 0], self.p)
        return inside, vals

    def solve(self, X):
        inside = self._inside(X)
        xs, x = self.xs, X[inside, 0]
        j = np.clip(np.searchsorted(xs, x, side="right"), 1, len(xs) - 1)
        left, right, gap = x - xs[j - 1], xs[j] - x, xs[j] - xs[j - 1]
        basis = np.zeros((len(X), 2), dtype=np.intp)
        weights = np.zeros((len(X), 2))
        u1 = np.zeros((len(X), 1))
        basis[inside] = np.column_stack([self.order[j - 1], self.order[j]])
        weights[inside] = np.column_stack([right / gap, left / gap])
        # the dual line through both costs: u1 = slope of |x_i - xi|^p
        u1[inside, 0] = (right ** self.p - left ** self.p) / gap
        return inside, basis, weights, u1

    def nearest(self, X):
        end = np.where(X[:, 0] < self.xs[0], 0, -1)
        return self.order[end], np.abs(X[:, 0] - self.xs[end]) ** self.p


class _Planar:
    """Planar Delaunay path for the Euclidean norm with p = 2."""

    name = "planar"

    def __init__(self, grid: Grid, extended: bool):
        self.tri = triangulate(grid)
        self.triangles = np.asarray(self.tri.triangles, dtype=np.intp)
        self.tree = cKDTree(grid.points) if extended else None

    def values(self, X):
        vals = np.maximum(batch_values(self.tri, X), 0.0)
        return hull_mask(self.tri, X), vals

    def solve(self, X):
        tidx, lam = batch_solve(self.tri, X)
        inside = tidx >= 0
        z, _ = self.tri.power_data()
        t = np.where(inside, tidx, 0)
        return inside, self.triangles[t], lam, 2.0 * (z[t] - X)

    def nearest(self, X):
        dist, j = self.tree.query(X)
        return j, dist ** 2

    def tied(self, X):
        """Rows located in a triangle with a cocircular neighbour vertex."""
        tidx, _ = batch_solve(self.tri, X)
        tris, nbrs = self.triangles, np.asarray(self.tri.neighbors)
        # the neighbour across edge k holds that edge and one more vertex
        far = np.where(nbrs >= 0, tris[nbrs].sum(axis=2)
                       - tris.sum(axis=1)[:, None] + tris, tris)
        P = self.tri.points.T
        quad = [P[:, tris[:, k:k + 1]] for k in range(3)] + [P[:, far]]
        tie = (nbrs >= 0) & (np.abs(incircle_det(*quad)) <= incircle_eps(*quad))
        return (tidx >= 0) & tie.any(axis=1)[tidx]


class _PerRowLP:
    """One LP per row; the basis is sorted by grid index."""

    name = "lp"

    def __init__(self, grid: Grid, spec: NormSpec, extended: bool):
        self.grid = grid
        self.spec = spec
        self.extended = extended

    def _solutions(self, X):
        sols = [None] * len(X)
        for i, x in enumerate(X):
            try:
                sols[i] = local_dq_solve(self.grid, x, self.spec)
            except InfeasibleError:
                if not self.extended:
                    break  # the rows left unsolved count as exterior
        return np.array([s is not None for s in sols], dtype=bool), sols

    def values(self, X):
        inside, sols = self._solutions(X)
        return inside, np.array([0.0 if s is None else s.value for s in sols])

    def solve(self, X):
        inside, sols = self._solutions(X)
        N, d = X.shape
        basis = np.zeros((N, d + 1), dtype=np.intp)
        weights = np.zeros((N, d + 1))
        u1 = np.zeros((N, d))
        for i, s in enumerate(sols):
            if s is not None:
                basis[i], weights[i], u1[i] = s.basis, s.weights, s.u_spatial
        return inside, basis, weights, u1

    def nearest(self, X):
        dists = norm_value_batch(X[:, None, :] - self.grid.points[None],
                                 self.spec)
        j = np.argmin(dists, axis=1)
        return j, dists[np.arange(len(X)), j]


class _Simplicial(_PerRowLP):
    """Qhull Delaunay path for d >= 3, Euclidean norm with p = 2: the
    optimal basis is the Delaunay simplex containing the row, sorted by
    grid index like the LP's.  Rows near the hull take the LP; so do
    rows in a tied simplex or on a facet when the basis is asked for,
    since the LP keeps the lexicographically smallest one.  Geometry
    runs on centred coordinates, so an offset grid loses no precision."""

    name = "simplicial"

    def __init__(self, grid: Grid, extended: bool):
        super().__init__(grid, EUCLIDEAN_QUADRATIC, extended)
        P, d = grid.points, grid.dim
        self.center = P.mean(axis=0)
        Pc = P - self.center
        self.qhull = Delaunay(Pc, qhull_options=QHULL_OPTIONS)
        if len(self.qhull.coplanar):
            raise FlatGridError("Qhull left a grid point out of the mesh")
        self.hull = ConvexHull(Pc).equations
        self.tree = cKDTree(Pc)
        # circumcentre z = r + y, r the last vertex: 2 (x_j - r).y = |x_j - r|^2
        T, S = self.qhull.transform, self.qhull.simplices
        y = 0.5 * np.einsum("tji,tj->ti", T[:, :d],
                            np.sum((Pc[S[:, :d]] - T[:, d, None]) ** 2, axis=2))
        self.z, r2 = T[:, d] + y, np.sum(y * y, axis=1)
        span2 = float(np.sum(np.ptp(P, axis=0) ** 2))
        self.span = np.sqrt(span2)
        # tied: more than the d+1 vertices within the sphere's slack;
        # flat simplices (NaN transforms) count as tied
        on_sphere = np.full(len(S), d + 2)
        ok = np.isfinite(r2)
        slack = SPHERE_TOL * np.maximum(r2, span2)
        on_sphere[ok] = self.tree.query_ball_point(
            self.z[ok], np.sqrt(r2 + slack)[ok], return_length=True)
        self.tied_simplex = on_sphere > d + 1

    def _locate(self, X):
        """Located simplex (-1 outside) with basis and weights sorted by
        grid index, and row masks: ``doubt``, where only the LP can tell
        inside from outside (near the hull, NaN weights); ``tie``, where
        the basis is not unique (a tied simplex, a facet) but the value
        is; and the clearly exterior rows."""
        d, Xc = X.shape[1], X - self.center
        s = self.qhull.find_simplex(Xc)
        t = np.maximum(s, 0)
        T = self.qhull.transform[t]
        c = np.einsum("nij,nj->ni", T[:, :d], Xc - T[:, d])
        w = np.column_stack([c, 1.0 - c.sum(axis=1)])
        order = np.argsort(self.qhull.simplices[t], axis=1)
        basis = np.take_along_axis(self.qhull.simplices[t], order, axis=1)
        w = np.take_along_axis(w, order, axis=1)
        out = s < 0
        near = out.copy()
        near[out] = np.max(Xc[out] @ self.hull[:, :d].T + self.hull[:, d],
                           axis=1) <= FACET_TOL * self.span
        doubt = near | (~out & np.isnan(w).any(axis=1))
        tie = ~out & (self.tied_simplex[t] | (w.min(axis=1) < FACET_TOL))
        return s, basis, w, doubt, tie, out & ~near

    def values(self, X):
        _, basis, w, lp, _, exterior = self._locate(X)
        cost = np.sum((X[:, None, :] - self.grid.points[basis]) ** 2, axis=2)
        vals, inside = np.sum(w * cost, axis=1), ~exterior
        if lp.any():
            inside[lp], vals[lp] = super().values(X[lp])
        return inside, vals

    def solve(self, X):
        s, basis, w, doubt, tie, exterior = self._locate(X)
        u1, inside = 2.0 * (self.z[s] - (X - self.center)), ~exterior
        lp = doubt | tie
        if lp.any():
            inside[lp], basis[lp], w[lp], u1[lp] = super().solve(X[lp])
        return inside, basis, w, u1

    def nearest(self, X):
        dist, j = self.tree.query(X - self.center)
        return j, dist ** 2

    def tied(self, X):
        """Rows located in a tied simplex."""
        s = self.qhull.find_simplex(X - self.center)
        return (s >= 0) & self.tied_simplex[s]


class BatchSolver:
    """Local solutions of the dual quantization LP for batches of rows.

    The path (ordered 1D, planar Delaunay, Qhull Delaunay in d >= 3, or
    one LP per row) is chosen here, from the grid and the norm alone,
    and nowhere else.  Without ``extended`` a row outside the hull
    raises SampleOutsideHullError; with it, the row is served by its
    nearest grid point, whose value is the p-th power distance.
    """

    def __init__(self, grid: Grid, spec: NormSpec, extended: bool = False):
        self.extended = extended
        if grid.dim == 1 and grid.n >= 2:
            self._path = _Segments(grid, spec)
        elif (grid.dim >= 2 and grid.n > grid.dim
              and spec.is_euclidean_quadratic):
            mesh = _Planar if grid.dim == 2 else _Simplicial
            try:
                self._path = mesh(grid, extended)
            except (QhullError, FlatGridError):  # rejected or dropped points
                self._path = _PerRowLP(grid, spec, extended)
        else:
            self._path = _PerRowLP(grid, spec, extended)

    @property
    def path(self) -> str:
        """The path serving rows: "segments", "planar", "simplicial" or "lp"."""
        return self._path.name

    def tied(self, X: np.ndarray) -> np.ndarray | None:
        """Rows in a Delaunay simplex with another grid point on its
        circumsphere (None on the paths without a Delaunay mesh)."""
        tied = getattr(self._path, "tied", None)
        return None if tied is None else tied(X)

    def _exterior(self, X: np.ndarray, inside: np.ndarray):
        if not self.extended:
            raise SampleOutsideHullError(
                "a sample fell outside the grid hull; "
                "use the extended variant instead")
        return self._path.nearest(X[~inside])

    def values(self, X: np.ndarray) -> np.ndarray:
        """F^p (extended beyond the hull when enabled) at each row of X."""
        inside, vals = self._path.values(X)
        if not np.all(inside):
            vals[~inside] = self._exterior(X, inside)[1]
        return vals

    def solve(self, X: np.ndarray) -> BatchSolution:
        """Optimal simplex, weights and spatial dual at each row of X."""
        inside, basis, weights, u1 = self._path.solve(X)
        nearest = np.full(len(X), -1, dtype=np.intp)
        if not np.all(inside):
            j, _ = self._exterior(X, inside)
            out = ~inside
            nearest[out] = j
            basis[out] = j[:, None]
            weights[out] = 0.0
            weights[out, 0] = 1.0
            u1[out] = 0.0
        return BatchSolution(basis, weights, u1, nearest)


def shard_reduce(n: int, chunk: int, threads: int, fn):
    """Sum ``fn(shard, size)`` over the shards of n items.

    Shard k covers ``size`` = min(chunk, n - k*chunk) items.  ``fn``
    returns a tuple of numbers or arrays; the tuples are added
    componentwise in shard order, so the result is bit-identical for any
    thread count.
    """
    sizes = [min(chunk, n - start) for start in range(0, n, chunk)]
    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(fn, range(len(sizes)), sizes))
    else:
        parts = [fn(k, size) for k, size in enumerate(sizes)]
    total = parts[0]
    for part in parts[1:]:
        total = tuple(a + b for a, b in zip(total, part))
    return total
