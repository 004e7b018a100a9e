"""One batch local-solve layer shared by errors, splitting and gradients.

``BatchSolver`` picks a path once per grid and serves many query rows:

* ``segments``: an ordered 1D grid brackets a query by its neighbours;
* ``simplicial``: a grid in d >= 2 under the Euclidean norm with p = 2
  uses the Qhull Delaunay simplex that contains the query; only rows
  near the hull, and for ``solve`` rows on a facet or in a tied cell
  past ``lp.TIE_BUDGET``, take the LP;
* ``lp``: every other setting, and a grid Qhull rejects or thins (flat,
  or a point too close to another), solves one LP per row.

Rows outside the convex hull of the grid are handled here, once: they
raise SampleOutsideHullError unless the solver is extended, in which
case they are served by their nearest grid point.  ``shard_reduce`` is
the one loop that splits Monte Carlo work into numbered shards.

Ties: on a cospherical grid (any product grid) more than one simplex is
optimal at a row.  Every path answers with the LP's lexicographically
smallest optimal basis, which ``simplicial`` finds in closed form, so
``cubature``, ``mc_gradient`` and ``train`` pick from the basis that
``splitting.split`` and ``cvlq_step`` draw from.

Reuse: a solver for the same ``Grid`` object and ``(spec, extended)`` as
the last one takes over its path, so estimators called back to back on
one grid share its mesh and lazy tables.  The key is identity: grids
loaded separately do not share.  The one slot holds its grid, so a
recycled ``id()`` never matches, and keeps at most one mesh alive past
its call, tie tables (``_cells``: tens of MB on 4D product grids)
included; a memo on each ``Grid`` would keep one per grid a caller
holds.  No lock: paths never change results; a stale read costs a rebuild.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError, cKDTree

from .delaunay import QHULL_OPTIONS
from .errors import FlatGridError, InfeasibleError, SampleOutsideHullError
from .geometry import EUCLIDEAN_QUADRATIC, Grid, NormSpec, norm_value_batch
from .lp import TIE_BUDGET, TOL, _affinely_independent, local_dq_solve

# The simplicial path leaves to the LP (whose tolerances are 1e-9) a row
# with a barycentric weight below FACET_TOL or outside the hull by less
# than FACET_TOL times the grid span.  The grid points within SPHERE_TOL
# (relative) of a simplex's circumsphere make up its cell.
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


class _PerRowLP:
    """One LP per row; the basis is sorted by grid index."""

    name = "lp"

    def __init__(self, grid: Grid, spec: NormSpec, extended: bool):
        self.grid, self.spec, self.extended = grid, spec, extended

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
    """Qhull Delaunay path for d >= 2, Euclidean norm with p = 2.  The
    basis is the Delaunay simplex holding the row, sorted by grid index,
    and F^2 = r^2 - |xi - z|^2 on its circumsphere (z, r).  A tied simplex
    answers by the LP's rule: the lexicographically first (d+1)-subset of
    its cell, the grid points on its sphere, that holds the row.  Rows
    near the hull or on a facet, and cells past TIE_BUDGET, take the LP.
    Geometry runs on centred points: an offset costs no precision."""

    name = "simplicial"

    def __init__(self, grid: Grid, extended: bool):
        super().__init__(grid, EUCLIDEAN_QUADRATIC, extended)
        P, d = grid.points, grid.dim
        self.center = P.mean(axis=0)
        Pc = self.Pc = P - self.center
        self.qhull = Delaunay(Pc, qhull_options=QHULL_OPTIONS)
        if len(self.qhull.coplanar):
            raise FlatGridError("Qhull left a grid point out of the mesh")
        self.tree = cKDTree(Pc)
        # circumcentre z = r + y, r the last vertex: 2 (x_j - r).y = |x_j - r|^2
        T, S = self.qhull.transform, self.qhull.simplices
        y = 0.5 * np.einsum("tji,tj->ti", T[:, :d],
                            np.sum((Pc[S[:, :d]] - T[:, d, None]) ** 2, axis=2))
        self.z, self.r2 = T[:, d] + y, np.sum(y * y, axis=1)
        self.flat = ~np.isfinite(self.r2)  # NaN transforms
        self.span = float(np.sqrt(np.sum(np.ptp(P, axis=0) ** 2)))
        self.spread = float(np.max(np.abs(Pc))) or 1.0  # as in unit_frame
        slack = SPHERE_TOL * np.maximum(self.r2, self.span ** 2)
        self.ball = np.sqrt(self.r2 + slack)  # holds the points on the sphere

    @cached_property
    def hull(self):
        """Facet planes of the convex hull, for rows outside the mesh."""
        return ConvexHull(self.Pc).equations

    def _locate(self, X):
        """Located simplex (0 outside), centred rows, and row masks:
        ``doubt``, where only the LP can tell inside from outside (near
        the hull, a flat simplex), and the clearly exterior rows."""
        d, Xc = X.shape[1], X - self.center
        s = self.qhull.find_simplex(Xc)
        out = s < 0
        near = out.copy()
        if out.any():
            near[out] = np.max(Xc[out] @ self.hull[:, :d].T + self.hull[:, d],
                               axis=1) <= FACET_TOL * self.span
        t = np.maximum(s, 0)
        return t, Xc, near | (~out & self.flat[t]), out & ~near

    def _inverses(self, bases, ok=None):
        """Inverse extended matrices [P; 1] of index rows ``bases``, in units
        of the spread; NaN where ``ok`` (default: the LP's rank test) fails."""
        M = np.concatenate([self.Pc[bases] / self.spread,
                            np.ones(bases.shape + (1,))], axis=-1)
        ok = _affinely_independent(M) if ok is None else ok
        inverse = np.full(M.shape, np.nan)
        inverse[ok] = np.linalg.inv(np.swapaxes(M[ok], -1, -2))
        return inverse

    @cached_property
    def _sorted(self):
        """Per simplex, its vertices by grid index and their inverse."""
        verts = np.sort(self.qhull.simplices, axis=1)
        return verts, self._inverses(verts, ~self.flat)

    @cached_property
    def tied_simplex(self):
        """Flat, or more than d+1 grid points on the sphere."""
        z, ball = np.nan_to_num(self.z), np.nan_to_num(self.ball)
        on_sphere = self.tree.query_ball_point(z, ball, return_length=True)
        return self.flat | (on_sphere > self.grid.dim + 1)

    @cached_property
    def _cells(self):
        """Cell id per simplex (-1: untied or past TIE_BUDGET); per cell its
        (d+1)-subsets, lexicographic, padded with point 0, and inverses."""
        d, tied = self.grid.dim, np.flatnonzero(self.tied_simplex & ~self.flat)
        ids, cell_of = {}, np.full(len(self.r2), -1)
        for t, cell in zip(tied, self.tree.query_ball_point(
                self.z[tied], self.ball[tied], return_sorted=True)):
            if comb(len(cell), d + 1) <= TIE_BUDGET:
                cell_of[t] = ids.setdefault(tuple(cell), len(ids))
        K = max((comb(len(cell), d + 1) for cell in ids), default=0)
        bases = np.zeros((len(ids), K, d + 1), dtype=np.intp)
        for c, cell in enumerate(ids):
            bases[c, :comb(len(cell), d + 1)] = list(combinations(cell, d + 1))
        return cell_of, bases, self._inverses(bases)

    def _first_holding(self, t, Xu):
        """Per unit-spread row [xi - centre, 1] in tied simplex t, the first
        subset of its cell that holds it within TOL; NaN weights if none."""
        cell_of, bases, inverse = self._cells
        c, live = cell_of[t], np.flatnonzero(cell_of[t] >= 0)
        basis, w = np.zeros(Xu.shape, dtype=np.intp), np.full(Xu.shape, np.nan)
        for k in range(bases.shape[1]):
            if not live.size:
                break
            wk = np.einsum("nij,nj->ni", inverse[c[live], k], Xu[live])
            hit = wk.min(axis=1) >= -TOL
            basis[live[hit]], w[live[hit]] = bases[c[live[hit]], k], wk[hit]
            live = live[~hit]
        return basis, w

    def values(self, X):
        t, Xc, lp, exterior = self._locate(X)
        D = Xc - self.z[t]
        vals = np.maximum(self.r2[t] - np.einsum("ij,ij->i", D, D), 0.0)
        inside = ~exterior
        if lp.any():
            inside[lp], vals[lp] = super().values(X[lp])
        return inside, vals

    def solve(self, X):
        t, Xc, doubt, exterior = self._locate(X)
        verts, inverse = self._sorted
        Xu = np.column_stack([Xc / self.spread, np.ones(len(X))])
        basis, w = verts[t], np.einsum("nij,nj->ni", inverse[t], Xu)
        u1, inside = 2.0 * (self.z[t] - Xc), ~exterior
        lp = doubt | (inside & ~(w.min(axis=1) >= FACET_TOL))  # NaN too
        tie = inside & ~lp & self.tied_simplex[t]
        if tie.any():
            basis[tie], w[tie] = self._first_holding(t[tie], Xu[tie])
            lp |= tie & ~(w.min(axis=1) >= FACET_TOL)
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


def _pick(grid: Grid, spec: NormSpec, extended: bool):
    if grid.dim == 1 and grid.n >= 2:
        return _Segments(grid, spec)
    if grid.dim >= 2 and grid.n > grid.dim and spec.is_euclidean_quadratic:
        try:
            return _Simplicial(grid, extended)
        except (QhullError, FlatGridError):  # rejected or dropped points
            pass
    return _PerRowLP(grid, spec, extended)


# (grid, (spec, extended), path) last built; see the module docstring.
_last = (None, None, None)


class BatchSolver:
    """Local solutions of the dual quantization LP for batches of rows.

    The path (ordered 1D, Qhull Delaunay in d >= 2, or one LP per row)
    is chosen here, from the grid and the norm alone, and nowhere else.
    Without ``extended`` a row outside the hull raises
    SampleOutsideHullError; with it, the row is served by its nearest
    grid point, whose value is the p-th power distance.
    """

    def __init__(self, grid: Grid, spec: NormSpec, extended: bool = False):
        global _last
        self.extended = extended
        last_grid, last_key, path = _last
        if last_grid is not grid or last_key != (spec, extended):
            path = _pick(grid, spec, extended)
            _last = (grid, (spec, extended), path)
        self._path = path

    @property
    def path(self) -> str:
        """The path serving rows: "segments", "simplicial" or "lp"."""
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
            nearest[out], basis[out], u1[out] = j, j[:, None], 0.0
            weights[out] = np.eye(1, weights.shape[1])
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
