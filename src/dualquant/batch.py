"""One batch local-solve layer shared by errors, splitting and gradients.

``BatchSolver`` picks a path once per grid and serves many query rows:

* ``segments``: an ordered 1D grid brackets a query by its neighbours;
  rows just past an end, and for ``solve`` rows at a grid point, take
  the LP;
* ``simplicial``: a grid in d >= 2 under the Euclidean norm with p = 2
  uses the simplex of its ``delaunay.Mesh`` that contains the query;
  only rows near the hull, and for ``solve`` rows on a facet or in a
  tied cell past ``lp.TIE_BUDGET`` or the table cap ``TIE_TABLE_BYTES``,
  take the LP;
* ``lp``: every other setting, and a grid Qhull rejects or thins (flat,
  or a point too close to another), solves one LP per row.

Rows outside the grid's convex hull are handled here, once: they raise
SampleOutsideHullError, an InfeasibleError, unless the solver is
extended; then their nearest grid point serves them.  ``shard_reduce``
is the one loop that splits Monte Carlo work into numbered shards.

Ties: on a cospherical grid (any product grid) more than one simplex is
optimal at a row.  Every path answers with the LP's optimal basis (see
``lp._canonical_basis``), which ``simplicial`` finds in closed form.
``splitting`` and ``dq_solve_delaunay`` solve their points here too, so
``split``, ``cubature``, ``mc_gradient`` and ``train`` draw from one
basis by construction; ``cvlq_step`` keeps the LP as the reference.

Location: a row on a facet ends in any simplex holding it (see
``Mesh.find``); ``solve`` sends such rows to the LP, and ``values`` there
differ only by rounding.

Reuse: a solver for the same ``Grid`` object and ``(spec, extended)`` as
the last one takes over its path, so estimators called back to back on
one grid share its mesh and lazy tables.  The key is identity: grids
loaded separately do not share.  The one slot holds its grid, so a
recycled ``id()`` never matches, and keeps at most one mesh alive past
its call, tie table (``_cells``, at most ``TIE_TABLE_BYTES``)
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
from scipy.spatial import ConvexHull, cKDTree

from .delaunay import Mesh
from .errors import FlatGridError, InfeasibleError, SampleOutsideHullError
from .geometry import (EUCLIDEAN_QUADRATIC, Grid, NormSpec,
                       _affinely_independent, norm_value_batch)
from .lp import TIE_BUDGET, TOL, _solve

# The simplicial path leaves to the LP (whose tolerances are 1e-9) a row
# with a barycentric weight below FACET_TOL or outside the hull by less
# than FACET_TOL times the grid span.  The grid points within SPHERE_TOL
# (relative) of a simplex's circumsphere make up its cell.
FACET_TOL = 1e-7
SPHERE_TOL = 1e-8
# Cap on one solver's tie table (subsets and inverses, padded); cells
# past it take the LP, as cells with more than TIE_BUDGET subsets do.
TIE_TABLE_BYTES = 16 * 2 ** 20


def _row_min(w: np.ndarray) -> np.ndarray:
    """``w.min(axis=1)``, NaN included, by columns: numpy reduces slowly
    along a short axis (50 000 x 3: 2.5 ms against 0.09 ms)."""
    m = w[:, 0].copy()
    for k in range(1, w.shape[1]):
        np.minimum(m, w[:, k], out=m)
    return m


@dataclass(frozen=True)
class BatchSolution:
    """Local solutions of many query rows, one row per query.

    ``basis`` (N, d+1) lists the optimal simplex in ascending grid index
    on every path and ``weights`` holds the barycentric weights aligned
    with it; ``u1`` (N, d) is the spatial dual.  An exterior row is the
    one-point simplex at its nearest grid point: basis repeats that
    index, weights are (1, 0, ..., 0) and u1 is zero.  ``nearest`` holds
    that index for exterior rows and -1 for interior ones; exact distance
    ties take the smallest index, as ``splitting.nn_project`` does.
    ``tied`` flags the rows whose LP solution is not strictly
    complementary: more than one optimal simplex, or a zero weight.
    Exterior rows are untied.
    """

    basis: np.ndarray
    weights: np.ndarray
    u1: np.ndarray
    nearest: np.ndarray
    tied: np.ndarray


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


class _PerRowLP:
    """One LP per row; the basis is sorted by grid index."""

    name = "lp"

    def __init__(self, grid: Grid, spec: NormSpec, extended: bool):
        self.grid, self.spec, self.extended = grid, spec, extended

    def _solutions(self, X):
        sols, tied = [None] * len(X), np.zeros(len(X), dtype=bool)
        for i, x in enumerate(X):
            try:
                sols[i], tied[i] = _solve(self.grid, x, self.spec)
            except InfeasibleError:
                if not self.extended:
                    break  # the rows left unsolved count as exterior
        return np.array([s is not None for s in sols], dtype=bool), sols, tied

    def values(self, X):
        inside, sols, _ = self._solutions(X)
        return inside, np.array([0.0 if s is None else s.value for s in sols])

    def solve(self, X):
        inside, sols, tied = self._solutions(X)
        N, d = X.shape
        basis = np.zeros((N, d + 1), dtype=np.intp)
        weights = np.zeros((N, d + 1))
        u1 = np.zeros((N, d))
        for i, s in enumerate(sols):
            if s is not None:
                basis[i], weights[i], u1[i] = s.basis, s.weights, s.u_spatial
        return inside, basis, weights, u1, tied

    def nearest(self, X):
        P = self.grid.points
        j = np.empty(len(X), dtype=np.intp)
        dist = np.empty(len(X))
        # blocks of rows bound the rows x points x d differences at 2^20
        step = max(1, 2 ** 20 // P.size)
        for start in range(0, len(X), step):
            rows = slice(start, start + step)
            dists = norm_value_batch(X[rows, None, :] - P[None], self.spec)
            j[rows] = np.argmin(dists, axis=1)
            dist[rows] = dists[np.arange(len(dists)), j[rows]]
        return j, dist


class _Segments(_PerRowLP):
    """1D grid, sorted once: the pair of neighbours bracketing the row.
    Rows outside the grid by less than FACET_TOL times its span take the
    LP, whose tolerance may still hold them, and so, for ``solve``, do
    rows at a grid point, where the LP's basis is not the bracketing
    pair."""

    name = "segments"

    def __init__(self, grid: Grid, spec: NormSpec, extended: bool):
        super().__init__(grid, spec, extended)
        self.order = np.argsort(grid.points[:, 0], kind="stable")
        self.xs = grid.points[self.order, 0]
        self.p = spec.p
        self.band = FACET_TOL * (self.xs[-1] - self.xs[0])

    def _inside(self, X: np.ndarray):
        """Rows inside the grid's ends, and rows just outside them."""
        x, lo, hi = X[:, 0], self.xs[0], self.xs[-1]
        inside = (x >= lo) & (x <= hi)
        return inside, ~inside & (x >= lo - self.band) & (x <= hi + self.band)

    def values(self, X):
        inside, lp = self._inside(X)
        vals = np.empty(len(X))
        vals[inside] = _segment_values(self.xs, X[inside, 0], self.p)
        if lp.any():
            inside[lp], vals[lp] = super().values(X[lp])
        return inside, vals

    def solve(self, X):
        inside, lp = self._inside(X)
        xs, x = self.xs, X[inside, 0]
        j = np.clip(np.searchsorted(xs, x, side="right"), 1, len(xs) - 1)
        left, right, gap = x - xs[j - 1], xs[j] - x, xs[j] - xs[j - 1]
        basis = np.zeros((len(X), 2), dtype=np.intp)
        weights = np.zeros((len(X), 2))
        u1 = np.zeros((len(X), 1))
        tied = np.zeros(len(X), dtype=bool)  # a bracketing pair is unique
        pair = np.column_stack([self.order[j - 1], self.order[j]])
        w = np.column_stack([right / gap, left / gap])
        swap = pair[:, 0] > pair[:, 1]  # list the pair by grid index
        pair[swap], w[swap] = pair[swap, ::-1], w[swap, ::-1]
        basis[inside], weights[inside] = pair, w
        # the dual line through both costs: u1 = slope of |x_i - xi|^p
        u1[inside, 0] = (right ** self.p - left ** self.p) / gap
        lp[inside] = (left == 0) | (right == 0)  # at a grid point
        if lp.any():
            (inside[lp], basis[lp], weights[lp], u1[lp],
             tied[lp]) = super().solve(X[lp])
        return inside, basis, weights, u1, tied

    def nearest(self, X):
        end = np.where(X[:, 0] < self.xs[0], 0, -1)
        return self.order[end], np.abs(X[:, 0] - self.xs[end]) ** self.p


class _Simplicial(_PerRowLP):
    """Qhull Delaunay path for d >= 2, Euclidean norm with p = 2.  The
    basis is the Delaunay simplex holding the row, sorted by grid index,
    and F^2 = r^2 - |xi - z|^2 on its circumsphere (z, r).  A tied simplex
    answers by the LP's rule: the lexicographically first (d+1)-subset of
    its cell, the grid points on its sphere, that holds the row.  Rows
    near the hull or on a facet, and cells past TIE_BUDGET or the
    TIE_TABLE_BYTES cap, take the LP.  The geometry is ``self.mesh``'s,
    on centred points."""

    name = "simplicial"

    def __init__(self, grid: Grid, extended: bool):
        super().__init__(grid, EUCLIDEAN_QUADRATIC, extended)
        mesh = self.mesh = Mesh(grid.points)
        self.tree = cKDTree(mesh.Pc)
        self.spread = float(np.max(np.abs(mesh.Pc))) or 1.0  # as in unit_frame
        r2 = mesh.spheres[1]  # the ball holds the points on the sphere
        self.ball = np.sqrt(r2 + SPHERE_TOL * np.maximum(r2, mesh.span ** 2))

    @cached_property
    def hull(self):
        """Facet planes of the convex hull, for rows outside the mesh."""
        return ConvexHull(self.mesh.Pc).equations

    def _locate(self, X):
        """Located simplex (0 outside), centred rows, and row masks:
        ``doubt``, where only the LP can tell inside from outside (near
        the hull, a flat simplex), and the clearly exterior rows."""
        d, Xc = X.shape[1], X - self.mesh.center
        s = self.mesh.find(Xc)
        out = s < 0
        near = out.copy()
        if out.any():
            with np.errstate(invalid="ignore"):  # inf - inf: NaN, exterior
                dist = Xc[out] @ self.hull[:, :d].T + self.hull[:, d]
            near[out] = np.max(dist, axis=1) <= FACET_TOL * self.mesh.span
        t = np.maximum(s, 0)
        return t, Xc, near | (~out & self.mesh.spheres[2][t]), out & ~near

    def _inverses(self, bases, ok=None):
        """Inverse extended matrices [P; 1] of index rows ``bases``, in units
        of the spread; NaN where ``ok`` (default: the LP's rank test) fails.
        Each matrix is tested and inverted on its own, so blocks of 4096
        give the same bits and hold the peak near the result's size."""
        d1 = bases.shape[-1]
        flat = bases.reshape(-1, d1)
        ok = None if ok is None else np.reshape(ok, -1)
        inverse = np.full((len(flat), d1, d1), np.nan)
        for start in range(0, len(flat), 4096):
            rows = slice(start, start + 4096)
            B = flat[rows]
            M = np.concatenate([self.mesh.Pc[B] / self.spread,
                                np.ones(B.shape + (1,))], axis=-1)
            k = _affinely_independent(M) if ok is None else ok[rows]
            inverse[rows][k] = np.linalg.inv(np.swapaxes(M[k], -1, -2))
        return inverse.reshape(bases.shape + (d1,))

    @cached_property
    def _sorted(self):
        """Per simplex, its vertices by grid index and their inverse."""
        verts = np.sort(self.mesh.qhull.simplices, axis=1)
        return verts, self._inverses(verts, ~self.mesh.spheres[2])

    @cached_property
    def tied_simplex(self):
        """Flat, or more than d+1 grid points on the sphere."""
        z, _, flat = self.mesh.spheres
        on_sphere = self.tree.query_ball_point(
            np.nan_to_num(z), np.nan_to_num(self.ball), return_length=True)
        return flat | (on_sphere > self.grid.dim + 1)

    @cached_property
    def _cells(self):
        """Cell id per simplex (-1: untied, past TIE_BUDGET, or not admitted
        to the table); per cell its (d+1)-subsets, lexicographic, padded
        with point 0, and inverses.  Cells are admitted in simplex order
        until the next one would take the padded table past
        TIE_TABLE_BYTES; the rest go to the LP."""
        z, _, flat = self.mesh.spheres
        d, tied = self.grid.dim, np.flatnonzero(self.tied_simplex & ~flat)
        row_bytes = 8 * (d + 1) * (d + 2)  # one padded subset and inverse
        ids, K, full = {}, 0, False
        cell_of = np.full(len(z), -1)
        for t, cell in zip(tied, self.tree.query_ball_point(
                z[tied], self.ball[tied], return_sorted=True)):
            key, k = tuple(cell), comb(len(cell), d + 1)
            if key not in ids and k <= TIE_BUDGET and not full:
                full = (len(ids) + 1) * max(K, k) * row_bytes > TIE_TABLE_BYTES
                if not full:
                    ids[key], K = len(ids), max(K, k)
            cell_of[t] = ids.get(key, -1)
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
            hit = _row_min(wk) >= -TOL
            basis[live[hit]], w[live[hit]] = bases[c[live[hit]], k], wk[hit]
            live = live[~hit]
        return basis, w

    def values(self, X):
        t, Xc, lp, exterior = self._locate(X)
        z, r2, _ = self.mesh.spheres
        # np.take gathers in a half to a tenth of z[t]'s time; keep the
        # einsum: a per-column sum of squares rounds differently in d = 3
        D = Xc - np.take(z, t, axis=0)
        vals = np.maximum(np.take(r2, t) - np.einsum("ij,ij->i", D, D), 0.0)
        inside = ~exterior
        if lp.any():
            inside[lp], vals[lp] = super().values(X[lp])
        return inside, vals

    def solve(self, X):
        t, Xc, doubt, exterior = self._locate(X)
        verts, inverse = self._sorted
        Xu = np.column_stack([Xc / self.spread, np.ones(len(X))])
        basis = np.take(verts, t, axis=0)
        w = np.einsum("nij,nj->ni", np.take(inverse, t, axis=0), Xu)
        u1 = 2.0 * (np.take(self.mesh.spheres[0], t, axis=0) - Xc)
        inside = ~exterior
        lp = doubt | (inside & ~(_row_min(w) >= FACET_TOL))  # NaN too
        tie = inside & ~lp & self.tied_simplex[t]
        if tie.any():
            basis[tie], w[tie] = self._first_holding(t[tie], Xu[tie])
            lp |= tie & ~(_row_min(w) >= FACET_TOL)
        if lp.any():
            (inside[lp], basis[lp], w[lp], u1[lp],
             tie[lp]) = super().solve(X[lp])
        return inside, basis, w, u1, tie

    def nearest(self, X):
        Xc = X - self.mesh.center
        dist, j = self.tree.query(Xc)
        d2 = dist ** 2
        # a row with another point within rounding of its nearest distance
        # takes the smallest index by caller-coordinate distances
        slack = 1e-9 * (dist + self.mesh.span)
        tie = self.tree.query_ball_point(Xc, dist + slack,
                                         return_length=True) > 1
        if tie.any():
            j[tie], d2[tie] = super().nearest(X[tie])
        return j, d2


def _pick(grid: Grid, spec: NormSpec, extended: bool):
    if grid.dim == 1 and grid.n >= 2:
        return _Segments(grid, spec, extended)
    if grid.dim >= 2 and grid.n > grid.dim and spec.is_euclidean_quadratic:
        try:
            return _Simplicial(grid, extended)
        except FlatGridError:  # rejected or dropped points
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

    def _exterior(self, X: np.ndarray, inside: np.ndarray):
        if not self.extended:
            raise SampleOutsideHullError(
                "a point lies outside the convex hull of the grid; the "
                "extended variants serve it by its nearest grid point")
        return self._path.nearest(X[~inside])

    def values(self, X: np.ndarray) -> np.ndarray:
        """F^p (extended beyond the hull when enabled) at each row of X."""
        inside, vals = self._path.values(X)
        if not np.all(inside):
            vals[~inside] = self._exterior(X, inside)[1]
        return vals

    def solve(self, X: np.ndarray) -> BatchSolution:
        """Optimal simplex, weights and spatial dual at each row of X."""
        inside, basis, weights, u1, tied = self._path.solve(X)
        nearest = np.full(len(X), -1, dtype=np.intp)
        if not np.all(inside):
            j, _ = self._exterior(X, inside)
            out = ~inside
            nearest[out], basis[out], u1[out] = j, j[:, None], 0.0
            tied[out] = False
            weights[out] = np.eye(1, weights.shape[1])
        return BatchSolution(basis, weights, u1, nearest, tied)


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
