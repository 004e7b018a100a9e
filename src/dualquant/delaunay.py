"""Delaunay meshes and the planar quadratic Euclidean fast path.

For the Euclidean norm with p = 2 the optimal LP basis at xi is the
Delaunay simplex containing xi, the spatial dual is 2(z - xi) with z
its circumcenter, and the local error obeys

    F^2(xi) = r^2 - ||z - xi||^2

on the containing simplex.  ``batch_values`` and ``dq_solve_delaunay``
are ``BatchSolver``'s extended values and one-row solve on a grid.

``Mesh`` builds every grid's Delaunay mesh, for ``batch`` in any d >= 2
and for ``triangulate``: Qhull (``scipy.spatial.Delaunay``) on centred
points, with the fixed options ``Qbb Qc Qz Q12`` (scipy adds ``Qt``)
and never ``QJ``, so no joggle enters the mesh.  ``triangulate`` puts
the triangles in canonical order and resolves near-cocircular quads
toward the diagonal with the lexicographically smallest sorted index
pair, by a tolerance-aware in-circle predicate in the caller's
coordinates; the triangulation is deterministic for a fixed point order.

``batch_solve`` locates rows in a ``Triangulation`` by testing every
triangle, with an edge slack relative to the grid's diameter, and gives
the lowest-indexed triangle that holds a row; it serves only ``locate``
and ``hull_mask``, and no solve or estimator reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import ceil

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .errors import FlatGridError
from .geometry import EUCLIDEAN_QUADRATIC, Grid, NormSpec
from .lp import LocalSolution

# Relative scale factor for treating an in-circle determinant as zero.
COCIRCULAR_EPS = 1e-12
# Edge containment slack for location, relative to the grid's diameter.
EDGE_TOL = 1e-9
# Row-edge pairs per block of batch_solve: 512 KiB per temporary.
LOCATE_BLOCK = 2 ** 16
QHULL_OPTIONS = "Qbb Qc Qz Q12"
# Rows reach Qhull's walk in bucket order only in a batch of at least
# SORT_MIN_ROWS rows, on a mesh with at least SORT_MIN_BUCKETS buckets per
# axis.  Ordering costs about 10 us a call and 30-40 ns a row; walking a
# row in the given order costs more the larger the mesh.  Per row, with
# numpy 2.4's one-thread build on a 2-vCPU Xeon, given order against
# bucket order on uniform rows: 256 rows on a 64-point grid (117
# simplices) 73 against 87 ns, 512 rows 77 against 60; on 2042 simplices
# 128 rows 216 against 230, 256 rows 331 against 158; on 8186 simplices
# 64 rows 478 against 477, 4096 rows 1027 against 123.  A 3x3 product
# grid (6 buckets per axis) breaks even near 1024 rows, while a triangle
# or a square (2 or 3 per axis) never does: 16 384 rows 22 against 32 ns.
SORT_MIN_BUCKETS = 4
SORT_MIN_ROWS = 256


class Mesh:
    """The Delaunay mesh of a grid in d >= 2: Qhull on the centred
    points ``Pc = points - center``, so an offset costs no precision, and
    ``span``, the diameter of the points' box.  A grid Qhull rejects
    (flat, too few points) or thins (a point too close to another)
    raises FlatGridError."""

    def __init__(self, points):
        P = np.asarray(points, dtype=float)
        self.center = P.mean(axis=0)
        Pc = self.Pc = P - self.center
        try:
            self.qhull = Delaunay(Pc, qhull_options=QHULL_OPTIONS)
        except QhullError as exc:
            reason = str(exc).strip().splitlines()[0]
            raise FlatGridError(
                f"grid points do not span R^{P.shape[1]} ({reason})") from exc
        if len(self.qhull.coplanar):
            raise FlatGridError(
                "grid points too close to tell apart: Qhull left point "
                f"{int(self.qhull.coplanar[0, 0])} out of the triangulation")
        self.span = float(np.sqrt(np.sum(np.ptp(P, axis=0) ** 2)))
        # about four buckets per simplex, m per axis, numbered in uint16
        d, T = P.shape[1], len(self.qhull.simplices)
        m = min(ceil((4 * T) ** (1 / d)), int(2 ** (16 / d)))
        lo, hi = Pc.min(axis=0), Pc.max(axis=0)
        self.buckets = (lo, hi, m / (hi - lo), m)

    @cached_property
    def spheres(self):
        """Per simplex its circumcentre z (centred), squared radius r2,
        and ``flat``, true where Qhull's transform is NaN and so are z
        and r2; computed on first use."""
        Pc, d = self.Pc, self.Pc.shape[1]
        # z = r + y, r the last vertex: 2 (x_j - r).y = |x_j - r|^2
        T, S = self.qhull.transform, self.qhull.simplices
        y = 0.5 * np.einsum("tji,tj->ti", T[:, :d],
                            np.sum((Pc[S[:, :d]] - T[:, d, None]) ** 2, axis=2))
        r2 = np.sum(y * y, axis=1)
        return T[:, d] + y, r2, ~np.isfinite(r2)

    def find(self, Xc):
        """Qhull's simplex per centred row, -1 outside.

        Qhull's ``find_simplex`` walks from where the previous row's walk
        ended, so a batch of at least ``SORT_MIN_ROWS`` rows is handed
        over in snake order of about four buckets per simplex over the
        points' box (a radix sort on a uint16 key; rows outside the box
        count in its edge buckets) and the answers are scattered back.
        A row strictly inside a simplex gets that simplex from any walk.
        A row on a facet ends in one of the simplices holding it, and
        which one hangs on the row walked before it, in any order.
        Smaller batches and meshes with fewer than ``SORT_MIN_BUCKETS``
        buckets per axis keep the given order, where sorting costs more
        than it saves."""
        if self.buckets[3] < SORT_MIN_BUCKETS or len(Xc) < SORT_MIN_ROWS:
            return self.qhull.find_simplex(Xc)
        order = np.argsort(self._bucket_key(Xc), kind="stable")  # radix sort
        # np.take gathers in about a tenth of Xc[order]'s time
        found = self.qhull.find_simplex(np.take(Xc, order, axis=0))
        s = np.empty_like(found)
        s[order] = found
        return s

    def _bucket_key(self, Xc):
        """Per centred row, its uint16 bucket number in snake order.  The
        row is clamped to the box before it is scaled, so no row, however
        large, overflows; NaN counts in the last bucket of its axis.  One
        column at a time, with scalar bounds: an (N, d) op (d,) broadcast
        runs numpy's inner loop over the short axis, at about 3.5 times
        the cost for the same bits."""
        lo, hi, scale, m = self.buckets
        key = None
        for a in range(Xc.shape[1]):  # odd prefixes run backwards
            cell = np.maximum(Xc[:, a], lo[a])  # np.clip, then in place
            np.minimum(cell, hi[a], out=cell)
            cell -= lo[a]
            cell *= scale[a]
            cell = np.fmin(cell, m - 1, out=cell).astype(np.uint16)  # NaN: m-1
            key = cell if key is None else (
                key * m + np.where(key & 1, m - 1 - cell, cell))
        return key


def orient2d(ax, ay, bx, by, cx, cy) -> float:
    """Twice the signed area of (a, b, c); positive when CCW.

    Coordinates may be floats or equal-length arrays (one triangle each).
    """
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def incircle_det(pa, pb, pc, pd) -> float:
    """In-circle determinant: positive iff pd lies strictly inside the
    circumcircle of the CCW triangle (pa, pb, pc).  Points are (x, y)
    pairs, or (2, m) arrays for m quads at once."""
    adx, ady = pa[0] - pd[0], pa[1] - pd[1]
    bdx, bdy = pb[0] - pd[0], pb[1] - pd[1]
    cdx, cdy = pc[0] - pd[0], pc[1] - pd[1]
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    return (
        alift * (bdx * cdy - cdx * bdy)
        + blift * (cdx * ady - adx * cdy)
        + clift * (adx * bdy - bdx * ady)
    )


def incircle_eps(pa, pb, pc, pd) -> float:
    """Magnitude scale of the in-circle determinant times the relative
    epsilon; determinants below this are treated as cocircular.  Both
    scale as length^4, so the test does not depend on units."""
    adx, ady = abs(pa[0] - pd[0]), abs(pa[1] - pd[1])
    bdx, bdy = abs(pb[0] - pd[0]), abs(pb[1] - pd[1])
    cdx, cdy = abs(pc[0] - pd[0]), abs(pc[1] - pd[1])
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    perm = (
        alift * (bdx * cdy + cdx * bdy)
        + blift * (cdx * ady + adx * cdy)
        + clift * (adx * bdy + bdx * ady)
    )
    return COCIRCULAR_EPS * perm


@dataclass
class Triangulation:
    """Triangle soup with adjacency over a fixed point array.

    ``triangles[t]`` is CCW with the smallest vertex index first;
    ``neighbors[t][k]`` is the triangle across the edge opposite vertex
    k of triangle t, or -1 on the hull boundary.  The triangle list is
    sorted lexicographically, so indices are canonical for the input.
    ``grid`` is the grid it triangulates and ``mesh`` the Qhull mesh it
    came from.
    """

    points: np.ndarray
    triangles: list[tuple[int, int, int]]
    neighbors: list[tuple[int, int, int]]
    grid: Grid = field(repr=False, compare=False)
    mesh: Mesh = field(repr=False, compare=False)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)


def _canonical_triangles(P, tris):
    """Orient each triple CCW, rotate it to start at its smallest vertex,
    sort the rows, and build the adjacency table; both (T, 3) arrays."""
    tris = np.array(tris, dtype=np.intp)
    # enforce CCW with the exact sign of the area
    a, b, c = (P[tris[:, k]].T for k in range(3))
    cw = orient2d(*a, *b, *c) < 0
    tris[cw] = tris[cw][:, [0, 2, 1]]
    first = np.argmin(tris, axis=1)[:, None]
    tris = np.take_along_axis(tris, (first + np.arange(3)) % 3, axis=1)
    tris = tris[np.lexsort(tris.T[::-1])]
    # the directed edge opposite vertex k is (v[k+1], v[k+2]); the
    # neighbor across it holds the reverse edge
    n = len(P)
    head, tail = tris[:, [1, 2, 0]].ravel(), tris[:, [2, 0, 1]].ravel()
    keys = head * n + tail
    order = np.argsort(keys)
    want = tail * n + head
    pos = np.minimum(np.searchsorted(keys[order], want), len(keys) - 1)
    found = keys[order[pos]] == want
    neighbors = np.where(found, order[pos] // 3, -1).reshape(-1, 3)
    return tris, neighbors


def triangulate(grid: Grid) -> Triangulation:
    """Delaunay triangulation of a 2D grid (Qhull, then canonical ties)."""
    if grid.dim != 2:
        raise ValueError("triangulate expects a two-dimensional grid")
    pts = grid.points
    mesh = Mesh(pts)
    tris, nbrs = _resolve_cocircular_diagonals(
        pts, *_canonical_triangles(pts, mesh.qhull.simplices))
    return Triangulation(pts, list(map(tuple, tris.tolist())),
                         list(map(tuple, nbrs.tolist())), grid, mesh)


def _resolve_cocircular_diagonals(P, tris, nbrs):
    """Flip near-cocircular quads toward the smallest sorted diagonal.

    Each round tests every interior edge at once, flips the quads that
    call for it (in scan order, skipping a quad that shares a triangle
    with an earlier flip) and re-canonicalizes; a round with no flip
    ends the pass.
    """
    for _ in range(4 * len(tris) + 4):
        t1, e = np.nonzero(nbrs > np.arange(len(tris))[:, None])
        t2 = nbrs[t1, e]
        c, a, b = tris[t1, e], tris[t1, (e + 1) % 3], tris[t1, (e + 2) % 3]
        d = tris[t2].sum(axis=1) - a - b
        quad = [P[tris[t1, k]].T for k in range(3)] + [P[d].T]
        det, eps = incircle_det(*quad), incircle_eps(*quad)
        lo_cd, hi_cd = np.minimum(c, d), np.maximum(c, d)
        lo_ab, hi_ab = np.minimum(a, b), np.maximum(a, b)
        smaller = (lo_cd < lo_ab) | ((lo_cd == lo_ab) & (hi_cd < hi_ab))
        flip = (np.abs(det) <= eps) & smaller
        # a strictly convex quad is required for a valid flip
        pc, pd = P[c].T, P[d].T
        flip &= (np.sign(orient2d(*pc, *pd, *P[a].T))
                 * np.sign(orient2d(*pc, *pd, *P[b].T)) < 0)
        if not flip.any():
            break
        used, new = set(), []
        for q in np.flatnonzero(flip):
            if t1[q] in used or t2[q] in used:
                continue
            used.update((t1[q], t2[q]))
            new += [(c[q], d[q], a[q]), (d[q], c[q], b[q])]
        keep = np.ones(len(tris), dtype=bool)
        keep[list(used)] = False
        tris, nbrs = _canonical_triangles(P, np.vstack([tris[keep], new]))
    return tris, nbrs


def locate(tri: Triangulation, xi) -> int | None:
    """Index of the triangle containing xi, or None when xi is outside:
    the one-row answer of ``batch_solve``, ties included."""
    t = batch_solve(tri, np.asarray(xi, dtype=float).reshape(1, 2))[0][0]
    return None if t < 0 else int(t)


def dq_solve_delaunay(grid: Grid, xi, spec: NormSpec) -> LocalSolution:
    """Local solution at xi (l2, p = 2): the one-row answer of
    ``BatchSolver.solve`` on ``grid``, ties included, with u2 from the
    basis; a point outside the hull raises SampleOutsideHullError."""
    from .batch import BatchSolver  # batch imports this module

    if not spec.is_euclidean_quadratic:
        raise ValueError("the Delaunay fast path requires the Euclidean norm with p = 2")
    if grid.dim != 2:
        raise ValueError("the Delaunay fast path is two-dimensional")
    xi = np.asarray(xi, dtype=float)
    sol = BatchSolver(grid, spec).solve(xi.reshape(1, 2))
    basis, lam, u1 = sol.basis[0], sol.weights[0], sol.u1[0]
    P = grid.points[basis]
    u2 = float(np.sum((xi - P[0]) ** 2) - P[0] @ u1)
    value = float(lam @ np.sum((xi[None, :] - P) ** 2, axis=1))
    return LocalSolution(xi, tuple(int(i) for i in basis), lam,
                         np.concatenate([u1, [u2]]), value)


def hull_mask(tri: Triangulation, X) -> np.ndarray:
    """Boolean mask of rows of X inside (or on) the hull of the points:
    the rows that ``batch_solve`` locates in a triangle."""
    return batch_solve(tri, X)[0] >= 0


def batch_values(tri: Triangulation, X) -> np.ndarray:
    """F^2 at each row of X by ``BatchSolver`` on the triangulated grid,
    extended: a row outside the hull gets its nearest point's value."""
    from .batch import BatchSolver  # batch imports this module

    solver = BatchSolver(tri.grid, EUCLIDEAN_QUADRATIC, extended=True)
    return solver.values(np.asarray(X, dtype=float))


def batch_solve(tri: Triangulation, X):
    """Containing triangle and barycentric weights for each row of X.

    Returns (tidx, lam).  tidx[i] is the lowest-indexed triangle of
    ``tri.triangles`` whose three edges all hold row i: the row lies on
    the edge's inner side within its slack, ``EDGE_TOL`` times the grid's
    diameter ``mesh.span`` times the edge's L1 length, in the mesh's
    centred coordinates.  tidx[i] == -1 (lam zero) marks a row no
    triangle holds.  A row held only within the slack of edge k, the
    edge opposite vertex k of (a, b, c), can get lam[i, k] down to
    -slack_k / orient2d(a, b, c).  Every row is tested against every
    triangle, in blocks of rows, so a call costs O(rows x triangles),
    and the result for a row does not depend on the other rows of X.
    """
    X = np.asarray(X, dtype=float)
    P, mesh = tri.points, tri.mesh
    tris = np.asarray(tri.triangles, dtype=np.intp)
    T, tidx = len(tris), np.empty(X.shape[0], dtype=np.intp)
    # edge k of triangle t, opposite its vertex k and directed CCW, is
    # column k T + t: origin o, vector e, and minus its slack
    o = mesh.Pc[tris[:, [1, 2, 0]].T].reshape(-1, 2)
    e = mesh.Pc[tris[:, [2, 0, 1]].T].reshape(-1, 2) - o
    floor = -EDGE_TOL * mesh.span * (np.abs(e[:, 0]) + np.abs(e[:, 1]))
    Xc, step = X - mesh.center, max(1, LOCATE_BLOCK // (3 * T))
    for start in range(0, X.shape[0], step):
        x, y = Xc[start:start + step, :1], Xc[start:start + step, 1:]
        side = (y - o[:, 1]) * e[:, 0]
        side -= (x - o[:, 0]) * e[:, 1]
        held = side >= floor
        held = held[:, :T] & held[:, T:2 * T] & held[:, 2 * T:]
        tidx[start:start + step] = np.where(held.any(axis=1),
                                            np.argmax(held, axis=1), -1)
    rows = np.flatnonzero(tidx >= 0)
    a, b, c = (P[tris[tidx[rows], k]].T for k in range(3))
    x = X[rows].T
    area = orient2d(*a, *b, *c)
    w0 = orient2d(*x, *b, *c) / area
    w1 = orient2d(*a, *x, *c) / area
    lam = np.zeros((X.shape[0], 3))
    lam[rows] = np.column_stack([w0, w1, 1.0 - w0 - w1])
    return tidx, lam
