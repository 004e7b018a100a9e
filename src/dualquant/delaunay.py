"""Delaunay meshes and the planar quadratic Euclidean fast path.

For the Euclidean norm with p = 2 the optimal LP basis at xi is the
Delaunay simplex containing xi, the spatial dual is 2(z - xi) with z
its circumcenter, and the local error obeys

    F^2(xi) = r^2 - ||z - xi||^2

on the containing simplex.  ``batch_values`` is ``BatchSolver``'s
extended evaluator on a triangulation's grid.

``Mesh`` builds every grid's Delaunay mesh, for ``batch`` in any d >= 2
and for ``triangulate``: Qhull (``scipy.spatial.Delaunay``) on centred
points, with the fixed options ``Qbb Qc Qz Q12`` (scipy adds ``Qt``)
and never ``QJ``, so no joggle enters the mesh.  ``triangulate`` puts
the triangles in canonical order and resolves near-cocircular quads
toward the diagonal with the lexicographically smallest sorted index
pair, by a tolerance-aware in-circle predicate in the caller's
coordinates; the triangulation is deterministic for a fixed point order.

Planar point location has one implementation, the walk of
``batch_solve``, with an edge slack relative to the grid's diameter;
``locate`` and ``hull_mask`` read its answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import ceil

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .errors import FlatGridError, InfeasibleError
from .geometry import EUCLIDEAN_QUADRATIC, Grid, NormSpec, circumcenter
from .lp import LocalSolution

# Relative scale factor for treating an in-circle determinant as zero.
COCIRCULAR_EPS = 1e-12
# Edge containment slack for location, relative to the grid's diameter.
EDGE_TOL = 1e-9
QHULL_OPTIONS = "Qbb Qc Qz Q12"
# Rows reach Qhull's walk in bucket order only in a batch with more rows
# than the mesh has simplices, on a mesh with at least SORT_MIN_BUCKETS
# buckets per axis.  Ordering costs about 9 us a call; per row, with
# numpy 2.4's one-thread build on a 2-vCPU Xeon, given order against
# bucket order: 64 rows, 64-point 2D grid (122 simplices) 99 against
# 242 ns; 16 384 rows, 2x2 product grid (3 buckets per axis) 54 against
# 56 ns, 4x4 (6 per axis) 79 against 56 ns.
SORT_MIN_BUCKETS = 4


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
        # about one bucket per simplex, m per axis, numbered in uint16
        d, T = P.shape[1], len(self.qhull.simplices)
        m = min(ceil(T ** (1 / d)), int(2 ** (16 / d)))
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
        ended, so a batch with more rows than the mesh has simplices is
        handed over in snake order of about one bucket per simplex over
        the points' box (a radix sort on a uint16 key; rows outside the
        box count in its edge buckets) and the answers are scattered
        back.  A row strictly inside a simplex gets that simplex from any
        walk.  A row on a facet ends in one of the simplices holding it,
        and which one hangs on the row walked before it, in any order.
        Small batches and meshes with fewer than ``SORT_MIN_BUCKETS``
        buckets per axis keep the given order, where sorting costs more
        than it saves."""
        if (self.buckets[3] < SORT_MIN_BUCKETS
                or len(Xc) <= len(self.qhull.simplices)):
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
        large, overflows; NaN counts in the last bucket of its axis."""
        lo, hi, scale, m = self.buckets
        cell = np.maximum(Xc, lo)  # np.clip(Xc, lo, hi), then in place
        np.minimum(cell, hi, out=cell)
        cell -= lo
        cell *= scale
        cell = np.fmin(cell, m - 1, out=cell).astype(np.uint16)  # NaN: m-1
        key = cell[:, 0]
        for a in range(1, Xc.shape[1]):  # odd prefixes run backwards
            key = key * m + np.where(key & 1, m - 1 - cell[:, a], cell[:, a])
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
    ``grid`` is the grid it triangulates, ``mesh`` the Qhull mesh it
    came from, and ``starts`` holds per Qhull simplex a canonical
    triangle to walk from.
    """

    points: np.ndarray
    triangles: list[tuple[int, int, int]]
    neighbors: list[tuple[int, int, int]]
    grid: Grid = field(repr=False, compare=False)
    mesh: Mesh = field(repr=False, compare=False)
    starts: np.ndarray = field(repr=False, compare=False)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def _walk(self):
        """The walk's tables, built once: triangle and neighbour arrays,
        the edge table, and twin[t, k], the flat edge of neighbour
        nbrs[t, k] that faces t."""
        tris, nbrs = np.asarray(self.triangles), np.asarray(self.neighbors)
        own = np.arange(len(tris))[:, None, None]
        back = np.argmax(nbrs[nbrs] == own, axis=2)
        return (tris, nbrs, _edge_table(self.points, tris, self.mesh.span),
                np.where(nbrs >= 0, 3 * nbrs + back, -1))


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
    simplices = mesh.qhull.simplices
    tris, nbrs = _resolve_cocircular_diagonals(
        pts, *_canonical_triangles(pts, simplices))
    return Triangulation(pts, list(map(tuple, tris.tolist())),
                         list(map(tuple, nbrs.tolist())), grid, mesh,
                         _walk_starts(simplices, tris, len(pts)))


def _walk_starts(simplices, tris, n):
    """Per Qhull simplex, the canonical triangle with the same vertices;
    a simplex the cocircular pass flipped away maps to a triangle at its
    first vertex, a few steps from its own."""
    def keys(t):
        t = np.sort(t, axis=1)
        return (t[:, 0] * n + t[:, 1]) * n + t[:, 2]

    ours = keys(tris)
    order = np.argsort(ours)
    theirs = keys(simplices)
    pos = np.minimum(np.searchsorted(ours[order], theirs), len(ours) - 1)
    at_vertex = np.empty(n, dtype=np.intp)
    at_vertex[tris.ravel()] = np.repeat(np.arange(len(tris)), 3)
    return np.where(ours[order[pos]] == theirs, order[pos],
                    at_vertex[simplices[:, 0]])


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


def dq_solve_delaunay(grid: Grid, tri: Triangulation, xi, spec: NormSpec) -> LocalSolution:
    """Local solution through the located Delaunay triangle (l2, p = 2)."""
    if not spec.is_euclidean_quadratic:
        raise ValueError("the Delaunay fast path requires the Euclidean norm with p = 2")
    if grid.dim != 2:
        raise ValueError("the Delaunay fast path is two-dimensional")
    xi = np.asarray(xi, dtype=float)
    t = locate(tri, xi)
    if t is None:
        raise InfeasibleError("query point lies outside the convex hull of the grid")
    basis = tuple(sorted(tri.triangles[t]))
    P, mesh = tri.points, tri.mesh
    M = np.vstack([P[list(basis)].T, np.ones(3)])
    lam = np.linalg.solve(M, np.concatenate([xi, [1.0]]))
    # the circumcentre on centred points: an offset costs no precision
    u1 = 2.0 * (circumcenter(mesh.Pc[list(basis)])[0] - (xi - mesh.center))
    u2 = float(np.sum((xi - P[basis[0]]) ** 2) - P[basis[0]] @ u1)
    costs = np.sum((xi[None, :] - P[list(basis)]) ** 2, axis=1)
    value = float(lam @ costs)
    return LocalSolution(xi, basis, lam, np.concatenate([u1, [u2]]), value)


# --- vectorized evaluation ---------------------------------------------------


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


def _edge_table(P, tris, span):
    """Edge k of triangle t, opposite its vertex k and directed CCW, is
    the flat edge 3t + k; per flat edge: start point, vector, and the
    containment slack, EDGE_TOL times the grid's diameter ``span``
    times the edge's L1 length, so it does not depend on units or origin."""
    a = P[tris[:, [1, 2, 0]]].reshape(-1, 2)
    e = P[tris[:, [2, 0, 1]]].reshape(-1, 2) - a
    slack = EDGE_TOL * span * (np.abs(e[:, 0]) + np.abs(e[:, 1]))
    return a[:, 0], a[:, 1], e[:, 0], e[:, 1], slack


def _edges_hold(table, X, edges) -> np.ndarray:
    """Flags shaped like ``edges`` (m, k): row r of X is on the inner
    side of flat edge edges[r, j], within the edge's slack."""
    ax, ay, ex, ey, slack = (col[edges] for col in table)
    x, y = X[:, :1], X[:, 1:]
    return ex * (y - ay) - ey * (x - ax) >= -slack


def _locate_rows(tri, X) -> np.ndarray:
    """The containing triangle of every row of X; -1 where the walk
    leaves the mesh through a boundary edge."""
    tris, nbrs, table, twin = tri._walk
    T = len(tris)
    own = 3 * np.arange(T)[:, None] + np.arange(3)
    t = np.zeros(len(X), dtype=np.intp)
    s = tri.mesh.find(X - tri.mesh.center)
    t[s >= 0] = tri.starts[s[s >= 0]]

    # the walk, all rows at once: cross the first violated edge, testing
    # (i, j), (j, k), (k, i) in turn
    live = np.arange(len(X))
    for _ in range(4 * T + 8):
        if live.size == 0:
            break
        held = _edges_hold(table, X[live], own[t[live]])[:, [2, 0, 1]]
        moving = ~held.all(axis=1)
        k = (np.argmin(held, axis=1)[moving] + 2) % 3
        live = live[moving]
        t[live] = nbrs[t[live], k]
        live = live[t[live] >= 0]
    t[live] = -1

    # ties: a neighbor can contain a row only if the row holds on its
    # side of the shared edge; rows where one does search outward
    # through the triangles containing them and keep the lowest index
    hit = np.flatnonzero(t >= 0)
    near = _edges_hold(table, X[hit], np.maximum(twin[t[hit]], 0))
    near &= twin[t[hit]] >= 0
    front_r = hit[near.any(axis=1)]
    front_t = t[front_r]
    seen = front_r * T + front_t
    while front_r.size:
        r, c = np.repeat(front_r, 3), nbrs[front_t].ravel()
        key = r * T + c
        fresh = (c >= 0) & ~np.isin(key, seen)
        key, first = np.unique(key[fresh], return_index=True)
        r, c = r[fresh][first], c[fresh][first]
        seen = np.concatenate([seen, key])
        holds = _edges_hold(table, X[r], own[c]).all(axis=1)
        front_r, front_t = r[holds], c[holds]
        np.minimum.at(t, front_r, front_t)
    return t


def batch_solve(tri: Triangulation, X):
    """Containing triangle and barycentric weights for each row of X.

    Returns (tidx, lam): tidx[i] == -1 marks exterior rows (lam zero),
    those whose walk leaves the mesh through a boundary edge.  Qhull's
    ``find_simplex`` gives each row a start, and a row on shared edges or
    vertices resolves to the lowest-indexed triangle containing it.
    Every row is solved on its own: the result for a row does not depend
    on the other rows of X.
    """
    X = np.asarray(X, dtype=float)
    P, tris = tri.points, tri._walk[0]
    tidx = np.empty(X.shape[0], dtype=np.intp)
    # blocks of rows bound the walk's temporaries at a few megabytes
    for start in range(0, X.shape[0], 4096):
        tidx[start:start + 4096] = _locate_rows(tri, X[start:start + 4096])
    rows = np.flatnonzero(tidx >= 0)
    a, b, c = (P[tris[tidx[rows], k]].T for k in range(3))
    x = X[rows].T
    area = orient2d(*a, *b, *c)
    w0 = orient2d(*x, *b, *c) / area
    w1 = orient2d(*a, *x, *c) / area
    lam = np.zeros((X.shape[0], 3))
    lam[rows] = np.column_stack([w0, w1, 1.0 - w0 - w1])
    return tidx, lam
