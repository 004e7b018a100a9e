"""Planar Delaunay triangulations and the quadratic Euclidean fast path.

For the Euclidean norm with p = 2 the optimal LP basis at xi is the
Delaunay triangle containing xi, the spatial dual is 2(z - xi) with z
the triangle circumcenter, and the local error obeys

    F^2(xi) = r^2 - ||z - xi||^2

on the containing triangle, while every empty-circumcircle triangle's
power function lower-bounds F^2 anywhere in the hull.  The batch
evaluator below maximizes that power over all triangles, which is the
same dual certificate the LP produces, vectorized.

Construction runs Qhull (``scipy.spatial.Delaunay``) on the points
centred on their mean, with the fixed options ``Qbb Qc Qz Q12`` (scipy
adds ``Qt``) and never ``QJ``, so no joggle enters the mesh.  Its
triangles are then put in canonical order, in the caller's
coordinates, and near-cocircular quads are resolved toward the diagonal
with the lexicographically smallest sorted index pair, by a
tolerance-aware in-circle predicate; the triangulation is deterministic
for a fixed point order.

Point location has one implementation, the walk of ``batch_solve``,
with an edge slack relative to the grid's diameter; ``locate`` and
``hull_mask`` read its answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, QhullError

from .errors import FlatGridError, InfeasibleError
from .geometry import Grid, NormSpec
from .lp import LocalSolution

# Relative scale factor for treating an in-circle determinant as zero.
COCIRCULAR_EPS = 1e-12
# Edge containment slack for location, relative to the grid's diameter.
EDGE_TOL = 1e-9
QHULL_OPTIONS = "Qbb Qc Qz Q12"


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
    """

    points: np.ndarray
    triangles: list[tuple[int, int, int]]
    neighbors: list[tuple[int, int, int]]
    _power: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    # the Qhull mesh of the centred points, per Qhull simplex a canonical
    # triangle to walk from, and the centre
    _qhull: tuple[Delaunay, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def power_data(self):
        """Per-triangle circumcenters and squared radii (cached)."""
        if self._power is None:
            P = self.points
            tri = np.asarray(self.triangles)
            a, b, c = P[tri[:, 0]], P[tri[:, 1]], P[tri[:, 2]]
            d = 2.0 * (
                a[:, 0] * (b[:, 1] - c[:, 1])
                + b[:, 0] * (c[:, 1] - a[:, 1])
                + c[:, 0] * (a[:, 1] - b[:, 1])
            )
            a2 = np.sum(a * a, axis=1)
            b2 = np.sum(b * b, axis=1)
            c2 = np.sum(c * c, axis=1)
            zx = (a2 * (b[:, 1] - c[:, 1]) + b2 * (c[:, 1] - a[:, 1]) + c2 * (a[:, 1] - b[:, 1])) / d
            zy = (a2 * (c[:, 0] - b[:, 0]) + b2 * (a[:, 0] - c[:, 0]) + c2 * (b[:, 0] - a[:, 0])) / d
            z = np.column_stack([zx, zy])
            r2 = np.sum((a - z) ** 2, axis=1)
            self._power = (z, r2)
        return self._power

    def boundary_edges(self) -> list[tuple[int, int]]:
        """Directed hull edges (interior on the left)."""
        out = []
        for t, (i, j, k) in enumerate(self.triangles):
            verts = (i, j, k)
            for e in range(3):
                if self.neighbors[t][e] == -1:
                    out.append((verts[(e + 1) % 3], verts[(e + 2) % 3]))
        return out


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


def triangulate(grid) -> Triangulation:
    """Delaunay triangulation of a 2D grid (Qhull, then canonical ties)."""
    if isinstance(grid, Grid):
        pts = grid.points
    else:
        pts = np.asarray(grid, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("triangulate expects an (n, 2) point array")
    if pts.shape[0] < 3:
        raise FlatGridError("need at least three points to triangulate")
    # Qhull's roundoff bound grows with the largest coordinate: far from
    # the origin it would merge points that the grid keeps apart
    centre = pts.mean(axis=0)
    try:
        qhull = Delaunay(pts - centre, qhull_options=QHULL_OPTIONS)
    except QhullError as exc:
        reason = str(exc).strip().splitlines()[0]
        raise FlatGridError(f"grid points do not span the plane ({reason})") from exc
    if len(qhull.coplanar):
        raise FlatGridError(
            "grid points too close to tell apart: Qhull left point "
            f"{int(qhull.coplanar[0, 0])} out of the triangulation")
    tris, nbrs = _resolve_cocircular_diagonals(
        pts, *_canonical_triangles(pts, qhull.simplices))
    starts = _walk_starts(qhull.simplices, tris, len(pts))
    return Triangulation(pts, list(map(tuple, tris.tolist())),
                         list(map(tuple, nbrs.tolist())),
                         _qhull=(qhull, starts, centre))


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
    tri_verts = tri.triangles[t]
    basis = tuple(sorted(tri_verts))
    P = tri.points  # the mesh's own coordinates, which its power data uses
    M = np.vstack([P[list(basis)].T, np.ones(3)])
    lam = np.linalg.solve(M, np.concatenate([xi, [1.0]]))
    u1 = 2.0 * (tri.power_data()[0][t] - xi)
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
    """F^2 at each row of X by maximizing the triangle power functions.

    Only valid inside the hull; combine with hull_mask for exteriors.
    The maximum stays although the located triangle's power alone is
    F^2: on sliver triangles that one power loses up to about 5e-13 to
    cancellation, and it reads slightly negative at grid points.
    """
    X = np.asarray(X, dtype=float)
    z, r2 = tri.power_data()
    vals = np.full(X.shape[0], -np.inf)
    for t in range(len(tri.triangles)):
        v = r2[t] - (X[:, 0] - z[t, 0]) ** 2 - (X[:, 1] - z[t, 1]) ** 2
        np.maximum(vals, v, out=vals)
    return vals


def _edge_table(P, tris):
    """Edge k of triangle t, opposite its vertex k and directed CCW, is
    the flat edge 3t + k; per flat edge: start point, vector, and the
    containment slack, EDGE_TOL times the grid's diameter times the
    edge's L1 length, so the test does not depend on units or origin."""
    a = P[tris[:, [1, 2, 0]]].reshape(-1, 2)
    e = P[tris[:, [2, 0, 1]]].reshape(-1, 2) - a
    diameter = float(np.hypot(*np.ptp(P, axis=0)))
    slack = EDGE_TOL * diameter * (np.abs(e[:, 0]) + np.abs(e[:, 1]))
    return a[:, 0], a[:, 1], e[:, 0], e[:, 1], slack


def _edges_hold(table, X, edges) -> np.ndarray:
    """Flags shaped like ``edges`` (m, k): row r of X is on the inner
    side of flat edge edges[r, j], within the edge's slack."""
    ax, ay, ex, ey, slack = (col[edges] for col in table)
    x, y = X[:, :1], X[:, 1:]
    return ex * (y - ay) - ey * (x - ax) >= -slack


def _locate_rows(tri, mesh, X) -> np.ndarray:
    """The containing triangle of every row of X; -1 where the walk
    leaves the mesh through a boundary edge."""
    tris, nbrs, table, twin = mesh
    T = len(tris)
    own = 3 * np.arange(T)[:, None] + np.arange(3)
    t = np.zeros(len(X), dtype=np.intp)
    if tri._qhull is not None:
        qhull, starts, centre = tri._qhull
        s = qhull.find_simplex(X - centre)
        t[s >= 0] = starts[s[s >= 0]]

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
    P = tri.points
    tris, nbrs = np.asarray(tri.triangles), np.asarray(tri.neighbors)
    # twin[t, k]: the flat edge of neighbor nbrs[t, k] that faces t
    back = np.argmax(nbrs[nbrs] == np.arange(len(tris))[:, None, None], axis=2)
    mesh = (tris, nbrs, _edge_table(P, tris),
            np.where(nbrs >= 0, 3 * nbrs + back, -1))
    tidx = np.empty(X.shape[0], dtype=np.intp)
    # blocks of rows bound the walk's temporaries at a few megabytes
    for start in range(0, X.shape[0], 4096):
        tidx[start:start + 4096] = _locate_rows(tri, mesh, X[start:start + 4096])
    rows = np.flatnonzero(tidx >= 0)
    a, b, c = (P[tris[tidx[rows], k]].T for k in range(3))
    x = X[rows].T
    area = orient2d(*a, *b, *c)
    w0 = orient2d(*x, *b, *c) / area
    w1 = orient2d(*a, *x, *c) / area
    lam = np.zeros((X.shape[0], 3))
    lam[rows] = np.column_stack([w0, w1, 1.0 - w0 - w1])
    return tidx, lam
