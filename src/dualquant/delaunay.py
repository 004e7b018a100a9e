"""Planar Delaunay triangulations and the quadratic Euclidean fast path.

For the Euclidean norm with p = 2 the optimal LP basis at xi is the
Delaunay triangle containing xi, the spatial dual is 2(z - xi) with z
the triangle circumcenter, and the local error obeys

    F^2(xi) = r^2 - ||z - xi||^2

on the containing triangle, while every empty-circumcircle triangle's
power function lower-bounds F^2 anywhere in the hull.  The batch
evaluator below maximizes that power over all triangles, which is the
same dual certificate the LP produces, vectorized.

Construction is incremental (Bowyer-Watson) with a tolerance-aware
in-circle predicate; near-cocircular quads are resolved toward the
diagonal with the lexicographically smallest sorted index pair, so the
triangulation is deterministic for a fixed point order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FlatGridError, InfeasibleError
from .geometry import Grid, NormSpec
from .lp import LocalSolution

# Relative scale factor for treating an in-circle determinant as zero.
COCIRCULAR_EPS = 1e-12
# Edge containment slack for location, as a signed distance factor.
EDGE_TOL = 1e-9


def orient2d(ax, ay, bx, by, cx, cy) -> float:
    """Twice the signed area of (a, b, c); positive when CCW."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def incircle_det(pa, pb, pc, pd) -> float:
    """In-circle determinant: positive iff pd lies strictly inside the
    circumcircle of the CCW triangle (pa, pb, pc)."""
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
    epsilon; determinants below this are treated as cocircular."""
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
    return COCIRCULAR_EPS * (perm + 1.0)


def _circumcircle2d(ax, ay, bx, by, cx, cy):
    """Circumcenter and squared radius by direct elimination."""
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        raise FlatGridError("circumcircle of collinear vertices")
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    r2 = (ax - ux) ** 2 + (ay - uy) ** 2
    return ux, uy, r2


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


def _canonical_triangles(coords, tris):
    """Rotate each CCW triple to start at its smallest vertex, sort the
    list, and build the adjacency table."""
    canon = []
    for (i, j, k) in tris:
        # enforce CCW with exact sign of the area
        if orient2d(*coords[i], *coords[j], *coords[k]) < 0:
            j, k = k, j
        m = min(i, j, k)
        if i == m:
            canon.append((i, j, k))
        elif j == m:
            canon.append((j, k, i))
        else:
            canon.append((k, i, j))
    canon.sort()
    edge_map = {}
    for t, (i, j, k) in enumerate(canon):
        for a, b in ((i, j), (j, k), (k, i)):
            edge_map[(a, b)] = t
    neighbors = []
    for (i, j, k) in canon:
        nbr = []
        for a, b in ((j, k), (k, i), (i, j)):  # edge opposite each vertex
            nbr.append(edge_map.get((b, a), -1))
        neighbors.append(tuple(nbr))
    return canon, neighbors


def triangulate(grid) -> Triangulation:
    """Delaunay triangulation of a 2D grid (Bowyer-Watson insertion)."""
    if isinstance(grid, Grid):
        pts = grid.points
    else:
        pts = np.asarray(grid, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("triangulate expects an (n, 2) point array")
    n = pts.shape[0]
    if n < 3:
        raise FlatGridError("need at least three points to triangulate")

    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = (lo + hi) / 2.0
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1.0))
    R = 64.0 * span
    coords = [(float(x), float(y)) for x, y in pts]
    coords.append((center[0] - 2.0 * R, center[1] - R))
    coords.append((center[0] + 2.0 * R, center[1] - R))
    coords.append((center[0], center[1] + 2.0 * R))
    s0, s1, s2 = n, n + 1, n + 2

    # Super vertices act as points at infinity: a triangle touching one
    # uses the limit of its circumdisk (a half-plane), not the finite
    # circle, whose inward bulge would swallow points that sit close to
    # a hull edge and punch slivers out of the triangulation.
    dirs = {}
    for s in (s0, s1, s2):
        dx, dy = coords[s][0] - center[0], coords[s][1] - center[1]
        h = math.hypot(dx, dy)
        dirs[s] = (dx / h, dy / h)
    line_eps = 1e-12 * span

    def is_bad(verts, p) -> bool:
        i, j, k = verts
        n_super = (i >= n) + (j >= n) + (k >= n)
        if n_super == 0:
            det = incircle_det(coords[i], coords[j], coords[k], p)
            return det > incircle_eps(coords[i], coords[j], coords[k], p)
        if n_super == 3:
            return True
        if n_super == 1:
            # drop the super vertex, keeping the CCW cyclic order; the
            # limit circumdisk is the open half-plane on its side
            if i >= n:
                a, b = j, k
            elif j >= n:
                a, b = k, i
            else:
                a, b = i, j
            pa, pb = coords[a], coords[b]
            return (orient2d(pa[0], pa[1], pb[0], pb[1], p[0], p[1])
                    > line_eps * _elen(pa, pb))
        # two super vertices: half-plane through the real vertex with
        # normal along the sum of the two unit super directions
        if i < n:
            a, si, sj = i, j, k
        elif j < n:
            a, si, sj = j, k, i
        else:
            a, si, sj = k, i, j
        bx = dirs[si][0] + dirs[sj][0]
        by = dirs[si][1] + dirs[sj][1]
        pa = coords[a]
        return (p[0] - pa[0]) * bx + (p[1] - pa[1]) * by > line_eps

    tris = [(s0, s1, s2)]
    for ip in range(n):
        p = coords[ip]
        bad = [t for t, verts in enumerate(tris) if is_bad(verts, p)]
        if not bad:
            # p is cocircular-or-outside everywhere; fall back to the
            # containing triangle so insertion always proceeds
            for t, (i, j, k) in enumerate(tris):
                o1 = orient2d(*coords[i], *coords[j], *p)
                o2 = orient2d(*coords[j], *coords[k], *p)
                o3 = orient2d(*coords[k], *coords[i], *p)
                if o1 >= 0 and o2 >= 0 and o3 >= 0:
                    bad = [t]
                    break
        if not bad:
            raise FlatGridError("insertion point escaped the super-triangle")
        bad_set = set(bad)
        directed = set()
        for t in bad:
            i, j, k = tris[t]
            directed.update([(i, j), (j, k), (k, i)])
        cavity = []
        for t in bad:
            i, j, k = tris[t]
            for a, b in ((i, j), (j, k), (k, i)):
                if (b, a) not in directed:
                    cavity.append((a, b))
        tris = [t for idx, t in enumerate(tris) if idx not in bad_set]
        for a, b in cavity:
            tris.append((a, b, ip))

    tris = [t for t in tris if all(v < n for v in t)]
    if not tris:
        raise FlatGridError("grid points are collinear")
    canon, neighbors = _canonical_triangles(coords, tris)
    tri = Triangulation(np.asarray(pts, dtype=float), canon, neighbors)
    _resolve_cocircular_diagonals(tri)
    return tri


def _resolve_cocircular_diagonals(tri: Triangulation) -> None:
    """Flip near-cocircular quads toward the smallest sorted diagonal."""
    coords = tri.points
    for _ in range(4 * len(tri.triangles) + 4):
        flipped = False
        for t1 in range(len(tri.triangles)):
            verts = tri.triangles[t1]
            for e in range(3):
                t2 = tri.neighbors[t1][e]
                if t2 <= t1:
                    continue
                a, b = verts[(e + 1) % 3], verts[(e + 2) % 3]
                c = verts[e]
                other = tri.triangles[t2]
                d = next(v for v in other if v not in (a, b))
                det = incircle_det(coords[verts[0]], coords[verts[1]], coords[verts[2]], coords[d])
                eps = incircle_eps(coords[verts[0]], coords[verts[1]], coords[verts[2]], coords[d])
                if abs(det) > eps:
                    continue
                if tuple(sorted((c, d))) >= tuple(sorted((a, b))):
                    continue
                # strictly convex quad is required for a valid flip
                o1 = orient2d(*coords[c], *coords[d], *coords[a])
                o2 = orient2d(*coords[c], *coords[d], *coords[b])
                if o1 * o2 >= 0:
                    continue
                new = [tt for i, tt in enumerate(tri.triangles) if i not in (t1, t2)]
                new.append((c, d, a))
                new.append((d, c, b))
                canon, neighbors = _canonical_triangles(coords, new)
                tri.triangles = canon
                tri.neighbors = neighbors
                tri._power = None
                flipped = True
                break
            if flipped:
                break
        if not flipped:
            return


def locate(tri: Triangulation, xi, hint: int | None = None) -> int | None:
    """Walk to the triangle containing xi; None when xi is outside.

    When xi lies on a shared edge or vertex, the lowest-indexed
    containing triangle is returned.
    """
    P = tri.points
    x, y = float(xi[0]), float(xi[1])
    ntri = len(tri.triangles)
    scale = 1.0 + abs(x) + abs(y)
    tol = EDGE_TOL * scale

    for start in ((hint if hint is not None and 0 <= hint < ntri else 0), 0):
        t = start
        ok = None
        for _ in range(4 * ntri + 8):
            i, j, k = tri.triangles[t]
            pi, pj, pk = P[i], P[j], P[k]
            # cross the first strictly-violated edge (deterministic walk)
            s_ij = orient2d(pi[0], pi[1], pj[0], pj[1], x, y)
            if s_ij < -tol * _elen(pi, pj):
                nxt = tri.neighbors[t][2]
                if nxt == -1:
                    ok = None
                    break
                t = nxt
                continue
            s_jk = orient2d(pj[0], pj[1], pk[0], pk[1], x, y)
            if s_jk < -tol * _elen(pj, pk):
                nxt = tri.neighbors[t][0]
                if nxt == -1:
                    ok = None
                    break
                t = nxt
                continue
            s_ki = orient2d(pk[0], pk[1], pi[0], pi[1], x, y)
            if s_ki < -tol * _elen(pk, pi):
                nxt = tri.neighbors[t][1]
                if nxt == -1:
                    ok = None
                    break
                t = nxt
                continue
            ok = t
            break
        if ok is not None:
            # boundary hit: pick the lowest-indexed triangle containing xi
            best = ok
            seen = {ok}
            stack = [ok]
            while stack:
                cur = stack.pop()
                for nb in tri.neighbors[cur]:
                    if nb == -1 or nb in seen:
                        continue
                    i, j, k = tri.triangles[nb]
                    pi, pj, pk = P[i], P[j], P[k]
                    if (
                        orient2d(pi[0], pi[1], pj[0], pj[1], x, y) >= -tol * _elen(pi, pj)
                        and orient2d(pj[0], pj[1], pk[0], pk[1], x, y) >= -tol * _elen(pj, pk)
                        and orient2d(pk[0], pk[1], pi[0], pi[1], x, y) >= -tol * _elen(pk, pi)
                    ):
                        seen.add(nb)
                        stack.append(nb)
                        if nb < best:
                            best = nb
            return best
    return None


def _elen(pa, pb) -> float:
    return abs(pb[0] - pa[0]) + abs(pb[1] - pa[1]) + 1e-30


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
    P = grid.points
    M = np.vstack([P[list(basis)].T, np.ones(3)])
    lam = np.linalg.solve(M, np.concatenate([xi, [1.0]]))
    ux, uy, _ = _circumcircle2d(*P[basis[0]], *P[basis[1]], *P[basis[2]])
    z = np.array([ux, uy])
    u1 = 2.0 * (z - xi)
    u2 = float(np.sum((xi - P[basis[0]]) ** 2) - P[basis[0]] @ u1)
    costs = np.sum((xi[None, :] - P[list(basis)]) ** 2, axis=1)
    value = float(lam @ costs)
    return LocalSolution(xi, basis, lam, np.concatenate([u1, [u2]]), value)


# --- vectorized evaluation ---------------------------------------------------


def hull_mask(tri: Triangulation, X) -> np.ndarray:
    """Boolean mask of rows of X inside (or on) the hull of the points."""
    X = np.asarray(X, dtype=float)
    P = tri.points
    scale = 1.0 + float(np.max(np.abs(P)))
    inside = np.ones(X.shape[0], dtype=bool)
    for a, b in tri.boundary_edges():
        pa, pb = P[a], P[b]
        e = pb - pa
        elen = float(np.hypot(e[0], e[1]))
        cross = e[0] * (X[:, 1] - pa[1]) - e[1] * (X[:, 0] - pa[0])
        inside &= cross >= -EDGE_TOL * scale * elen
    return inside


def batch_values(tri: Triangulation, X) -> np.ndarray:
    """F^2 at each row of X by maximizing the triangle power functions.

    Only valid inside the hull; combine with hull_mask for exteriors.
    """
    X = np.asarray(X, dtype=float)
    z, r2 = tri.power_data()
    vals = np.full(X.shape[0], -np.inf)
    for t in range(len(tri.triangles)):
        v = r2[t] - (X[:, 0] - z[t, 0]) ** 2 - (X[:, 1] - z[t, 1]) ** 2
        np.maximum(vals, v, out=vals)
    return vals


def batch_solve(tri: Triangulation, X):
    """Containing triangle and barycentric weights for each row of X.

    Returns (tidx, lam): tidx[i] == -1 marks exterior rows (lam zero).
    Ties on shared edges resolve to the lowest triangle index, matching
    ``locate``.
    """
    X = np.asarray(X, dtype=float)
    N = X.shape[0]
    P = tri.points
    z, r2 = tri.power_data()
    T = len(tri.triangles)

    # the first triangle of maximal power, 256 rows at a time
    best_val = np.empty(N)
    best_t = np.empty(N, dtype=np.int64)
    for s in range(0, N, 256):
        rows = slice(s, s + 256)
        v = (r2 - (X[rows, 0, None] - z[:, 0]) ** 2
             - (X[rows, 1, None] - z[:, 1]) ** 2)
        best_t[rows] = np.argmax(v, axis=1)
        best_val[rows] = v[np.arange(len(v)), best_t[rows]]

    inside = hull_mask(tri, X)
    tidx = np.where(inside, best_t, -1)
    lam = np.zeros((N, 3))

    scale = 1.0 + float(np.max(np.abs(P)))
    bary_tol = EDGE_TOL * scale

    verts = np.asarray(tri.triangles)
    origin = P[verts[:, 2]]
    inv = np.linalg.inv(np.stack([P[verts[:, 0]] - origin,
                                  P[verts[:, 1]] - origin], axis=-1))

    def assign(rows, t):
        rel = X[rows] - origin[t]
        ab = rel @ inv[t].T
        l3 = 1.0 - ab[:, 0] - ab[:, 1]
        full = np.column_stack([ab, l3])
        good = full.min(axis=1) >= -bary_tol
        lam[rows[good]] = full[good]
        return good

    # group the inside rows by triangle, each group in row order: every
    # triangle then solves the same row block as a scan per triangle
    unresolved = np.zeros(N, dtype=bool)
    rows_in = np.flatnonzero(inside)
    by_t = rows_in[np.argsort(best_t[rows_in], kind="stable")]
    starts = np.flatnonzero(np.diff(best_t[by_t], prepend=-1))
    for rows in np.split(by_t, starts[1:]):
        if rows.size == 0:
            continue
        good = assign(rows, best_t[rows[0]])
        unresolved[rows[~good]] = True

    if unresolved.any():
        # ties between equal-power triangles (cocircular quads): retry
        # every triangle whose power matches the max, in index order
        rows_left = np.flatnonzero(unresolved)
        val_tol = 1e-9 * (1.0 + np.abs(best_val[rows_left]))
        for t in range(T):
            if rows_left.size == 0:
                break
            v = r2[t] - (X[rows_left, 0] - z[t, 0]) ** 2 - (X[rows_left, 1] - z[t, 1]) ** 2
            near = v >= best_val[rows_left] - val_tol
            cand = rows_left[near]
            if cand.size == 0:
                continue
            good = assign(cand, t)
            tidx[cand[good]] = t
            done = np.zeros(rows_left.size, dtype=bool)
            done[np.flatnonzero(near)[good]] = True
            rows_left = rows_left[~done]
            val_tol = val_tol[~done]
        for r in rows_left:
            # numerically marginal stragglers: walk for them individually
            t = locate(tri, X[r])
            if t is None:
                tidx[r] = -1
                continue
            i, j, k = tri.triangles[t]
            M = np.vstack([P[[i, j, k]].T, np.ones(3)])
            w = np.linalg.solve(M, np.array([X[r, 0], X[r, 1], 1.0]))
            tidx[r] = t
            lam[r] = w
    return tidx, lam
