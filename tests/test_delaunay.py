import numpy as np
import pytest
from scipy.spatial import ConvexHull

from dualquant.delaunay import (
    batch_solve,
    batch_values,
    dq_solve_delaunay,
    hull_mask,
    incircle_det,
    incircle_eps,
    locate,
    triangulate,
)
from dualquant.errors import FlatGridError, InfeasibleError
from dualquant.geometry import Grid, NormSpec, in_convex_hull
from dualquant.lp import local_dq_solve, local_dq_value, optimality_region_contains

seed = 909
S2 = NormSpec("l2", 2)


def random_grid(rng, n):
    return Grid(rng.uniform(0, 1, size=(n, 2)))


def triangle_sets(tri):
    return {frozenset(t) for t in tri.triangles}


def test_square_prefers_smallest_diagonal():
    g = Grid([[0, 0], [1, 0], [0, 1], [1, 1]])
    tri = triangulate(g)
    assert triangle_sets(tri) == {frozenset({0, 1, 3}), frozenset({0, 2, 3})}


def test_square_with_center():
    g = Grid([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]])
    tri = triangulate(g)
    assert tri.n_triangles == 4
    assert all(4 in t for t in tri.triangles)


def test_triangulate_needs_a_2d_grid():
    with pytest.raises(ValueError):
        triangulate(Grid([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]))


def test_collinear_raises():
    with pytest.raises(FlatGridError):
        triangulate(Grid([[0, 0], [1, 1], [2, 2]]))


def test_orientation_and_area_tiling():
    rng = np.random.default_rng(seed)
    for _ in range(10):
        g = random_grid(rng, 30)
        tri = triangulate(g)
        area = 0.0
        for (i, j, k) in tri.triangles:
            a, b, c = g.points[i], g.points[j], g.points[k]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            assert cross > 0  # CCW
            area += 0.5 * cross
        hull_area = ConvexHull(g.points).volume
        assert area == pytest.approx(hull_area, rel=1e-9)


def test_empty_circumcircle_invariant():
    rng = np.random.default_rng(seed + 1)
    for _ in range(10):
        g = random_grid(rng, 25)
        tri = triangulate(g)
        for (i, j, k) in tri.triangles:
            a, b, c = g.points[i], g.points[j], g.points[k]
            for m in range(g.n):
                if m in (i, j, k):
                    continue
                det = incircle_det(a, b, c, g.points[m])
                assert det <= incircle_eps(a, b, c, g.points[m])


def test_flip_invariance_under_permutation():
    rng = np.random.default_rng(seed + 2)
    pts = rng.uniform(0, 1, size=(20, 2))
    tri1 = triangulate(Grid(pts))
    perm = rng.permutation(20)
    tri2 = triangulate(Grid(pts[perm]))
    sets1 = {frozenset(tuple(pts[v]) for v in t) for t in tri1.triangles}
    sets2 = {frozenset(tuple(pts[perm][v]) for v in t) for t in tri2.triangles}
    assert sets1 == sets2


def test_locate_basics():
    g = Grid([[0, 0], [1, 0], [0, 1], [1, 1]])
    tri = triangulate(g)  # triangles: (0,1,3) and (0,3,2) sorted canonically
    assert locate(tri, [2.0, 2.0]) is None
    assert locate(tri, [-0.1, 0.5]) is None
    t_low = locate(tri, [0.7, 0.2])
    t_high = locate(tri, [0.2, 0.7])
    assert t_low != t_high
    # on the shared diagonal: the lower-indexed adjacent triangle wins
    assert locate(tri, [0.5, 0.5]) == min(t_low, t_high)
    # at a vertex: lowest triangle index of the star
    star = [t for t, verts in enumerate(tri.triangles) if 0 in verts]
    assert locate(tri, [0.0, 0.0]) == min(star)


def test_locate_agrees_with_barycentric_containment():
    rng = np.random.default_rng(seed + 3)
    g = random_grid(rng, 40)
    tri = triangulate(g)
    for _ in range(300):
        xi = rng.uniform(0, 1, size=2)
        t = locate(tri, xi)
        inside = in_convex_hull(g, xi)
        assert (t is not None) == inside
        if t is not None:
            i, j, k = tri.triangles[t]
            M = np.vstack([g.points[[i, j, k]].T, np.ones(3)])
            lam = np.linalg.solve(M, np.array([xi[0], xi[1], 1.0]))
            assert lam.min() >= -1e-9


def test_fast_path_matches_lp():
    rng = np.random.default_rng(seed + 4)
    for _ in range(3):
        g = random_grid(rng, 30)
        tri = triangulate(g)
        for _ in range(60):
            xi = rng.uniform(0, 1, size=2)
            try:
                sol_lp = local_dq_solve(g, xi, S2)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    dq_solve_delaunay(g, tri, xi, S2)
                continue
            sol_dt = dq_solve_delaunay(g, tri, xi, S2)
            assert abs(sol_dt.value - sol_lp.value) <= 1e-9 * (1 + abs(sol_lp.value))
            # generic queries: same basis, same weights, same dual
            if sol_dt.basis == sol_lp.basis:
                assert np.allclose(sol_dt.weights, sol_lp.weights, atol=1e-9)
                assert np.allclose(sol_dt.u, sol_lp.u, atol=1e-8)


def test_each_triangle_is_an_optimality_region():
    rng = np.random.default_rng(seed + 5)
    g = random_grid(rng, 15)
    tri = triangulate(g)
    for t in tri.triangles:
        centroid = g.points[list(t)].mean(axis=0)
        assert optimality_region_contains(g, sorted(t), centroid, S2)


def test_batch_values_match_scalar():
    rng = np.random.default_rng(seed + 6)
    g = random_grid(rng, 25)
    tri = triangulate(g)
    X = rng.uniform(0.2, 0.8, size=(100, 2))
    keep = hull_mask(tri, X)
    vals = batch_values(tri, X)
    for xi, v, ok in zip(X, vals, keep):
        if not ok:
            continue
        assert abs(v - local_dq_value(g, xi, S2)) <= 1e-9 * (1 + abs(v))


def test_batch_solve_weights_reproduce_points():
    rng = np.random.default_rng(seed + 7)
    g = random_grid(rng, 25)
    tri = triangulate(g)
    X = rng.uniform(-0.1, 1.1, size=(400, 2))
    tidx, lam = batch_solve(tri, X)
    inside = hull_mask(tri, X)
    assert np.array_equal(tidx >= 0, inside)
    for r in np.flatnonzero(inside):
        verts = tri.triangles[tidx[r]]
        rec = lam[r] @ g.points[list(verts)]
        assert np.linalg.norm(rec - X[r]) <= 1e-9
        assert lam[r].min() >= -1e-9
        assert lam[r].sum() == pytest.approx(1.0, abs=1e-9)


def test_batch_solve_on_cocircular_product_grid():
    # every cell is a cocircular quad: the tie path must resolve all rows
    xs = np.linspace(0, 1, 4)
    pts = np.array([[x, y] for x in xs for y in xs])
    g = Grid(pts)
    tri = triangulate(g)
    rng = np.random.default_rng(seed + 8)
    X = rng.uniform(0, 1, size=(2000, 2))
    tidx, lam = batch_solve(tri, X)
    assert np.all(tidx >= 0)
    vals_direct = batch_values(tri, X)
    for r in range(0, 2000, 97):
        verts = tri.triangles[tidx[r]]
        rec = lam[r] @ g.points[list(verts)]
        assert np.linalg.norm(rec - X[r]) <= 1e-9
        costs = np.sum((X[r] - g.points[list(verts)]) ** 2, axis=1)
        assert lam[r] @ costs == pytest.approx(vals_direct[r], abs=1e-9)


def test_hull_mask_matches_lp_feasibility():
    rng = np.random.default_rng(seed + 9)
    g = random_grid(rng, 12)
    tri = triangulate(g)
    X = rng.uniform(-0.2, 1.2, size=(200, 2))
    mask = hull_mask(tri, X)
    for xi, m in zip(X, mask):
        assert m == in_convex_hull(g, xi)
