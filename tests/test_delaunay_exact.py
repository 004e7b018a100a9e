"""Exactness contracts of the planar Delaunay layer.

The mesh and the drawing of a seeded grid are pinned by digest,
location in a batch follows ``locate``'s tie rule and does not depend on
the other rows or on the blocks a batch is cut into, weights keep above
the floor the edge slack allows, the mesh, the located triangles, the
hull test, the values and the spatial duals do not depend on units or
origin, the hull test agrees with LP feasibility, and degenerate input
raises a typed error.
"""

import hashlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualquant import delaunay
from dualquant.delaunay import (EDGE_TOL, batch_solve, batch_values,
                                dq_solve_delaunay, hull_mask, locate,
                                orient2d, triangulate)
from dualquant.errors import FlatGridError
from dualquant.geometry import EUCLIDEAN_QUADRATIC, Grid, in_convex_hull
from dualquant.metrics import product_grid
from dualquant.svgplot import render_grid_svg


def random_points(seed=64):
    return np.random.default_rng(seed).uniform(0, 1, size=(64, 2))


def ring_points(seed=256):
    """240 standard normal draws inside a fixed ring of 16 points."""
    angles = 2.0 * np.pi * np.arange(16) / 16
    ring = 3.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    x = np.random.default_rng(seed).standard_normal((1000, 2))
    r_in = 3.0 * np.cos(np.pi / 16)
    x = x[(x * x).sum(axis=1) < r_in * r_in][:240]
    return np.vstack([ring, x])


def product_points(m):
    return product_grid(([0.0, 0.0], [1.0, 1.0]), m).points


def mesh_digest(tri):
    h = hashlib.sha256()
    h.update(np.asarray(tri.triangles, dtype=np.int64).tobytes())
    h.update(np.asarray(tri.neighbors, dtype=np.int64).tobytes())
    return h.hexdigest()


# digests of the Bowyer-Watson meshes the Qhull backend replaced
GOLDEN = {
    "random64": (random_points, 115,
                 "15b176d9cead72708b2c279981fb90d1d801357b6b9dac8ebb60e4de00b20b3a"),
    "ring256": (ring_points, 494,
                "221894db9da713c30978a6a3443f223484e5be66ce674cce1d04be7eae6915df"),
    "product1": (lambda: product_points(1), 2,
                 "1e40e9b8aee7ea47a07cf8f6a9cb0e375856f5124860e9919d7e61b713406f04"),
    "product2": (lambda: product_points(2), 8,
                 "b50731ea60661720e7a54b5e47a0cdb09fb9484e2fc91361efa5f5cd1964985d"),
    "product4": (lambda: product_points(4), 32,
                 "98f3fbdea08e5f73b533cc802c8f5dbbef63ab3467feefdba476a96eb58da70f"),
    "product8": (lambda: product_points(8), 128,
                 "51a014f45135ce1702c0ae74d22d0f6fab3f24105b1f55858fc082c3ad5c8812"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_mesh_digest_is_pinned(name):
    make, n_triangles, digest = GOLDEN[name]
    tri = triangulate(Grid(make()))
    assert tri.n_triangles == n_triangles
    assert mesh_digest(tri) == digest


# digests of render_grid_svg's markup, with and without the hull outline
SVG_GOLDEN = {
    ("random64", True):
        "62e7c7dd725705a6689efc6b1600eadb4a22ed6d96b394cbb2465ce5d11e7982",
    ("random64", False):
        "332ea4a566b9513946d9adac346f39aaac00c16fca7e1de4c332e945b912e527",
    ("ring256", True):
        "5181f9846275585dbd4f9b7646a92ef99808d6784efea8e4ce5425ae0fec7a17",
    ("ring256", False):
        "eacc337e5f4b277c5899c69c8979da4b9dcf3939c95dfc043a053fe57bed348a",
    ("product4", True):
        "5adca08e95d3e42ab0c3a5a334ac261e0a57d7b5cfbfb14fff92401b9d8d85dc",
    ("product4", False):
        "44e83f03b115a8058988f1cc69e5c271474af1fe96bd0f0386913a604e44b1af",
}


@pytest.mark.parametrize("name,show_hull", sorted(SVG_GOLDEN))
def test_drawing_is_pinned(name, show_hull):
    svg = render_grid_svg(Grid(GOLDEN[name][0]()), show_hull=show_hull)
    assert (hashlib.sha256(svg.encode()).hexdigest()
            == SVG_GOLDEN[name, show_hull])


def grid_and_edge_points(tri):
    """Every grid point, and the points 0.3, 0.5 and 0.7 along each edge."""
    P = tri.points
    edges = sorted({(min(a, b), max(a, b)) for i, j, k in tri.triangles
                    for a, b in ((i, j), (j, k), (k, i))})
    a, b = P[[e[0] for e in edges]], P[[e[1] for e in edges]]
    along = [(1.0 - w) * a + w * b for w in (0.3, 0.5, 0.7)]
    return np.vstack([P] + along)


@pytest.mark.parametrize("points", [random_points(), product_points(4),
                                    product_points(8)],
                         ids=["random64", "product4", "product8"])
def test_batch_solve_ties_follow_locate(points):
    tri = triangulate(Grid(points))
    X = grid_and_edge_points(tri)
    tidx, _ = batch_solve(tri, X)
    expect = [locate(tri, x) for x in X]
    assert tidx.tolist() == [-1 if t is None else t for t in expect]


@pytest.mark.parametrize("points", [random_points(), ring_points(),
                                    product_points(4), product_points(8)],
                         ids=["random64", "ring256", "product4", "product8"])
def test_batch_solve_rows_are_independent(points):
    tri = triangulate(Grid(points))
    lo, hi = points.min(axis=0), points.max(axis=0)
    rng = np.random.default_rng(7)
    step = delaunay.LOCATE_BLOCK // (3 * tri.n_triangles)  # rows per block
    X = np.vstack([rng.uniform(lo - 0.1, hi + 0.1,
                               size=(max(300, 2 * step), 2)),
                   grid_and_edge_points(tri)[::3]])
    X = X[rng.permutation(len(X))]
    assert len(X) > 2 * step  # so the seams between blocks are crossed
    tidx, lam = batch_solve(tri, X)
    for i in range(len(X)):
        t1, l1 = batch_solve(tri, X[i:i + 1])
        assert t1[0] == tidx[i]
        assert np.array_equal(l1[0], lam[i])


def test_weights_keep_above_the_slack_floor():
    # ring256's grid and edge points pushed 1e-6 away from the centroid:
    # rows on the hull leave it, and some rows are held only within the
    # slack of a small triangle's edge, so their weight goes negative
    points = ring_points()
    tri = triangulate(Grid(points))
    X = grid_and_edge_points(tri)
    tidx, lam = batch_solve(tri, X + 1e-6 * (X - points.mean(axis=0)))
    inside = tidx >= 0
    a, b, c = (points[np.asarray(tri.triangles)[tidx[inside], k]]
               for k in range(3))
    edges = np.stack([c - b, a - c, b - a], axis=1)  # opposite a, b, c
    slack = EDGE_TOL * tri.mesh.span * np.abs(edges).sum(axis=2)
    floor = -slack / orient2d(*a.T, *b.T, *c.T)[:, None]
    assert lam[inside].min() < 0.0
    assert np.all(lam[inside] >= floor - 1e-12)


@pytest.mark.parametrize("points", [random_points(), ring_points(),
                                    product_points(8)],
                         ids=["random64", "ring256", "product8"])
@pytest.mark.parametrize("scale,offset", [(1e-3, 0.0), (1e3, 0.0),
                                          (1e6, 0.0), (1e3, 1e6),
                                          (1.0, 1e6), (1e-3, 1e6)])
def test_mesh_does_not_depend_on_units_or_origin(points, scale, offset):
    unit = triangulate(Grid(points))
    moved = triangulate(Grid(scale * points + offset))
    assert moved.triangles == unit.triangles
    assert moved.neighbors == unit.neighbors


@pytest.mark.parametrize("points", [random_points(), ring_points(),
                                    product_points(8)],
                         ids=["random64", "ring256", "product8"])
@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_hull_mask_matches_lp_feasibility(points, offset):
    # grid and edge points lie on or inside the hull; pushed 1e-6 away
    # from the centroid, those on the boundary leave it
    points = points + offset
    grid = Grid(points)
    tri = triangulate(grid)
    X = grid_and_edge_points(tri)
    X = np.vstack([X, X + 1e-6 * (X - points.mean(axis=0))])
    mask = hull_mask(tri, X)
    assert mask.tolist() == [in_convex_hull(grid, x) for x in X]
    assert not mask.all()


GRIDS = {"random64": random_points, "ring256": ring_points,
         "product8": lambda: product_points(8)}


@lru_cache(maxsize=None)
def unit_probes(name):
    """The grid, its mesh, and probes: every grid point, plus uniform
    draws around the hull that keep 1e-3 of the grid's diameter from
    every edge.  Moving the grid to scale 1e-6 and offset 1e6 rounds its
    coordinates by about 4e-5 of its diameter, which cannot carry such a
    probe across an edge; grid points round exactly as the grid does."""
    points = GRIDS[name]()
    tri = triangulate(Grid(points))
    lo, hi = points.min(axis=0), points.max(axis=0)
    X = np.random.default_rng(5).uniform(lo - 0.1 * (hi - lo),
                                         hi + 0.1 * (hi - lo), size=(200, 2))
    edges = np.array(sorted({(min(a, b), max(a, b)) for t in tri.triangles
                             for a, b in zip(t, t[1:] + t[:1])}))
    a, ab = points[edges[:, 0]], points[edges[:, 1]] - points[edges[:, 0]]
    w = np.clip(np.einsum("rek,ek->re", X[:, None] - a, ab)
                / np.sum(ab * ab, axis=1), 0.0, 1.0)
    gap = np.linalg.norm(X[:, None] - a - w[..., None] * ab, axis=2)
    X = X[gap.min(axis=1) > 1e-3 * np.linalg.norm(hi - lo)]
    return points, tri, np.vstack([points, X])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(GRIDS)), log_scale=st.floats(-6.0, 6.0),
       shift=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_location_does_not_depend_on_units_or_origin(name, log_scale, shift):
    points, unit, X = unit_probes(name)
    scale = 10.0 ** log_scale
    offset = 1e6 * np.array(shift)
    moved = triangulate(Grid(scale * points + offset))
    assert moved.triangles == unit.triangles
    Xm = scale * X + offset
    assert np.array_equal(batch_solve(moved, Xm)[0], batch_solve(unit, X)[0])
    assert np.array_equal(hull_mask(moved, Xm), hull_mask(unit, X))
    assert ([locate(moved, x) for x in Xm[::16]]
            == [locate(unit, x) for x in X[::16]])


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("scale,offset", [(1e3, 0.0), (1.0, 1e6),
                                          (1e-3, 1e6)])
def test_values_and_duals_do_not_depend_on_units_or_origin(name, scale,
                                                          offset):
    # F^2 scales as s^2 and the spatial dual 2(z - xi) as s; the probes
    # keep away from every edge, so both meshes locate them alike
    points, unit, X = unit_probes(name)
    X = X[len(points):]
    X = X[hull_mask(unit, X)]
    grid = Grid(scale * points + offset)
    moved, Xm = triangulate(grid), scale * X + offset
    ref = batch_values(unit, X)
    np.testing.assert_allclose(batch_values(moved, Xm), scale ** 2 * ref,
                               rtol=0, atol=1e-4 * scale ** 2 * ref.max())
    u = [dq_solve_delaunay(grid, x, EUCLIDEAN_QUADRATIC).u_spatial
         for x in Xm]
    u_ref = [dq_solve_delaunay(Grid(points), x,
                               EUCLIDEAN_QUADRATIC).u_spatial for x in X]
    diameter = np.linalg.norm(np.ptp(points, axis=0))
    np.testing.assert_allclose(u, scale * np.array(u_ref), rtol=0,
                               atol=1e-4 * scale * diameter)


def test_collinear_grid_raises_typed_error():
    # more than three points so that Qhull itself rejects the input
    pts = np.column_stack([np.linspace(0, 1, 6), np.linspace(0, 2, 6)])
    with pytest.raises(FlatGridError):
        triangulate(Grid(pts))


def test_near_duplicate_points_raise_typed_error():
    # Grid accepts points 1e-15 apart; Qhull would drop one of them
    pts = np.vstack([product_points(2), [[0.5, 0.5 + 1e-15]]])
    grid = Grid(pts)
    with pytest.raises(FlatGridError):
        triangulate(grid)
