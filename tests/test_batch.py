import gc
import itertools
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from dualquant import batch, delaunay
from dualquant.batch import BatchSolver, shard_reduce
from dualquant.cubature import second_order_report, weights
from dualquant.distributions import make_normal, make_uniform_box
from dualquant.errors import InfeasibleError, SampleOutsideHullError
from dualquant.geometry import EUCLIDEAN_QUADRATIC as S2
from dualquant.geometry import Grid, NormSpec
from dualquant.lp import enumerate_bases_oracle, is_nondegenerate, local_dq_solve
from dualquant.metrics import mc_dq_error
from dualquant.optimnd import mc_gradient
from dualquant.rng import RngStream
from dualquant.splitting import nn_project, pick

U1 = make_uniform_box([0.0], [1.0])
U2 = make_uniform_box([0.0, 0.0], [1.0, 1.0])
U3 = make_uniform_box([0.0] * 3, [1.0] * 3)


def _random_grid(n, seed):
    return Grid(np.random.default_rng(seed).uniform(0.1, 0.9, size=(n, 2)))


def _product_grid(d, m):
    """The (m+1)^d product grid on the unit box: every cell is
    cospherical, so every interior row is tied."""
    axis = np.linspace(0.0, 1.0, m + 1)
    return Grid(np.array(list(itertools.product(axis, repeat=d))))


def _box_grid(d, extra, seed):
    """Unit box corners plus random points: every box face forms
    cospherical pyramids with the nearest points, so the Delaunay mesh
    has tied simplices."""
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    rng = np.random.default_rng(seed)
    return Grid(np.vstack([corners, rng.random((extra, d))]))


def test_shard_reduce_sizes_and_order():
    seen = []

    def fn(k, size):
        seen.append((k, size))
        return np.array([float(size)]), 10.0 ** k

    total, weighted = shard_reduce(10, 4, 1, fn)
    assert seen == [(0, 4), (1, 4), (2, 2)]
    assert total.tolist() == [10.0]
    assert weighted == 111.0


@pytest.mark.parametrize("grid,spec", [
    (Grid([0.2, 0.5, 0.9]), S2),
    (_random_grid(7, 4), S2),
    (_random_grid(7, 4), NormSpec("l1", 2)),
])
def test_solve_matches_lp_and_marks_exterior(grid, spec):
    d = grid.dim
    X = np.random.default_rng(5).uniform(-0.1, 1.1, size=(40, d))
    sol = BatchSolver(grid, spec, extended=True).solve(X)
    vals = BatchSolver(grid, spec, extended=True).values(X)
    for i, x in enumerate(X):
        try:
            ref = local_dq_solve(grid, x, spec)
        except InfeasibleError:
            j = nn_project(grid, x, spec)
            assert sol.nearest[i] == j
            assert sol.basis[i].tolist() == [j] * (d + 1)
            assert sol.weights[i].tolist() == [1.0] + [0.0] * d
            assert not sol.u1[i].any()
            continue
        assert sol.nearest[i] == -1
        order = np.argsort(sol.basis[i])
        assert tuple(sol.basis[i][order]) == ref.basis
        np.testing.assert_allclose(sol.weights[i][order], ref.weights,
                                   atol=1e-12)
        np.testing.assert_allclose(sol.u1[i], ref.u_spatial, atol=1e-10)
        assert vals[i] == pytest.approx(ref.value, rel=1e-9, abs=1e-12)


def test_compact_solver_raises_outside_hull():
    X = np.array([[0.5, 0.5], [2.0, 2.0]])
    for spec in (S2, NormSpec("l1", 2)):
        solver = BatchSolver(_random_grid(6, 1), spec)
        with pytest.raises(SampleOutsideHullError):
            solver.values(X)
        with pytest.raises(SampleOutsideHullError):
            solver.solve(X)


def test_results_do_not_depend_on_thread_count():
    # five shards of 1000 samples, spread over one and three threads
    grid = _random_grid(12, 7)
    normal = make_normal(dim=2)
    runs = {}
    for threads in (1, 3):
        kw = dict(chunk=1000, threads=threads)
        runs[threads] = (
            mc_dq_error(grid, normal, S2, 5000, RngStream(3), extended=True,
                        **kw),
            weights(grid, normal, S2, 5000, RngStream(4), extended=True,
                    **kw).weights,
            second_order_report(grid, normal, S2,
                                lambda x: float(np.cos(x.sum())), 2.0, 5000,
                                RngStream(5), extended=True, **kw),
        )
    (e1, w1, s1), (e3, w3, s3) = runs[1], runs[3]
    assert e1 == e3
    assert np.array_equal(w1, w3)
    assert s1 == s3


def _lp_gradient(grid, X):
    """Reference gradient: one LP (or nearest point) per sample."""
    g = np.zeros(grid.points.shape)
    for x in X:
        try:
            sol = local_dq_solve(grid, x, S2)
        except InfeasibleError:
            j = nn_project(grid, x, S2)
            g[j] += 2.0 * (grid.points[j] - x)
            continue
        for i, w in zip(sol.basis, sol.weights):
            g[i] += w * (2.0 * (grid.points[i] - x) - sol.u_spatial)
    return g / len(X)


@pytest.mark.parametrize("grid,dist", [
    (_random_grid(6, 3), U2),
    (Grid([0.1, 0.45, 0.3, 0.85]), U1),
])
def test_mc_gradient_fast_paths_match_lp(grid, dist):
    n = 3000
    rng = RngStream(19)
    X = np.asarray(dist.sampler(rng.substream(0), n), dtype=float)
    fast = mc_gradient(grid, dist, S2, n, rng)
    np.testing.assert_allclose(fast, _lp_gradient(grid, X), rtol=1e-10,
                               atol=1e-14)


@pytest.mark.parametrize("grid,dist", [
    pytest.param(_random_grid(8, 11), U2, id="random8"),
    pytest.param(_product_grid(2, 4), U2, id="product5x5"),
    pytest.param(Grid([0.5, 0.0, 1.0, 0.2]), U1, id="unsorted1d"),
])
def test_cubature_weights_equal_split_picks(grid, dist):
    # split's rule on the LP's sorted basis; on the product grid every
    # row is tied, so this pins the tie rule too, and the 1D grid stored
    # out of order pins the basis order of the segments path
    n = 4000
    rng = RngStream(23)
    table = weights(grid, dist, S2, n, rng, extended=True)
    X = np.asarray(dist.sampler(rng.substream(0), n), dtype=float)
    u = rng.substream(1).uniform(n)
    counts = np.zeros(grid.n, dtype=int)
    for x, ui in zip(X, u):
        try:
            sol = local_dq_solve(grid, x, S2)
        except InfeasibleError:
            counts[nn_project(grid, x, S2)] += 1
            continue
        counts[sol.basis[int(pick(sol.weights, ui))]] += 1
    assert np.array_equal(np.round(table.weights * n).astype(int), counts)


def test_exterior_ties_take_the_smallest_index():
    # (-3, -3) is at squared distance 25 from points 1 and 6; integer
    # grids and rows put many exterior rows on such exact ties
    grids = [Grid([[1, 6], [1, 0], [2, 0], [1, 1], [3, 2], [2, 5], [0, 1],
                   [3, 5], [3, 6]])]
    rng = np.random.default_rng(12)
    while len(grids) < 12:
        P = np.unique(rng.integers(0, 7, size=(9, 2)), axis=0)
        grids.append(Grid(rng.permutation(P)))
    axis = np.arange(-4.0, 11.0)
    X = np.array(list(itertools.product(axis, repeat=2)))
    ties = 0
    for grid in grids:
        solver = BatchSolver(grid, S2, extended=True)
        if solver.path != "simplicial":
            continue
        sol, vals = solver.solve(X), solver.values(X)
        for i in np.flatnonzero(sol.nearest >= 0):
            dists = np.sum((X[i] - grid.points) ** 2, axis=1)
            ties += np.count_nonzero(dists == dists.min()) > 1
            j = nn_project(grid, X[i], S2)
            assert sol.nearest[i] == j
            assert vals[i] == pytest.approx(dists[j], rel=1e-12)
    assert ties > 0


def test_tie_table_is_capped():
    # the 4^4 product grid's full tie table is 81 cells of C(16, 5)
    # subsets, 85 MB, and building it peaked near 240 MiB; past the cap
    # its rows take the LP's answer
    grid = _product_grid(4, 3)
    X = np.random.default_rng(3).random((8, 4))
    solver = BatchSolver(grid, S2)
    assert solver.path == "simplicial"
    tracemalloc.start()
    try:
        sol = solver.solve(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
    for x, basis, w in zip(X, sol.basis, sol.weights):
        ref = local_dq_solve(grid, x, S2)
        assert tuple(basis) == ref.basis
        np.testing.assert_allclose(w, ref.weights, rtol=0, atol=1e-12)


@pytest.mark.parametrize("grid,spec,path", [
    (Grid([0.2, 0.5, 0.9]), S2, "segments"),
    (_random_grid(7, 4), S2, "simplicial"),
    (_box_grid(3, 6, 1), S2, "simplicial"),
    (_box_grid(4, 4, 1), S2, "simplicial"),
    (_box_grid(3, 6, 1), NormSpec("l1", 2), "lp"),
    (_box_grid(3, 6, 1), NormSpec("l2", 3), "lp"),
    # Qhull rejects a flat grid, and drops a point 1e-15 from a corner
    (Grid(np.column_stack([np.random.default_rng(0).random((10, 2)),
                           np.zeros(10)])), S2, "lp"),
    (Grid(np.vstack([_box_grid(3, 0, 0).points, [[1e-15, 0.0, 0.0]]])),
     S2, "lp"),
    # a 2D grid falls back by the same rule
    (Grid(np.column_stack([np.random.default_rng(0).random(10),
                           np.zeros(10)])), S2, "lp"),
    (Grid(np.vstack([_box_grid(2, 0, 0).points, [[1e-15, 0.0]]])), S2, "lp"),
])
def test_path_is_chosen_from_dimension_and_norm(grid, spec, path):
    assert BatchSolver(grid, spec).path == path


def _hard_rows(grid, rng):
    """Random rows around the box, grid points, facet and edge points of
    the Delaunay mesh, and points on the box faces and 1e-12 past them
    (inside the hull for the LP's tolerance)."""
    d, P = grid.dim, grid.points
    S = Delaunay(P).simplices[:40]
    face, rows = rng.random((20, d)), np.arange(20)
    axis, side = rng.integers(0, d, 20), rng.integers(0, 2, 20)
    face[rows, axis] = side
    past = face.copy()
    past[rows, axis] += (2 * side - 1) * 1e-12
    return np.vstack([rng.uniform(-0.1, 1.1, size=(150, d)), P,
                      P[S[:, :d]].mean(axis=1), P[S[:, :2]].mean(axis=1),
                      face, past])


@pytest.mark.parametrize("grid", [
    pytest.param(_box_grid(3, 22, 8), id="3-22"),
    pytest.param(_box_grid(4, 6, 8), id="4-6"),
    pytest.param(_product_grid(2, 4), id="product2d"),
    pytest.param(_product_grid(3, 2), id="product3d"),
    pytest.param(_product_grid(4, 2), id="product4d"),
])
def test_simplicial_path_matches_lp(grid):
    d = grid.dim
    X = _hard_rows(grid, np.random.default_rng(d))
    solver = BatchSolver(grid, S2, extended=True)
    assert solver.path == "simplicial"
    sol, vals = solver.solve(X), solver.values(X)
    exterior = 0
    for i, x in enumerate(X):
        try:
            ref = local_dq_solve(grid, x, S2)
        except InfeasibleError:
            exterior += 1
            j = nn_project(grid, x, S2)
            assert sol.nearest[i] == j
            assert sol.basis[i].tolist() == [j] * (d + 1)
            assert vals[i] == pytest.approx(np.sum((x - grid.points[j]) ** 2),
                                            rel=1e-12)
            continue
        assert sol.nearest[i] == -1
        assert tuple(sol.basis[i]) == ref.basis
        np.testing.assert_allclose(sol.weights[i], ref.weights, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(sol.u1[i], ref.u_spatial, rtol=0,
                                   atol=1e-12)
        assert vals[i] == pytest.approx(ref.value, rel=1e-12, abs=1e-15)
    assert 0 < exterior < len(X)


def test_simplicial_compact_solver_raises_outside_hull():
    solver = BatchSolver(_box_grid(3, 10, 2), S2)
    inside = np.random.default_rng(0).random((50, 3))
    assert np.all(np.isfinite(solver.values(inside)))
    X = np.vstack([inside, [[1.5, 0.5, 0.5]]])
    with pytest.raises(SampleOutsideHullError):
        solver.values(X)
    with pytest.raises(SampleOutsideHullError):
        solver.solve(X)


def test_simplicial_results_do_not_depend_on_thread_count():
    grid = _box_grid(3, 12, 5)
    normal = make_normal(dim=3)
    runs = {}
    for threads in (1, 3):
        kw = dict(chunk=1000, threads=threads)
        runs[threads] = (
            weights(grid, normal, S2, 5000, RngStream(4), extended=True,
                    **kw).weights,
            second_order_report(grid, normal, S2,
                                lambda x: float(np.cos(x.sum())), 2.0, 5000,
                                RngStream(5), extended=True, **kw),
        )
    (w1, s1), (w3, s3) = runs[1], runs[3]
    assert np.array_equal(w1, w3)
    assert s1 == s3


def _lp_degenerate(grid, X, spec):
    """Per row: the LP solution is not strictly complementary (exterior
    rows are not)."""
    out = np.zeros(len(X), dtype=bool)
    for i, x in enumerate(X):
        try:
            out[i] = not is_nondegenerate(grid, x, spec)
        except InfeasibleError:
            pass
    return out


@pytest.mark.parametrize("grid,dist,spec", [
    (_box_grid(2, 0, 0), U2, S2),
    (_box_grid(3, 0, 0), U3, S2),
    (_box_grid(3, 22, 1), U3, S2),
    (_random_grid(12, 4), U2, S2),
    (_box_grid(2, 8, 9), U2, S2),
    (Grid([0.0, 0.3, 0.7, 1.0]), make_normal(0.5, 0.4), S2),
    (_box_grid(2, 8, 9), U2, NormSpec("l2", 3.0)),
    (_box_grid(2, 0, 0), U2, NormSpec("l1", 1.0)),  # every row tied
], ids=[f"grid{i}-dist{i}" for i in range(5)] + ["segments", "lp-l2-p3",
                                                 "lp-l1-p1"])
def test_tied_rows_equal_lp_probe_failures(grid, dist, spec):
    for seed in (1, 2):
        X = np.asarray(dist.sampler(RngStream(seed).substream(0x7FFFFFFF),
                                    64), float)
        solver = BatchSolver(grid, spec, extended=True)
        assert np.array_equal(solver.solve(X).tied,
                              _lp_degenerate(grid, X, spec))


def _random_rows(rng, P, m):
    """Convex combinations of the grid points (inside the hull) and
    uniform draws from the bounding box (some outside)."""
    w = rng.exponential(size=(m, len(P)))
    lo, hi = P.min(axis=0), P.max(axis=0)
    return np.vstack([(w / w.sum(axis=1, keepdims=True)) @ P,
                      rng.uniform(lo, hi, size=(m, P.shape[1]))])


@given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3),
       st.lists(st.floats(-577.0, 577.0), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_simplicial_values_scale_with_the_grid(seed, s, c):
    # F(s grid + c, s xi + c) = s^2 F(grid, xi); |c| <= 1e3.  Rounding
    # s x + c moves a point by up to 1e-10 of the grid span at s = 1e-3,
    # so the unit-scale side takes the moved points mapped back, which
    # is exact: the property then checks the solver, not that rounding.
    rng = np.random.default_rng(seed)
    P = rng.random((12, 3))
    X = _random_rows(rng, P, 30)
    c = np.asarray(c)
    Pm, Xm = s * P + c, s * X + c
    base = BatchSolver(Grid((Pm - c) / s), S2, extended=True)
    moved = BatchSolver(Grid(Pm), S2, extended=True)
    assert base.path == moved.path == "simplicial"
    np.testing.assert_allclose(moved.values(Xm) / s ** 2,
                               base.values((Xm - c) / s), rtol=1e-9)


@given(st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3),
       st.lists(st.floats(-577.0, 577.0), min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_planar_values_scale_with_the_grid(seed, s, c):
    # the 2D case of the property above, moved points mapped back
    rng = np.random.default_rng(seed)
    P = rng.random((12, 2))
    X = _random_rows(rng, P, 30)
    c = np.asarray(c)
    Pm, Xm = s * P + c, s * X + c
    base = BatchSolver(Grid((Pm - c) / s), S2, extended=True)
    moved = BatchSolver(Grid(Pm), S2, extended=True)
    assert base.path == moved.path == "simplicial"
    np.testing.assert_allclose(moved.values(Xm) / s ** 2,
                               base.values((Xm - c) / s), rtol=1e-9)


@pytest.mark.parametrize("c", [1e3, 1e6])
def test_planar_values_far_from_the_origin_equal_oracle(c):
    # values of about 0.02 on a grid shifted by c keep 1e-9 absolute
    grid = _random_grid(12, 4)
    Pm = grid.points + c
    X = _random_rows(np.random.default_rng(2), grid.points, 20)[:20]
    Xm = X + c
    solver = BatchSolver(Grid(Pm), S2)
    assert solver.path == "simplicial"
    vals = solver.values(Xm)
    ref = [enumerate_bases_oracle(Grid(Pm - c), x, S2) for x in Xm - c]
    np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-9)


@given(st.integers(0, 2 ** 32 - 1), st.integers(5, 10))
@settings(max_examples=25, deadline=None)
def test_simplicial_values_equal_oracle(seed, n):
    rng = np.random.default_rng(seed)
    grid = Grid(rng.random((n, 3)))
    X = _random_rows(rng, grid.points, 8)[:8]
    vals = BatchSolver(grid, S2).values(X)
    for x, v in zip(X, vals):
        assert v == pytest.approx(enumerate_bases_oracle(grid, x, S2),
                                  rel=1e-9, abs=1e-15)


def _cube_grid(seed):
    """lp3d's grid: the unit cube's corners, pinned, and 22 random
    points."""
    return Grid(_box_grid(3, 22, seed).points, pinned=range(8))


LOCATION_GRIDS = [
    pytest.param(_random_grid(64, 1), id="random64"),
    pytest.param(_random_grid(256, 2), id="random256"),
    pytest.param(_random_grid(1024, 3), id="random1024"),
    *(pytest.param(_product_grid(2, m), id=f"product{m}") for m in (1, 2, 4, 8)),
    pytest.param(_cube_grid(3), id="cube3d"),
    pytest.param(Grid(_random_grid(64, 1).points + 1e6), id="shifted1e6"),
]


def _location_rows(path, seed):
    """Rows in random order: uniform draws over the grid's box grown by
    a fifth on each side (some exterior), 40 grid points, and points
    halfway and a quarter along edges of 20 simplices."""
    P, S, d = path.grid.points, path.mesh.qhull.simplices, path.grid.dim
    lo, hi = P.min(axis=0), P.max(axis=0)
    rng = np.random.default_rng(seed)
    S = S[rng.permutation(len(S))[:20]]
    edges = [t * P[S[:, i]] + (1 - t) * P[S[:, j]]
             for i, j in itertools.combinations(range(d + 1), 2)
             for t in (0.5, 0.25)]
    X = np.vstack([rng.uniform(lo - (hi - lo) / 5, hi + (hi - lo) / 5,
                               size=(2000, d)),
                   P[rng.permutation(len(P))[:40]], *edges])
    return X[rng.permutation(len(X))]


def _batches(path, X):
    """Batches on both sides of the ordering rule: as many rows as the
    mesh has simplices (walked as given), one more, and all rows."""
    T = len(path.mesh.qhull.simplices)
    return [X[:T], X[:T + 1], X]


def _one_simplex(path, Xc):
    """Rows outside the mesh or more than 1e-9 inside a simplex (in
    barycentric weight): every walk, ordered or not, ends there.  A row
    on a facet (a grid point, an edge) may end in any simplex holding
    it, and an unordered walk's choice depends on the row before it."""
    s = path.mesh.qhull.find_simplex(Xc)
    return (s < 0) | (_barycentric(path, Xc, s).min(axis=1) > 1e-9)


def _barycentric(path, Xc, s):
    T = path.mesh.qhull.transform[s]
    c = np.einsum("nij,nj->ni", T[:, :-1], Xc - T[:, -1])
    return np.column_stack([c, 1.0 - c.sum(axis=1)])


@pytest.mark.parametrize("grid", LOCATION_GRIDS)
def test_ordered_location_equals_find_simplex(grid, monkeypatch):
    path = batch._Simplicial(grid, extended=True)
    walked = []
    find = path.mesh.qhull.find_simplex
    monkeypatch.setattr(path.mesh.qhull, "find_simplex",
                        lambda Y: walked.append(Y) or find(Y))
    T, m = len(path.mesh.qhull.simplices), path.mesh.buckets[-1]
    for Xb in _batches(path, _location_rows(path, 0)):
        Xc = Xb - path.mesh.center
        got = path.mesh.find(Xc)
        ordered = len(Xb) > T and m >= delaunay.SORT_MIN_BUCKETS
        assert not np.array_equal(walked[-1], Xc) == ordered
        ref = find(Xc)
        assert np.array_equal(got < 0, ref < 0)
        one = _one_simplex(path, Xc)
        assert np.array_equal(got[one], ref[one])
        inside = got >= 0
        assert _barycentric(path, Xc[inside], got[inside]).min() >= -1e-9


@pytest.mark.parametrize("grid", LOCATION_GRIDS)
def test_ordered_location_changes_no_result(grid, monkeypatch):
    solver = BatchSolver(grid, S2, extended=True)
    path = solver._path
    batches = _batches(path, _location_rows(path, 1))
    got = [(solver.values(X), solver.solve(X)) for X in batches]
    monkeypatch.setattr(delaunay, "SORT_MIN_BUCKETS", 2 ** 16)  # as given
    for X, (vals, sol) in zip(batches, got):
        for a, b in zip(vars(sol).values(), vars(solver.solve(X)).values()):
            assert np.array_equal(a, b)
        one = _one_simplex(path, X - path.mesh.center)
        ref = solver.values(X)
        assert np.array_equal(vals[one], ref[one])
        # on a facet both simplices' closed forms hold, up to rounding
        np.testing.assert_allclose(vals, ref, rtol=0,
                                   atol=1e-10 * path.mesh.span ** 2)


def test_bucket_key_takes_non_finite_rows(monkeypatch):
    path = batch._Simplicial(_random_grid(64, 1), extended=True)
    rng = np.random.default_rng(3)
    X = rng.uniform(0.0, 1.0, size=(400, 2))
    bad = rng.choice(len(X), 8, replace=False)
    X[bad] = [[np.inf, 0.5], [-np.inf, 0.5], [np.inf, -np.inf],
              [0.5, np.nan], [np.nan, np.nan], [1e300, 0.5],
              [1e300, -1e300], [-1e300, np.inf]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = path._locate(X)
        monkeypatch.setattr(delaunay, "SORT_MIN_BUCKETS", 2 ** 16)
        ref = path._locate(X)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b, equal_nan=True)
    assert got[3][bad].all()  # exterior


def _clip_key(mesh, Xc):
    """Mesh._bucket_key as np.clip wrote it."""
    lo, hi, scale, m = mesh.buckets
    cell = (np.clip(Xc, lo, hi) - lo) * scale
    cell = np.fmin(cell, m - 1, out=cell).astype(np.uint16)
    key = cell[:, 0]
    for a in range(1, Xc.shape[1]):
        key = key * m + np.where(key & 1, m - 1 - cell[:, a], cell[:, a])
    return key


@pytest.mark.parametrize("span", [1.0, 1e-6, 1e-9])
def test_bucket_key_equals_the_clip_formula(span):
    # the scale is about 14 / span: at span 1e-9 a key that scaled a row
    # before clamping it would overflow on 1e300 (warnings are errors)
    mesh = delaunay.Mesh(span * _random_grid(64, 1).points)
    lo, hi, scale, m = mesh.buckets
    assert scale.min() > 1.0 / span
    # per axis: at lo and hi, past both, +-inf, NaN, +-1e300
    special = [[lo[a], hi[a], lo[a] - span, hi[a] + span, np.inf, -np.inf,
                np.nan, 1e300, -1e300] for a in range(2)]
    rng = np.random.default_rng(5)
    Xc = np.vstack([list(itertools.product(*special)),
                    rng.uniform(lo - span, hi + span, size=(500, 2))])
    key = mesh._bucket_key(Xc)
    assert key.dtype == np.uint16
    assert np.array_equal(key, _clip_key(mesh, Xc))
    assert len(np.unique(key)) > m  # the rows fill many buckets


def _estimates(grid_for, dist, spec, n):
    """mc_dq_error, weights and, under l2, second_order_report and
    mc_gradient, each on the grid ``grid_for()`` gives."""
    out = [
        mc_dq_error(grid_for(), dist, spec, n, RngStream(3), extended=True),
        weights(grid_for(), dist, spec, n, RngStream(4),
                extended=True).weights,
    ]
    if spec.kind == "l2":
        out.append(second_order_report(grid_for(), dist, spec,
                                       lambda x: float(np.cos(x.sum())), 2.0,
                                       n, RngStream(5), extended=True))
        out.extend(mc_gradient(grid_for(), dist, spec, n, RngStream(6),
                               return_std=True))
    return out


@pytest.mark.filterwarnings("ignore:.*samples hit degenerate")
@pytest.mark.parametrize("grid,dist,spec,n", [
    pytest.param(Grid([0.0, 0.2, 0.5, 0.9, 1.0]), U1, S2, 2000, id="1d"),
    pytest.param(_random_grid(12, 3), U2, S2, 2000, id="random2d"),
    pytest.param(_cube_grid(1), U3, S2, 2000, id="cube3d"),
    pytest.param(_product_grid(2, 3), U2, S2, 2000, id="product2d"),
    pytest.param(_random_grid(8, 2), U2, NormSpec("l1", 2), 64, id="l1"),
])
def test_estimators_on_one_grid_equal_fresh_grids(grid, dist, spec, n):
    # back to back on one Grid the estimators share its mesh; each on a
    # fresh Grid of the same points they build their own
    shared = _estimates(lambda: grid, dist, spec, n)
    fresh = _estimates(lambda: Grid(grid.points), dist, spec, n)
    assert shared[0] == fresh[0]
    assert all(np.array_equal(a, b) for a, b in zip(shared[1:], fresh[1:]))


def test_reused_grid_keeps_each_solvers_own_setting():
    grid = _random_grid(6, 1)
    X = np.array([[0.5, 0.5], [2.0, 2.0]])
    BatchSolver(grid, S2, extended=True).values(X)
    with pytest.raises(SampleOutsideHullError):
        BatchSolver(grid, S2).values(X)
    assert BatchSolver(grid, S2).path == "simplicial"
    assert BatchSolver(grid, NormSpec("l1", 2)).path == "lp"


def test_one_mesh_per_grid_across_estimators(monkeypatch):
    # lp3d's per-grid sequence; its samples all fall inside the cube, so
    # the hull planes, needed only for rows outside the mesh, are never
    # built
    counts = {"Delaunay": 0, "ConvexHull": 0}

    def counting(module, name):
        build = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return build(*args, **kwargs)
        return wrapper

    for module, name in ((delaunay, "Delaunay"), (batch, "ConvexHull")):
        monkeypatch.setattr(module, name, counting(module, name))
    grid = _cube_grid(2)
    mc_dq_error(grid, U3, S2, 32, RngStream(1), extended=True)
    weights(grid, U3, S2, 32, RngStream(2), extended=True)
    second_order_report(grid, U3, S2, lambda x: float(np.cos(x.sum())), 3.0,
                        32, RngStream(2), extended=True)
    assert counts == {"Delaunay": 1, "ConvexHull": 0}


def test_batch_values_shares_the_callers_mesh(monkeypatch):
    # triangulate's mesh is its own; batch_values and the estimators
    # share BatchSolver's one mesh of the caller's grid
    builds, build = [], delaunay.Delaunay
    monkeypatch.setattr(delaunay, "Delaunay",
                        lambda *a, **kw: builds.append(1) or build(*a, **kw))
    grid = _random_grid(64, 7)
    X = np.random.default_rng(8).uniform(size=(200, 2))
    tri = delaunay.triangulate(grid)
    first = delaunay.batch_values(tri, X)
    assert np.array_equal(delaunay.batch_values(tri, X), first)
    mc_dq_error(grid, U2, S2, 256, RngStream(1), extended=True)
    assert np.array_equal(delaunay.batch_values(tri, X), first)
    assert len(builds) == 2


def test_dropped_grid_is_freed():
    grid = _random_grid(10, 5)
    BatchSolver(grid, S2, extended=True)
    dropped = weakref.ref(grid)
    del grid
    for seed in (6, 7):
        BatchSolver(_random_grid(10, seed), S2, extended=True)
    gc.collect()
    assert dropped() is None


def test_threads_sharing_the_slot_get_serial_results():
    grids = [_random_grid(10, 20), _cube_grid(21), _product_grid(2, 2)]
    dists = [U2, U3, U2]

    def cycle():
        return [mc_dq_error(g, dist, S2, 200, RngStream(k), extended=True)
                for k, (g, dist) in enumerate(zip(grids, dists))]

    serial = cycle()
    results, errors = [], []

    def work():
        try:
            for _ in range(6):
                results.append(cycle())
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(results) == 8 * 6
    assert all(r == serial for r in results)


def test_lp_path_nearest_is_blocked():
    # 20 000 exterior rows on a 256-point grid: the whole
    # rows x points x d difference array peaked near 195 MiB
    rng = np.random.default_rng(17)
    grid = Grid(rng.random((256, 2)))
    X = 2.0 + 3.0 * rng.random((20_000, 2))
    spec = NormSpec("l1", 2)
    path = batch._PerRowLP(grid, spec, extended=True)
    tracemalloc.start()
    try:
        j, dist = path.nearest(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert list(j) == [nn_project(grid, x, spec) for x in X]
    np.testing.assert_array_equal(
        dist, np.abs(X - grid.points[j]).sum(axis=1) ** 2)
