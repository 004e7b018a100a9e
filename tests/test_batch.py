import numpy as np
import pytest

from dualquant.batch import BatchSolver, shard_reduce
from dualquant.cubature import second_order_report, weights
from dualquant.delaunay import triangulate
from dualquant.distributions import make_normal, make_uniform_box
from dualquant.errors import InfeasibleError, SampleOutsideHullError
from dualquant.geometry import EUCLIDEAN_QUADRATIC as S2
from dualquant.geometry import Grid, NormSpec
from dualquant.lp import local_dq_solve
from dualquant.metrics import mc_dq_error
from dualquant.optimnd import mc_gradient
from dualquant.rng import RngStream
from dualquant.splitting import nn_project

U1 = make_uniform_box([0.0], [1.0])
U2 = make_uniform_box([0.0, 0.0], [1.0, 1.0])


def _random_grid(n, seed):
    return Grid(np.random.default_rng(seed).uniform(0.1, 0.9, size=(n, 2)))


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


def test_planar_weights_equal_lp_picks():
    grid = _random_grid(8, 11)
    n = 4000
    rng = RngStream(23)
    table = weights(grid, U2, S2, n, rng, extended=True)
    X = np.asarray(U2.sampler(rng.substream(0), n), dtype=float)
    u = rng.substream(1).uniform(n)
    # the fast path lists a triangle's vertices in its mesh order
    mesh = {frozenset(t): t for t in triangulate(grid).triangles}
    counts = np.zeros(grid.n, dtype=int)
    for x, ui in zip(X, u):
        try:
            sol = local_dq_solve(grid, x, S2)
        except InfeasibleError:
            counts[nn_project(grid, x, S2)] += 1
            continue
        verts = mesh[frozenset(sol.basis)]
        lam = dict(zip(sol.basis, sol.weights))
        cum = np.cumsum([max(lam[v], 0.0) for v in verts])
        counts[verts[min(int((cum <= ui).sum()), 2)]] += 1
    assert np.array_equal(np.round(table.weights * n).astype(int), counts)
