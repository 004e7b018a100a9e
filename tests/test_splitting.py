import itertools

import numpy as np
import pytest

from dualquant.batch import BatchSolver
from dualquant.cubature import convex_dominance_check
from dualquant.errors import InfeasibleError, SampleOutsideHullError
from dualquant.geometry import Grid, NormSpec
from dualquant.lp import local_dq_solve, local_dq_value
from dualquant.rng import RngStream
from dualquant.splitting import (interpolate, nn_project, pick, split, split_extended,
                                 split_many)

seed = 424242
S2 = NormSpec("l2", 2)


def _cube_grid():
    """The unit cube's corners, pinned, and 22 random points."""
    corners = list(itertools.product((0.0, 1.0), repeat=3))
    extra = np.random.default_rng(1).random((22, 3))
    return Grid(np.vstack([corners, extra]), pinned=range(8))


def _product_grid():
    axis = np.linspace(0.0, 1.0, 5)
    return Grid(np.array(list(itertools.product(axis, repeat=2))))


# One grid per BatchSolver path: (name, grid, spec, path)
PATH_GRIDS = [
    ("unsorted1d", Grid([0.5, 0.0, 1.0, 0.2]), S2, "segments"),
    ("random2d", Grid(np.random.default_rng(9).uniform(size=(9, 2))), S2,
     "simplicial"),
    ("cube3d", _cube_grid(), S2, "simplicial"),
    ("product2d", _product_grid(), S2, "simplicial"),  # every row tied
    ("l1", Grid(np.random.default_rng(9).uniform(size=(9, 2))),
     NormSpec("l1", 2), "lp"),
]


def _interior_rows(grid, m, rng_seed):
    """m random convex combinations of the grid points."""
    w = np.random.default_rng(rng_seed).exponential(size=(m, grid.n))
    return (w / w.sum(axis=1, keepdims=True)) @ grid.points


def _lp_draw(grid, xi, spec, rng):
    """The reference rule: the LP's basis and ``pick`` inside the hull,
    the nearest grid point (no uniform drawn) outside."""
    try:
        sol = local_dq_solve(grid, xi, spec)
    except InfeasibleError:
        return nn_project(grid, xi, spec), "exterior"
    return sol.basis[int(pick(sol.weights, rng.uniform()))], "interior"


def test_rng_stream_reproducible():
    a = RngStream(7).uniform(10)
    b = RngStream(7).uniform(10)
    assert np.array_equal(a, b)
    c = RngStream(8).uniform(10)
    assert not np.array_equal(a, c)


def test_rng_substreams_independent_and_deterministic():
    root = RngStream(7)
    s1 = root.substream(0).uniform(8)
    s2 = root.substream(1).uniform(8)
    assert not np.array_equal(s1, s2)
    assert np.array_equal(s1, RngStream(7).substream(0).uniform(8))


def test_rng_rejects_negative_seed():
    with pytest.raises(ValueError):
        RngStream(-1)


def test_nn_project_tie_takes_smallest_index():
    g = Grid([[0.0], [1.0]])
    assert nn_project(g, np.array([0.5]), S2) == 0
    assert nn_project(g, np.array([0.9]), S2) == 1


def test_split_frequencies_match_weights():
    g = Grid([[0.0], [1.0]])
    rng = RngStream(seed)
    n = 20000
    hits = sum(split(g, np.array([0.25]), S2, rng).index == 0 for _ in range(n))
    p = hits / n
    sigma = np.sqrt(0.75 * 0.25 / n)
    assert abs(p - 0.75) <= 4 * sigma


def test_split_outcome_fields():
    g = Grid([[0.0], [1.0]])
    out = split(g, np.array([0.25]), S2, RngStream(1))
    assert out.mode == "interior"
    assert out.basis == (0, 1)
    assert np.allclose(out.weights, [0.75, 0.25], atol=1e-12)
    assert out.index in (0, 1)
    assert np.array_equal(out.point, g.points[out.index])


def test_split_requires_interior():
    # the compact solver's own error, an InfeasibleError
    g = Grid([[0, 0], [1, 0], [0, 1]])
    with pytest.raises(SampleOutsideHullError):
        split(g, np.array([1.0, 1.0]), S2, RngStream(1))
    with pytest.raises(SampleOutsideHullError):
        split_many(g, np.array([1.0, 1.0]), S2, RngStream(1), 5)
    with pytest.raises(SampleOutsideHullError):
        interpolate(g, lambda x: 1.0, np.array([1.0, 1.0]), S2)


def test_split_rejects_badly_shaped_points():
    g = Grid([[0, 0], [1, 0], [0, 1]])
    for xi in (np.array([0.2]), np.array([0.2, 0.2, 0.2]),
               np.array([[0.2, 0.2]])):
        for call in (lambda: split(g, xi, S2, RngStream(1)),
                     lambda: split_extended(g, xi, S2, RngStream(1)),
                     lambda: split_many(g, xi, S2, RngStream(1), 3),
                     lambda: interpolate(g, lambda x: 1.0, xi, S2)):
            with pytest.raises(ValueError):
                call()
    with pytest.raises(ValueError):
        convex_dominance_check(g, lambda x: 1.0, [[0.2, 0.2, 0.2]])


def test_split_extended_projects_outside():
    g = Grid([[0, 0], [1, 0], [0, 1]])
    out = split_extended(g, np.array([1.0, 1.0]), S2, RngStream(1))
    assert out.mode == "exterior"
    assert out.index == 1  # tie between (1,0) and (0,1): smaller index
    assert out.basis is None
    # on every path, a seeded sequence of interior and exterior points
    # gives the LP rule's draws; outside, no uniform is drawn
    for name, grid, spec, _ in PATH_GRIDS:
        lo, hi = grid.points.min(axis=0), grid.points.max(axis=0)
        X = np.random.default_rng(4).uniform(lo - 0.2 * (hi - lo),
                                             hi + 0.2 * (hi - lo),
                                             size=(60, grid.dim))
        rng, ref_rng = RngStream(5), RngStream(5)
        modes = set()
        for x in X:
            out = split_extended(grid, x, spec, rng)
            want = _lp_draw(grid, x, spec, ref_rng)
            assert (out.index, out.mode) == want, name
            modes.add(out.mode)
        assert modes == {"interior", "exterior"}, name


def test_1d_ends_and_grid_points_take_the_lp():
    # the LP holds a point up to its tolerance past the ends, and at a
    # grid point its basis is not the bracketing pair
    g = Grid([0.0, 0.5, 1.0])
    for x in (1 + 1e-12, -1e-12, 0.0, 0.5, 1.0):
        xi = np.array([x])
        ref = local_dq_solve(g, xi, S2)
        out = split(g, xi, S2, RngStream(3))
        assert out.basis == ref.basis
        assert np.array_equal(out.weights, ref.weights)
        want = sum(w * (1 + p[0]) for w, p in zip(ref.weights,
                                                   g.points[list(ref.basis)]))
        assert interpolate(g, lambda p: 1 + p[0], xi, S2) == want
        assert BatchSolver(g, S2).values(xi[None])[0] == ref.value
    # the optimal basis at the end: (0, 2) carries the same weights, but
    # its dual line passes above the cost of point 1
    assert split(g, np.array([1 + 1e-12]), S2, RngStream(3)).basis == (1, 2)
    past = np.array([1 + 1e-8])  # past the LP's tolerance
    with pytest.raises(SampleOutsideHullError):
        split(g, past, S2, RngStream(3))
    assert split_extended(g, past, S2, RngStream(3)).mode == "exterior"


def test_split_at_vertex_returns_it():
    g = Grid([[0.0], [0.5], [1.0]])
    rng = RngStream(seed)
    for _ in range(50):
        assert split(g, np.array([0.5]), S2, rng).index == 1


def test_split_deterministic_for_fixed_seed():
    g = Grid(np.random.default_rng(3).uniform(size=(12, 2)))
    xi = np.array([0.4, 0.45])
    run1 = [split(g, xi, S2, RngStream(99)).index for _ in range(64)]
    run2 = [split(g, xi, S2, RngStream(99)).index for _ in range(64)]
    assert run1 == run2


def test_stationarity_empirical_mean():
    rng_np = np.random.default_rng(6)
    g = Grid(rng_np.uniform(size=(10, 2)))
    xi = np.array([0.5, 0.5])
    rng = RngStream(seed + 1)
    n = 20000
    pts = np.array([split(g, xi, S2, rng).point for _ in range(n)])
    mean = pts.mean(axis=0)
    sig = pts.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean - xi) <= 4 * sig + 1e-12)


def test_pathwise_identity_recovers_local_error():
    g = Grid([[0.0], [1.0]])
    xi = np.array([0.25])
    rng = RngStream(seed + 2)
    n = 20000
    vals = np.array(
        [np.sum((xi - split(g, xi, S2, rng).point) ** 2) for _ in range(n)]
    )
    target = local_dq_value(g, xi, S2)  # 0.1875
    sig = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - target) <= 4 * sig


def test_split_many_matches_scalar_split():
    g = Grid(np.random.default_rng(9).uniform(size=(9, 2)))
    xi = np.array([0.45, 0.5])
    rng = RngStream(77)
    scalar = [split(g, xi, S2, rng).index for _ in range(500)]
    vector = split_many(g, xi, S2, RngStream(77), 500)
    assert scalar == list(vector)
    # on every path both equal the LP's basis picked with the same uniforms
    for name, grid, spec, path in PATH_GRIDS:
        assert BatchSolver(grid, spec).path == path, name
        xi = _interior_rows(grid, 1, 3)[0]
        rng = RngStream(78)
        scalar = [split(grid, xi, spec, rng).index for _ in range(200)]
        vector = split_many(grid, xi, spec, RngStream(78), 200)
        ref = local_dq_solve(grid, xi, spec)
        lp = np.asarray(ref.basis)[pick(ref.weights, RngStream(78).uniform(200))]
        assert scalar == list(vector) == list(lp), name


def test_split_on_a_tie_draws_from_the_lp_basis():
    # the unit square is cocircular: (0, 1, 2) and (0, 1, 3) both hold
    # (0.3, 0.3) optimally, and the LP keeps the smaller one
    g = Grid([[0, 0], [1, 0], [0, 1], [1, 1]])
    xi = np.array([0.3, 0.3])
    assert local_dq_solve(g, xi, S2).basis == (0, 1, 2)
    assert split(g, xi, S2, RngStream(3)).basis == (0, 1, 2)
    draws = split_many(g, xi, S2, RngStream(3), 3000)
    freq = np.bincount(draws, minlength=4) / len(draws)
    assert freq[3] == 0.0
    assert np.allclose(freq[:3], [0.4, 0.3, 0.3], atol=0.04)
    # on every path, split's basis and weights are the LP's, and its draw
    # is the LP basis picked with the same uniform
    for name, grid, spec, _ in PATH_GRIDS:
        for k, x in enumerate(_interior_rows(grid, 25, 4)):
            out = split(grid, x, spec, RngStream(k))
            ref = local_dq_solve(grid, x, spec)
            assert out.basis == ref.basis, name
            np.testing.assert_allclose(out.weights, ref.weights, rtol=0,
                                       atol=1e-12, err_msg=name)
            u = RngStream(k).uniform()
            assert out.index == ref.basis[int(pick(ref.weights, u))], name


def _select_loop(basis, weights, u):
    """Reference cumulative-weight rule, one vertex at a time."""
    cum = 0.0
    for idx, w in zip(basis, weights):
        cum += max(float(w), 0.0)
        if u < cum:
            return int(idx)
    return int(basis[-1])


def test_pick_matches_the_loop_rule():
    rng = np.random.default_rng(seed + 3)
    W = rng.uniform(-0.2, 1.0, size=(400, 4))
    W[rng.uniform(size=W.shape) < 0.25] = 0.0
    cum = np.cumsum(np.maximum(W, 0.0), axis=1)
    U = rng.uniform(0.0, 1.2, size=400) * cum[:, -1]
    # uniforms exactly on a cumulative sum, and at or above the total
    U[:100] = cum[np.arange(100), rng.integers(0, 4, size=100)]
    U[100:120] = cum[100:120, -1]
    basis = np.arange(4)
    want = [_select_loop(basis, w, u) for w, u in zip(W, U)]
    assert list(pick(W, U)) == want
    assert [int(pick(w, u)) for w, u in zip(W, U)] == want
    assert list(pick(W[0], U[:50])) == [_select_loop(basis, W[0], u) for u in U[:50]]


def test_interpolate_examples():
    g = Grid([[0.0], [1.0]])
    assert interpolate(g, lambda x: x[0] ** 2, np.array([0.3]), S2) == pytest.approx(0.3)
    # affine functions are reproduced exactly
    assert interpolate(g, lambda x: 3 * x[0] - 1, np.array([0.3]), S2) == pytest.approx(
        -0.1, abs=1e-12
    )
    # on every path, the LP's weighted sum
    F = lambda x: float(np.exp(x.sum()))
    for name, grid, spec, _ in PATH_GRIDS:
        for x in _interior_rows(grid, 25, 5):
            ref = local_dq_solve(grid, x, spec)
            want = sum(w * F(grid.points[i])
                       for i, w in zip(ref.basis, ref.weights))
            assert abs(interpolate(grid, F, x, spec) - want) <= 1e-12, name


def test_interpolate_dominates_convex_functions():
    rng_np = np.random.default_rng(8)
    g = Grid(rng_np.uniform(-1, 1, size=(12, 2)))
    for F in (lambda x: x @ x, lambda x: np.exp(x[0] + x[1])):
        for _ in range(40):
            xi = rng_np.uniform(-0.3, 0.3, size=2)
            val = interpolate(g, F, xi, S2)
            assert val >= F(xi) - 1e-12
