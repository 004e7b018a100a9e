import itertools

import numpy as np
import pytest

from dualquant import _simplex
from dualquant.batch import BatchSolver
from dualquant.distributions import DistributionSpec, make_normal, make_uniform_box
from dualquant.errors import NonDifferentiableError
from dualquant.geometry import EUCLIDEAN_QUADRATIC as S2
from dualquant.geometry import Grid, NormSpec
from dualquant.lp import local_dq_solve
from dualquant.metrics import DEFAULT_CHUNK, dq_values_batch, mc_dq_error
from dualquant.optim1d import gradient_1d
from dualquant.optimnd import (
    _GRADIENT_ROWS,
    TrainConfig,
    TrainReport,
    cvlq_step,
    mc_gradient,
    refine,
    train,
)
from dualquant.rng import RngStream

TRIANGLE = Grid([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
U2 = make_uniform_box([0.0, 0.0], [1.0, 1.0])
CORNERS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
U3 = make_uniform_box([0.0] * 3, [1.0] * 3)
CUBE = tuple(itertools.product((0.0, 1.0), repeat=3))


def _point_mass(xi):
    xi = np.asarray(xi, dtype=float)

    def sampler(rng, n):
        return np.tile(xi, (n, 1))

    return DistributionSpec("point", len(xi), sampler)


def test_cvlq_step_example():
    out = cvlq_step(TRIANGLE, [1 / 3, 1 / 3], 0.3)
    np.testing.assert_allclose(out.points[0], [0.05, 0.05], atol=1e-12)
    np.testing.assert_allclose(out.points[1], [0.95, 0.05], atol=1e-12)
    np.testing.assert_allclose(out.points[2], [0.05, 0.95], atol=1e-12)


def test_cvlq_step_zero_alpha_is_identity():
    out = cvlq_step(TRIANGLE, [0.2, 0.3], 0.0)
    assert np.array_equal(out.points, TRIANGLE.points)


def test_cvlq_step_vertex_moves_only_that_point():
    out = cvlq_step(TRIANGLE, [0.0, 0.0], 0.3)
    np.testing.assert_allclose(out.points[0], [0.15, 0.15], atol=1e-12)
    assert np.array_equal(out.points[1:], TRIANGLE.points[1:])


def test_cvlq_step_respects_pins():
    g = Grid(TRIANGLE.points, pinned={0})
    out = cvlq_step(g, [1 / 3, 1 / 3], 0.3)
    assert np.array_equal(out.points[0], g.points[0])
    assert out.pinned == {0}


def test_cvlq_step_outside_pulls_nearest_neighbour():
    out = cvlq_step(TRIANGLE, [2.0, 2.0], 0.3)
    np.testing.assert_allclose(out.points[1], [1.3, 0.6], atol=1e-12)
    assert np.array_equal(out.points[0], TRIANGLE.points[0])
    assert np.array_equal(out.points[2], TRIANGLE.points[2])


def test_cvlq_step_matches_solution_movement():
    rng = np.random.default_rng(8)
    g = Grid(rng.uniform(size=(7, 2)))
    w = rng.dirichlet(np.ones(7))
    xi = w @ g.points
    sol = local_dq_solve(g, xi, S2)
    out = cvlq_step(g, xi, 0.2)
    moved = dict(zip(sol.basis, sol.weights))
    z = sol.z_star()
    for i in range(g.n):
        if i in moved:
            want = g.points[i] - 0.2 * moved[i] * (g.points[i] - z)
            np.testing.assert_allclose(out.points[i], want, atol=1e-13)
        else:
            assert np.array_equal(out.points[i], g.points[i])


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(steps=1, a=0.0)
    with pytest.raises(ValueError):
        TrainConfig(steps=1, b=0.5)
    cfg = TrainConfig(steps=1, anchors=[[0, 0], [1, 1]])
    assert cfg.anchors == ((0.0, 0.0), (1.0, 1.0))


def test_train_zero_steps_returns_initial_grid():
    cfg = TrainConfig(steps=0, anchors=CORNERS, seed=3)
    rep = train(U2, 10, cfg)
    assert isinstance(rep, TrainReport)
    assert rep.grid.n == 10 and rep.grid.pinned == {0, 1, 2, 3}
    np.testing.assert_array_equal(rep.grid.points[:4], np.asarray(CORNERS))
    assert rep.outside_fraction == 0.0
    rep2 = train(U2, 10, cfg)
    assert np.array_equal(rep.grid.points, rep2.grid.points)


def test_train_is_bit_reproducible():
    cfg = TrainConfig(steps=3000, anchors=CORNERS, seed=11)
    a = train(U2, 12, cfg)
    b = train(U2, 12, cfg)
    assert np.array_equal(a.grid.points, b.grid.points)
    assert a.outside_fraction == b.outside_fraction


def test_train_improves_over_initial_grid():
    init = train(U2, 16, TrainConfig(steps=0, anchors=CORNERS, seed=11)).grid
    rep = train(U2, 16, TrainConfig(steps=30_000, anchors=CORNERS, seed=11))
    before = mc_dq_error(init, U2, S2, 100_000, RngStream(1234))
    after = mc_dq_error(rep.grid, U2, S2, 100_000, RngStream(1234))
    assert after.value < before.value
    assert after.value < 1 / 3  # the four-corner product grid's level


def test_train_pins_never_move():
    rep = train(U2, 12, TrainConfig(steps=5000, anchors=CORNERS, seed=2))
    np.testing.assert_array_equal(rep.grid.points[:4], np.asarray(CORNERS))


def test_train_normal_2d_completes():
    rep = train(make_normal(dim=2), 30, TrainConfig(steps=3000, seed=4))
    assert np.all(np.isfinite(rep.grid.points))
    assert 0.0 < rep.outside_fraction < 1.0


def test_train_trace_monotone_on_easy_case():
    cfg = TrainConfig(steps=3000, anchors=CORNERS, seed=5,
                      trace_every=1000, trace_samples=4096)
    rep = train(U2, 12, cfg)
    steps = [s for s, _ in rep.error_trace]
    assert steps == [0, 1000, 2000, 3000]
    vals = [e.value for _, e in rep.error_trace]
    assert all(v >= 0.0 for v in vals)
    assert vals[-1] < vals[0]


def test_train_1d_lp_route():
    dist = make_uniform_box([0.0], [1.0])
    cfg = TrainConfig(steps=800, anchors=((0.0,), (1.0,)), seed=6)
    rep = train(dist, 3, cfg)
    before = train(dist, 3, TrainConfig(steps=0, anchors=((0.0,), (1.0,)),
                                        seed=6)).grid
    a = mc_dq_error(rep.grid, dist, S2, 50_000, RngStream(42))
    b = mc_dq_error(before, dist, S2, 50_000, RngStream(42))
    assert a.value < b.value


def test_train_input_validation():
    with pytest.raises(ValueError):
        train(U2, 2, TrainConfig(steps=1))
    with pytest.raises(ValueError):
        train(U2, 3, TrainConfig(steps=1, anchors=CORNERS))


@pytest.mark.parametrize("anchors", [((0, 0, 0), (1, 1, 1)),
                                     ((0, 0), (1,))])
def test_train_rejects_anchors_of_the_wrong_dimension(anchors):
    with pytest.raises(ValueError, match="d = 2"):
        train(U2, 8, TrainConfig(steps=1, anchors=anchors))


@pytest.mark.parametrize("lo, hi", [([0.0, 0.0], [1e-9, 1e-9]),
                                    ([1e9, 1e9], [1e9 + 1.0, 1e9 + 1.0])])
def test_initial_grid_does_not_depend_on_units(lo, hi):
    rep = train(make_uniform_box(lo, hi), 8, TrainConfig(steps=0))
    assert rep.grid.n == 8
    assert np.all(rep.grid.points >= lo) and np.all(rep.grid.points <= hi)


def _lp_block(grid, X, k0, cfg):
    """The block-start grid plus the one-sample LP moves of every row of
    X, each taken on that same grid, with steps a/(b+k) from k = k0."""
    total = np.zeros_like(grid.points)
    for k, x in enumerate(X, start=k0):
        total += cvlq_step(grid, x, cfg.a / (cfg.b + k)).points - grid.points
    return grid.points + total


@pytest.mark.parametrize("dist, n, cfg", [
    (make_normal(dim=2), 12,
     TrainConfig(steps=128, anchors=((0.0, 0.0), (0.3, -0.2)), seed=3,
                 b=10.0)),
    (U3, 14, TrainConfig(steps=64, anchors=CUBE, seed=5, b=10.0)),
])
def test_block_update_equals_summed_lp_steps(dist, n, cfg):
    """Each 64-sample block moves the grid by the sum of the per-sample
    LP moves on the block-start grid.  Both answer with the same simplex:
    the 2D rows are untied, and the 3D path gives tied rows to the LP."""
    X = np.asarray(dist.sampler(RngStream(cfg.seed).substream(1),
                                cfg.steps), float)
    grid = train(dist, n, TrainConfig(steps=0, anchors=cfg.anchors,
                                      seed=cfg.seed)).grid
    pins = sorted(grid.pinned)
    exterior = 0
    for k0 in range(0, cfg.steps, 64):
        block = X[k0:k0 + 64]
        sol = BatchSolver(grid, S2, extended=True).solve(block)
        if dist.dim == 2:
            assert not sol.tied.any()
        assert np.isin(sol.basis, pins).any()  # the pin mask is exercised
        exterior += int(np.count_nonzero(sol.nearest >= 0))
        want = _lp_block(grid, block, k0, cfg)
        step = TrainConfig(steps=k0 + 64, anchors=cfg.anchors,
                           seed=cfg.seed, b=cfg.b)
        got = train(dist, n, step)
        np.testing.assert_allclose(got.grid.points, want, rtol=0, atol=1e-12)
        assert got.outside_fraction * (k0 + 64) == exterior
        grid = got.grid
    assert exterior > 0 or dist.dim == 3


def test_train_3d_cube_pins_reproduces_and_improves():
    cfg = TrainConfig(steps=300, anchors=CUBE, seed=8, trace_every=100,
                      trace_samples=2048)
    rep = train(U3, 16, cfg)
    np.testing.assert_array_equal(rep.grid.points[:8], np.asarray(CUBE))
    again = train(U3, 16, cfg)
    assert np.array_equal(rep.grid.points, again.grid.points)
    untraced = train(U3, 16, TrainConfig(steps=300, anchors=CUBE, seed=8))
    assert np.array_equal(rep.grid.points, untraced.grid.points)
    assert [s for s, _ in rep.error_trace] == [0, 100, 200, 300]
    init = train(U3, 16, TrainConfig(steps=0, anchors=CUBE, seed=8)).grid
    before = mc_dq_error(init, U3, S2, 20_000, RngStream(99), extended=True)
    after = mc_dq_error(rep.grid, U3, S2, 20_000, RngStream(99),
                        extended=True)
    assert after.value < before.value


def test_mc_gradient_single_sample_block():
    g = mc_gradient(TRIANGLE, _point_mass([1 / 3, 1 / 3]), S2, 1,
                    RngStream(0))
    np.testing.assert_allclose(g[0], [-1 / 3, -1 / 3], atol=1e-12)
    np.testing.assert_allclose(g[1], [1 / 3, -1 / 3], atol=1e-12)
    np.testing.assert_allclose(g[2], [-1 / 3, 1 / 3], atol=1e-12)


def _gradient_loop(grid, dist, spec, n_samples, rng):
    """One shard of mc_gradient as it was: np.add.at per solved block."""
    n, d, p = grid.n, grid.dim, spec.p
    solver = BatchSolver(grid, spec, extended=True)
    X = np.asarray(dist.sampler(rng.substream(0), n_samples), float)
    gs, gq = np.zeros((n, d)), np.zeros((n, d))
    exterior = 0
    for s in range(0, n_samples, _GRADIENT_ROWS):
        Xb = X[s:s + _GRADIENT_ROWS]
        sol = solver.solve(Xb)
        exterior += int(np.sum(sol.nearest >= 0))
        diff = grid.points[sol.basis] - Xb[:, None, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1, keepdims=True))
        vec = sol.weights[..., None] * (p * r ** (p - 2.0) * diff
                                        - sol.u1[:, None, :])
        idx, vec = sol.basis.ravel(), vec.reshape(-1, d)
        np.add.at(gs, idx, vec)
        np.add.at(gq, idx, vec ** 2)
    grad = gs / n_samples
    var = np.maximum(gq - n_samples * grad ** 2, 0.0) / (n_samples - 1)
    return grad, np.sqrt(var / n_samples), exterior


def _pinned_box_grid(corners, extra, seed):
    """Box corners, pinned, plus random interior points, as 2D and 3D
    training grids start."""
    rng = np.random.default_rng(seed)
    pts = np.vstack([corners, rng.uniform(size=(extra, len(corners[0])))])
    return Grid(pts, pinned=set(range(len(corners))))


GRADIENT_CASES = [
    (Grid(np.random.default_rng(4).uniform(-1.5, 1.5, size=(12, 2))),
     make_normal(dim=2), S2),
    (Grid([0.1, 0.35, 0.4, 0.8]), make_uniform_box([0.0], [1.0]),
     NormSpec("l2", 3.0)),
    (_pinned_box_grid(CORNERS, 20, 5), U2, S2),
    # the cube's corners are cospherical: its tied samples warn
    pytest.param(_pinned_box_grid(CUBE, 22, 6), U3, S2,
                 marks=pytest.mark.filterwarnings(
                     "ignore:.*gradient samples hit degenerate")),
]


@pytest.mark.parametrize("grid, dist, spec", GRADIENT_CASES)
def test_mc_gradient_matches_the_scatter_loop(grid, dist, spec):
    n = 2 * _GRADIENT_ROWS + 500  # one shard of three solved blocks
    grad, std = mc_gradient(grid, dist, spec, n, RngStream(31),
                            return_std=True)
    ref_grad, ref_std, exterior = _gradient_loop(grid, dist, spec, n,
                                                 RngStream(31))
    # only a law with mass outside the grid's box has exterior samples:
    # the corner grids' hull is their law's box
    lo, hi = grid.points.min(axis=0), grid.points.max(axis=0)
    boxed = dist.support is not None and bool(
        np.all(dist.support[0] >= lo) and np.all(dist.support[1] <= hi))
    assert (exterior == 0) == boxed
    assert np.array_equal(grad, ref_grad) and np.array_equal(std, ref_std)


@pytest.mark.parametrize("grid, dist, spec", GRADIENT_CASES)
def test_mc_gradient_without_std_matches_the_scatter_loop(grid, dist, spec):
    # p = 2 skips r^(p-2), and without return_std the squares are not
    # summed: neither changes a bit of the gradient
    n = 2 * _GRADIENT_ROWS + 500
    grad = mc_gradient(grid, dist, spec, n, RngStream(31))
    ref_grad, _, _ = _gradient_loop(grid, dist, spec, n, RngStream(31))
    assert np.array_equal(grad, ref_grad)


def test_mc_gradient_zero_at_1d_optimum():
    dist = make_uniform_box([0.0], [1.0])
    grad, std = mc_gradient(Grid([0.0, 0.5, 1.0]), dist, S2, 40_000,
                            RngStream(7), return_std=True)
    assert abs(grad[1, 0]) <= 4.0 * std[1, 0]


def test_mc_gradient_matches_exact_1d():
    dist = make_uniform_box([0.0], [1.0])
    g = Grid([0.0, 0.3, 1.0])
    exact = gradient_1d(g, dist, "extended")
    grad, std = mc_gradient(g, dist, S2, 60_000, RngStream(13),
                            return_std=True)
    for i in range(3):
        assert abs(grad[i, 0] - exact[i]) <= 4.0 * std[i, 0] + 1e-12


def test_mc_gradient_matches_crn_finite_differences():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.1, 0.9, size=(6, 2))
    g = Grid(pts)
    n_mc = 40_000
    grad, gstd = mc_gradient(g, U2, S2, n_mc, RngStream(77),
                             return_std=True)
    X = np.asarray(U2.sampler(RngStream(901).substream(0), n_mc))
    h = 1e-3
    for (i, j) in [(0, 0), (3, 1)]:
        up, dn = pts.copy(), pts.copy()
        up[i, j] += h
        dn[i, j] -= h
        d = (dq_values_batch(Grid(up), X, S2, extended=True)
             - dq_values_batch(Grid(dn), X, S2, extended=True)) / (2.0 * h)
        fd = float(d.mean())
        fd_std = float(d.std(ddof=1) / np.sqrt(n_mc))
        tol = 4.0 * np.hypot(gstd[i, j], fd_std) + 1e-4 * h
        assert abs(grad[i, j] - fd) <= tol


def test_mc_gradient_shards_do_not_consume_stream():
    rng = RngStream(55)
    a = mc_gradient(TRIANGLE, U2, S2, 4000, rng)
    b = mc_gradient(TRIANGLE, U2, S2, 4000, rng)
    assert np.array_equal(a, b)


def test_mc_gradient_rejects_nonsmooth_norms():
    with pytest.raises(NonDifferentiableError):
        mc_gradient(TRIANGLE, U2, NormSpec("l1", 2), 100, RngStream(0))
    with pytest.raises(NonDifferentiableError):
        mc_gradient(TRIANGLE, U2, NormSpec("l2", 1), 100, RngStream(0))


def test_mc_gradient_warns_on_degenerate_grid():
    square = Grid([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.warns(RuntimeWarning):
        mc_gradient(square, U2, S2, 256, RngStream(1))


def test_mc_gradient_counts_its_own_tied_samples():
    # every sample inside the cocircular square is tied
    square = Grid([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.warns(RuntimeWarning, match="^256/256 gradient samples"):
        mc_gradient(square, U2, S2, 256, RngStream(1))


def test_lp_path_gradient_solves_each_sample_once(monkeypatch):
    calls = []
    solve = _simplex.solve_standard_form
    monkeypatch.setattr(_simplex, "solve_standard_form",
                        lambda *args: calls.append(1) or solve(*args))
    rng = np.random.default_rng(4)
    g = Grid(np.vstack([CORNERS, rng.uniform(size=(8, 2))]))
    mc_gradient(g, U2, NormSpec("l2", 3.0), 200, RngStream(2))
    assert len(calls) == 200


def test_refine_zero_iterations_is_identity():
    g = Grid([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
    out = refine(g, U2, iters=0, rng=RngStream(0))
    assert out is g


def test_refine_never_hurts_fixed_seed_objective():
    rng = np.random.default_rng(10)
    g = Grid(np.vstack([np.asarray(CORNERS), rng.uniform(size=(5, 2))]),
             pinned={0, 1, 2, 3})
    seed_rng = RngStream(21)
    before = mc_dq_error(g, U2, S2, 20_000, seed_rng.substream(0),
                         extended=True).value
    out = refine(g, U2, iters=4, mc_samples=20_000, rng=RngStream(21))
    after = mc_dq_error(out, U2, S2, 20_000, seed_rng.substream(0),
                        extended=True).value
    assert after <= before
    np.testing.assert_array_equal(out.points[:4], g.points[:4])
    assert out.pinned == g.pinned


def _refine_loop(grid, dist, iters, mc_samples, rng):
    """refine as it was: every evaluation of the objective draws its
    samples again through mc_dq_error."""
    free = np.array([i not in grid.pinned for i in range(grid.n)])
    obj_rng = rng.substream(0)

    def objective(g):
        return mc_dq_error(g, dist, S2, mc_samples, obj_rng,
                           extended=True).value

    current = objective(grid)
    span = float(np.max(np.ptp(grid.points, axis=0))) or 1.0
    for it in range(iters):
        g = mc_gradient(grid, dist, S2, mc_samples, rng.substream(10 + it))
        g[~free] = 0.0
        gmax = float(np.max(np.abs(g)))
        if gmax == 0.0:
            break
        step = 0.1 * span / gmax
        accepted = False
        for _ in range(12):
            try:
                trial = grid.with_points(grid.points - step * g)
                val = objective(trial)
            except ValueError:
                val = np.inf
            if val < current:
                grid, current, accepted = trial, val, True
                break
            step /= 2.0
        if not accepted:
            break
    return grid


def _counting(dist, draws):
    """dist, with every sampler call's substream key appended to draws."""
    def sampler(stream, m):
        draws.append(stream.spawn_key)
        return dist.sampler(stream, m)

    return DistributionSpec(dist.name, dist.dim, sampler, dist.support)


@pytest.mark.parametrize("grid, dist", [
    (Grid(np.vstack([CORNERS, np.random.default_rng(8).uniform(
        0.1, 0.9, size=(12, 2))]), pinned={0, 1, 2, 3}), U2),
    (Grid(np.random.default_rng(9).uniform(-1.5, 1.5, size=(16, 2))),
     make_normal(dim=2)),  # many exterior rows
])
def test_refine_holds_its_draws_and_equals_the_redrawing_loop(grid, dist):
    n = DEFAULT_CHUNK + 500  # the objective's samples span two shards
    held, redrawn = [], []
    out = refine(grid, _counting(dist, held), iters=3, mc_samples=n,
                 rng=RngStream(12))
    ref = _refine_loop(grid, _counting(dist, redrawn), 3, n, RngStream(12))
    assert np.array_equal(out.points, ref.points)
    assert out.pinned == ref.pinned and not np.array_equal(out.points,
                                                           grid.points)
    # the objective's shards draw from substreams (0, k), the gradient's
    # from (10 + it, k)
    assert [k for k in held if k[0] == 0] == [(0, 0), (0, 1)]
    assert redrawn.count((0, 0)) > 2


def test_refine_1d_moves_interior_point_toward_optimum():
    dist = make_uniform_box([0.0], [1.0])
    g = Grid([0.0, 0.4, 1.0], pinned={0, 2})
    out = refine(g, dist, iters=30, mc_samples=50_000, rng=RngStream(9))
    assert abs(out.points[1, 0] - 0.5) < 1e-2


def test_train_with_refine_config():
    cfg = TrainConfig(steps=2000, anchors=CORNERS, seed=14,
                      refine_iters=2, refine_samples=10_000)
    rep = train(U2, 10, cfg)
    plain = train(U2, 10, TrainConfig(steps=2000, anchors=CORNERS, seed=14))
    fixed = RngStream(333)
    a = mc_dq_error(rep.grid, U2, S2, 50_000, fixed)
    b = mc_dq_error(plain.grid, U2, S2, 50_000, fixed)
    assert a.value <= b.value + 4.0 * (a.std_error + b.std_error)
