"""End-to-end acceptance checks.

Each test verifies one headline guarantee of the package at its stated
tolerance and prints a single PASS line with the measured figures
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import time

import numpy as np

from dualquant.cubature import second_order_report
from dualquant.delaunay import (
    dq_solve_delaunay,
    incircle_det,
    incircle_eps,
    triangulate,
)
from dualquant.distributions import make_uniform_box
from dualquant.geometry import EUCLIDEAN_QUADRATIC as S2
from dualquant.geometry import Grid, NormSpec
from dualquant.lp import enumerate_bases_oracle, local_dq_solve, local_dq_value
from dualquant.metrics import (
    dq_values_batch,
    exact_1d_dq_error,
    exact_1d_voronoi_error,
    mc_dq_error,
    product_bound,
    product_grid,
    rate_fit,
    scalar_bound,
    theoretical_1d_uniform,
    voronoi_1d_uniform_optimum,
)
from dualquant.optim1d import gradient_1d, newton_solve
from dualquant.optimnd import TrainConfig, mc_gradient, train
from dualquant.rng import RngStream
from dualquant.splitting import split_many

U1 = make_uniform_box([0.0], [1.0])
U2 = make_uniform_box([0.0, 0.0], [1.0, 1.0])
CORNERS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))


def _report(tag: str, detail: str) -> None:
    print(f"PASS [{tag}] {detail}")


def test_01_exact_1d_uniform_optimum():
    t0 = time.perf_counter()
    targets = {3: 1 / 24, 11: 1 / 600}
    worst_pt = 0.0
    worst_err = 0.0
    for n, target in targets.items():
        rep = newton_solve(U1, n, mode="compact")
        pts = rep.grid.points[:, 0]
        worst_pt = max(worst_pt, np.abs(pts - np.linspace(0, 1, n)).max())
        err = exact_1d_dq_error(rep.grid, U1)
        worst_err = max(worst_err, abs(err - target))
        assert np.allclose(pts, np.linspace(0, 1, n), atol=1e-8)
        assert abs(err - target) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("01 exact-1d-optimum",
            f"n=3,11 max point dev {worst_pt:.2e}, "
            f"max error dev {worst_err:.2e}, {elapsed:.3f}s")


def test_02_dual_voronoi_ratio():
    n = 101
    _, dn = theoretical_1d_uniform(n)
    _, en = voronoi_1d_uniform_optimum(n)
    ratio = (dn ** 0.5) / (en ** 0.5)
    target = np.sqrt(2.0)
    assert abs(ratio - target) <= 0.01 * target + 1e-12
    _report("02 dual-voronoi-ratio",
            f"n=101 ratio {ratio:.6f} vs sqrt(2)={target:.6f} "
            f"({abs(ratio / target - 1) * 100:.3f}% off)")


def test_03_lp_matches_basis_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    kinds = ("l2", "l1", "linf")
    exponents = (1.0, 1.5, 2.0, 3.0)
    worst = 0.0
    for case in range(500):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d + 1, 9))
        grid = Grid(rng.normal(size=(n, d)))
        pts = grid.points
        w = rng.dirichlet(np.ones(n))
        xi = w @ pts
        spec = NormSpec(kinds[case % 3], exponents[case % 4])
        fast = local_dq_value(grid, xi, spec)
        slow = enumerate_bases_oracle(grid, xi, spec)
        rel = abs(fast - slow) / (1.0 + abs(slow))
        worst = max(worst, rel)
        assert rel <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("03 lp-vs-enumeration",
            f"500 instances d<=3 n<=8, worst rel dev {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_04_triangulation_fast_path_equals_lp():
    rng = np.random.default_rng(7)
    worst = 0.0
    n_grids = 5
    for _ in range(n_grids):
        grid = Grid(rng.uniform(size=(30, 2)))
        tri = triangulate(grid)
        # no grid point strictly inside any triangle's circumcircle
        for t in tri.triangles:
            pa, pb, pc = (grid.points[v] for v in t)
            for j in range(grid.n):
                if j in t:
                    continue
                det = incircle_det(pa, pb, pc, grid.points[j])
                assert det <= incircle_eps(pa, pb, pc, grid.points[j])
        for _ in range(200):
            w = rng.dirichlet(np.ones(30))
            xi = w @ grid.points
            fast = dq_solve_delaunay(grid, xi, S2).value
            slow = local_dq_value(grid, xi, S2)
            dev = abs(fast - slow)
            worst = max(worst, dev)
            assert dev <= 1e-9
    _report("04 delaunay-fast-path",
            f"{n_grids} grids x 200 queries, worst |fast-lp| {worst:.2e}, "
            "incircle invariant holds")


def test_05_intrinsic_stationarity():
    rng = np.random.default_rng(11)
    grid = Grid(rng.uniform(size=(12, 2)))
    worst = 0.0
    for _ in range(100):
        w = rng.dirichlet(np.ones(12))
        xi = w @ grid.points
        sol = local_dq_solve(grid, xi, S2)
        recon = np.asarray(sol.weights) @ grid.points[list(sol.basis)]
        dev = np.abs(recon - xi).max()
        worst = max(worst, dev)
        assert dev <= 1e-10
        assert abs(sum(sol.weights) - 1.0) <= 1e-10
    xi = np.array([0.41, 0.37])
    n_draws = 100_000
    idx = split_many(grid, xi, S2, RngStream(5), n_draws)
    outcomes = grid.points[idx]
    mean = outcomes.mean(axis=0)
    se = outcomes.std(axis=0, ddof=1) / np.sqrt(n_draws)
    assert np.all(np.abs(mean - xi) <= 4.0 * se)
    _report("05 stationarity",
            f"worst |sum(lam x)-xi| {worst:.2e} over 100 queries; "
            f"split mean dev {np.abs(mean - xi).max():.2e} "
            f"<= 4se {(4 * se).max():.2e} over {n_draws} draws")


def test_06_second_order_cubature():
    n_mc = 200_000
    quad1 = lambda x: float(x[0] ** 2)
    rep1 = second_order_report(Grid([0.0, 1.0]), U1, S2, quad1, 2.0,
                               n_mc, RngStream(31))
    d2_1 = mc_dq_error(Grid([0.0, 1.0]), U1, S2, n_mc, RngStream(31))
    tol1 = 4.0 * np.hypot(rep1.error_std, d2_1.std_error)
    assert abs(rep1.cubature_error - d2_1.value) <= tol1
    assert abs(rep1.cubature_error - 1 / 6) <= 4.0 * rep1.error_std

    rng = np.random.default_rng(3)
    grid2 = Grid(np.vstack([np.asarray(CORNERS),
                            rng.uniform(size=(8, 2))]))
    quad2 = lambda x: float(x @ x)
    rep2 = second_order_report(grid2, U2, S2, quad2, 2.0, n_mc,
                               RngStream(33), extended=True)
    d2_2 = mc_dq_error(grid2, U2, S2, n_mc, RngStream(33), extended=True)
    tol2 = 4.0 * np.hypot(rep2.error_std, d2_2.std_error)
    assert abs(rep2.cubature_error - d2_2.value) <= tol2

    aff1 = second_order_report(Grid([0.0, 1.0]), U1, S2,
                               lambda x: 2.0 * x[0] - 0.5, 0.0,
                               n_mc, RngStream(35))
    aff2 = second_order_report(grid2, U2, S2,
                               lambda x: float(x[0] - 0.25 * x[1] + 1.0),
                               0.0, n_mc, RngStream(36), extended=True)
    assert aff1.cubature_error <= 4.0 * aff1.error_std
    assert aff2.cubature_error <= 4.0 * aff2.error_std
    _report("06 second-order-cubature",
            f"1d err {rep1.cubature_error:.5f} vs mc {d2_1.value:.5f} "
            f"(tol {tol1:.1e}); 2d dev "
            f"{abs(rep2.cubature_error - d2_2.value):.1e} (tol {tol2:.1e}); "
            f"affine devs {aff1.cubature_error:.1e}, "
            f"{aff2.cubature_error:.1e}")


def test_07_bounds_never_violated():
    rng = np.random.default_rng(41)
    n_xi = 100_000
    worst_margin = np.inf
    for _ in range(20):
        n = int(rng.integers(2, 9))
        pts = np.sort(rng.uniform(-2, 2, size=n))
        while len(np.unique(pts)) < n:
            pts = np.sort(rng.uniform(-2, 2, size=n))
        grid = Grid(pts)
        bound = scalar_bound(grid)
        xi = rng.uniform(pts[0], pts[-1], size=(n_xi, 1))
        vals = dq_values_batch(grid, xi, S2)
        worst_margin = min(worst_margin, bound - vals.max())
        assert vals.max() <= bound + 1e-12
    for m, ell in ((1, 1.0), (2, 1.0), (3, 2.0), (2, 0.5), (4, 1.0)):
        box = ([0.0, 0.0], [ell, ell])
        grid = product_grid(box, m)
        bound = product_bound(2, ell, m, S2)
        xi = rng.uniform(0.0, ell, size=(n_xi, 2))
        vals = dq_values_batch(grid, xi, S2, extended=True)
        assert vals.max() <= bound + 1e-12
    center_grid = product_grid(([0.0, 0.0], [1.0, 1.0]), 1)
    center_val = float(dq_values_batch(center_grid,
                                       np.array([[0.5, 0.5]]), S2)[0])
    tight = product_bound(2, 1.0, 1, S2)
    assert abs(center_val - tight) <= 1e-9
    _report("07 bounds",
            f"20 1d grids + 5 product grids x {n_xi} samples all within "
            f"bounds; m=1 center value {center_val:.9f} = bound "
            f"{tight:.9f}")


def test_08_product_rate_slope():
    t0 = time.perf_counter()
    ms = (1, 2, 4, 8)
    errors = []
    for m in ms:
        grid = product_grid(([0.0, 0.0], [1.0, 1.0]), m)
        est = mc_dq_error(grid, U2, S2, 1_000_000, RngStream(17))
        errors.append(est.value)
    slope = rate_fit([m * m for m in ms], errors, p=2)
    elapsed = time.perf_counter() - t0
    assert abs(slope - (-0.5)) <= 0.05
    assert elapsed < 120.0
    _report("08 rate-slope",
            f"m={ms} -> slope {slope:.4f} (target -0.5 +/- 0.05), "
            f"{elapsed:.1f}s at 1e6 samples/point")


def test_09_strict_error_decrease():
    errs = []
    for n in range(3, 11):
        grid, _ = theoretical_1d_uniform(n)
        errs.append(exact_1d_dq_error(grid, U1))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    _report("09 strict-decrease",
            "exact 1d uniform errors n=3..10 strictly decreasing: "
            + " > ".join(f"{e:.2e}" for e in errs))


def test_10_training_improves_and_reproduces():
    t0 = time.perf_counter()
    seed = 7
    cfg = TrainConfig(steps=1_000_000, anchors=CORNERS, seed=seed,
                      refine_iters=5, refine_samples=50_000)
    rep_a = train(U2, 16, cfg)
    rep_b = train(U2, 16, cfg)
    assert np.array_equal(rep_a.grid.points, rep_b.grid.points)
    init = train(U2, 16, TrainConfig(steps=0, anchors=CORNERS,
                                     seed=seed)).grid
    eval_rng = RngStream(2718)
    err_trained = mc_dq_error(rep_a.grid, U2, S2, 200_000, eval_rng,
                              extended=True)
    err_init = mc_dq_error(init, U2, S2, 200_000, eval_rng, extended=True)
    assert err_trained.value < err_init.value
    assert err_trained.value < 1 / 3  # the bare 4-corner grid's error
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report("10 training-improvement",
            f"n=16 corners pinned 1e6 steps + refine: {err_trained.value:.5f}"
            f" < init {err_init.value:.5f} and < 1/3; bit-reproducible; "
            f"{elapsed:.1f}s")


def test_11_gradient_matches_differences():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.1, 0.9, size=(6, 2))
    grid = Grid(pts)
    n_mc = 40_000
    grad, gstd = mc_gradient(grid, U2, S2, n_mc, RngStream(77),
                             return_std=True)
    X = np.asarray(U2.sampler(RngStream(901).substream(0), n_mc))
    h = 1e-3
    worst = 0.0
    for (i, j) in ((0, 0), (2, 1), (5, 0)):
        up, dn = pts.copy(), pts.copy()
        up[i, j] += h
        dn[i, j] -= h
        d = (dq_values_batch(Grid(up), X, S2, extended=True)
             - dq_values_batch(Grid(dn), X, S2, extended=True)) / (2 * h)
        fd_std = float(d.std(ddof=1) / np.sqrt(n_mc))
        dev = abs(grad[i, j] - float(d.mean()))
        tol = 4.0 * np.hypot(gstd[i, j], fd_std) + 1e-4 * h
        worst = max(worst, dev / tol)
        assert dev <= tol

    g1 = Grid([0.0, 0.3, 1.0])
    exact = gradient_1d(g1, U1, "extended")
    grad1, std1 = mc_gradient(g1, U1, S2, 60_000, RngStream(13),
                              return_std=True)
    dev1 = np.abs(grad1[:, 0] - exact)
    assert np.all(dev1 <= 4.0 * std1[:, 0] + 1e-12)
    _report("11 gradient-agreement",
            f"2d central-difference dev <= {worst:.2f} of tolerance; "
            f"1d exact-gradient dev max {dev1.max():.2e}")
