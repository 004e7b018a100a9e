import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from dualquant.cli import _make_integrand
from dualquant.cubature import (
    SecondOrderReport,
    WeightTable,
    convex_dominance_check,
    expect,
    second_order_report,
    weights,
    weights_and_report,
    weights_exact_1d,
)
from dualquant.distributions import (
    DistributionSpec,
    make_exponential,
    make_uniform_box,
)
from dualquant.errors import SampleOutsideHullError
from dualquant.geometry import EUCLIDEAN_QUADRATIC as S2
from dualquant.geometry import Grid, NormSpec
from dualquant.lp import local_dq_solve
from dualquant.metrics import exact_1d_dq_error, mc_dq_error
from dualquant.rng import RngStream

U1 = make_uniform_box([0.0], [1.0])
U2 = make_uniform_box([0.0, 0.0], [1.0, 1.0])
TRIANGLE = Grid([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def _random_grid(seed, n_extra=6):
    rng = np.random.default_rng(seed)
    corners = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    return Grid(np.vstack([corners, rng.uniform(size=(n_extra, 2))]))


def _point_mass(xi):
    xi = np.atleast_1d(np.asarray(xi, dtype=float))

    def sampler(rng, n):
        return np.tile(xi, (n, 1))

    return DistributionSpec("point", len(xi), sampler)


def test_weight_table_validation():
    g = Grid([0.0, 1.0])
    with pytest.raises(ValueError):
        WeightTable(g, np.array([1.0]), 10)
    with pytest.raises(ValueError):
        WeightTable(g, np.array([-0.1, 1.1]), 10)
    with pytest.raises(ValueError):
        WeightTable(g, np.array([0.6, 0.6]), 10)
    t = WeightTable(g, np.array([0.5, 0.5]), 10)
    with pytest.raises(ValueError):
        t.weights[0] = 0.0


def test_weights_two_point_uniform():
    n = 100_000
    t = weights(Grid([0.0, 1.0]), U1, S2, n, RngStream(3))
    sigma = np.sqrt(0.25 / n)
    np.testing.assert_allclose(t.weights, [0.5, 0.5], atol=4 * sigma)
    assert t.n_samples == n and t.seed == 3


def test_weights_three_point_uniform():
    n = 200_000
    t = weights(Grid([0.0, 0.5, 1.0]), U1, S2, n, RngStream(4))
    for w, p in zip(t.weights, (0.25, 0.5, 0.25)):
        assert abs(w - p) <= 4 * np.sqrt(p * (1 - p) / n)


def test_weights_point_mass_at_vertex():
    t = weights(TRIANGLE, _point_mass([0.0, 0.0]), S2, 500, RngStream(5))
    np.testing.assert_array_equal(t.weights, [1.0, 0.0, 0.0])


def test_weights_point_mass_matches_barycentric():
    xi = [0.2, 0.3]
    n = 20_000
    sol = local_dq_solve(TRIANGLE, xi, S2)
    lam = dict(zip(sol.basis, sol.weights))
    t = weights(TRIANGLE, _point_mass(xi), S2, n, RngStream(6))
    for i in range(3):
        p = lam.get(i, 0.0)
        assert abs(t.weights[i] - p) <= 4 * np.sqrt(p * (1 - p) / n) + 1e-12


def test_weights_generic_norm_path():
    xi = [0.2, 0.3]
    n = 20_000
    spec = NormSpec("l1", 2)
    sol = local_dq_solve(TRIANGLE, xi, spec)
    lam = dict(zip(sol.basis, sol.weights))
    t = weights(TRIANGLE, _point_mass(xi), spec, n, RngStream(16))
    for i in range(3):
        p = lam.get(i, 0.0)
        assert abs(t.weights[i] - p) <= 4 * np.sqrt(p * (1 - p) / n) + 1e-12


def test_weights_exact_1d_uniform():
    t = weights_exact_1d(Grid([0.0, 0.5, 1.0]), U1)
    np.testing.assert_allclose(t.weights, [0.25, 0.5, 0.25], atol=1e-14)
    assert t.n_samples == 0


def test_weights_exact_1d_handles_unsorted_grids():
    t = weights_exact_1d(Grid([0.5, 1.0, 0.0]), U1)
    np.testing.assert_allclose(t.weights, [0.5, 0.25, 0.25], atol=1e-14)


def test_weights_exact_matches_mc_extended():
    g = Grid([0.2, 1.0, 2.5])
    dist = make_exponential(1.0)
    n = 200_000
    exact = weights_exact_1d(g, dist, extended=True)
    mc = weights(g, dist, S2, n, RngStream(7), extended=True)
    for w, p in zip(mc.weights, exact.weights):
        assert abs(w - p) <= 4 * np.sqrt(p * (1 - p) / n) + 1e-12


def test_weights_exact_1d_requires_hull_coverage():
    with pytest.raises(SampleOutsideHullError):
        weights_exact_1d(Grid([0.25, 1.0]), U1)


def test_weights_compact_raises_outside_hull():
    with pytest.raises(SampleOutsideHullError):
        weights(Grid([0.25, 0.75]), U1, S2, 2000, RngStream(8))
    with pytest.raises(SampleOutsideHullError):
        weights(TRIANGLE, U2, S2, 2000, RngStream(8))


def test_weights_validation():
    with pytest.raises(ValueError):
        weights(TRIANGLE, U1, S2, 100, RngStream(0))
    with pytest.raises(ValueError):
        weights(TRIANGLE, U2, S2, 0, RngStream(0), extended=True)


def test_weights_reproducible_and_stream_preserving():
    rng = RngStream(44)
    a = weights(Grid([0.0, 0.5, 1.0]), U1, S2, 30_000, rng)
    b = weights(Grid([0.0, 0.5, 1.0]), U1, S2, 30_000, rng)
    assert np.array_equal(a.weights, b.weights)


def test_expect_constants_and_indicators():
    t = weights_exact_1d(Grid([0.0, 0.5, 1.0]), U1)
    assert abs(expect(t, lambda x: 7.0) - 7.0) <= 1e-12
    ind = lambda x: float(abs(x[0] - 0.5) < 1e-9)
    assert expect(t, ind) == t.weights[1]
    assert expect(t, lambda x: x[0]) == pytest.approx(0.5, abs=1e-14)


def test_expect_transfers_mean_in_2d():
    n = 200_000
    t = weights(_random_grid(2), U2, S2, n, RngStream(9), extended=True)
    tol = 4 * 0.5 / np.sqrt(n)  # coordinate variance is at most 1/4
    assert abs(expect(t, lambda x: x[0]) - 0.5) <= tol
    assert abs(expect(t, lambda x: x[1]) - 0.5) <= tol
    vec = expect(t, lambda x: x)
    np.testing.assert_allclose(vec, [0.5, 0.5], atol=tol)


def test_second_order_quadratic_identity_1d():
    rep = second_order_report(Grid([0.0, 1.0]), U1, S2,
                              lambda x: float(x[0] ** 2), 2.0,
                              200_000, RngStream(5))
    assert isinstance(rep, SecondOrderReport)
    assert abs(rep.cubature_error - 1 / 6) <= 4 * rep.error_std
    assert rep.satisfied


def test_second_order_quadratic_identity_2d_matches_mc():
    g = _random_grid(2)
    n = 200_000
    rep = second_order_report(g, U2, S2, lambda x: float(x @ x), 2.0,
                              n, RngStream(7), extended=True)
    d2 = mc_dq_error(g, U2, S2, n, RngStream(7), extended=True)
    tol = 4 * np.hypot(rep.error_std, d2.std_error)
    assert abs(rep.cubature_error - d2.value) <= tol
    assert rep.satisfied


def test_second_order_affine_is_exact():
    rep = second_order_report(Grid([0.0, 1.0]), U1, S2,
                              lambda x: 3.0 * x[0] - 1.0, 0.0,
                              100_000, RngStream(6))
    assert rep.cubature_error <= 4 * rep.error_std
    assert rep.bound == 0.0
    rep2 = second_order_report(_random_grid(3), U2, S2,
                               lambda x: float(1.5 * x[0] - 0.3 * x[1] + 2.0),
                               0.0, 100_000, RngStream(9), extended=True)
    assert rep2.cubature_error <= 4 * rep2.error_std


def test_second_order_cosine_bound():
    g = Grid([0.0, 0.5, 1.0])
    d2 = exact_1d_dq_error(g, U1)
    assert d2 == pytest.approx(1 / 24, abs=1e-15)
    rep = second_order_report(g, U1, S2, lambda x: float(np.cos(x[0])), 1.0,
                              200_000, RngStream(10))
    assert rep.satisfied
    assert rep.cubature_error <= 1 / 24 + 4 * np.hypot(rep.error_std,
                                                       rep.bound_std)
    assert abs(rep.bound - 1 / 24) <= 4 * rep.bound_std


def test_second_order_satisfied_is_consistent():
    rep = second_order_report(Grid([0.0, 0.25, 1.0]), U1, S2,
                              lambda x: float(np.sin(3 * x[0])), 9.0,
                              50_000, RngStream(11))
    slack = 4 * np.hypot(rep.error_std, rep.bound_std)
    assert rep.satisfied == (rep.cubature_error <= rep.bound + slack)


def test_second_order_reproducible():
    args = (Grid([0.0, 1.0]), U1, S2, lambda x: float(x[0] ** 2), 2.0, 30_000)
    a = second_order_report(*args, RngStream(12))
    b = second_order_report(*args, RngStream(12))
    assert a == b


def test_second_order_validation():
    F = lambda x: float(x[0])
    with pytest.raises(ValueError):
        second_order_report(Grid([0.0, 1.0]), U1, NormSpec("l1", 2), F, 1.0,
                            100, RngStream(0))
    with pytest.raises(ValueError):
        second_order_report(Grid([0.0, 1.0]), U1, S2, F, -1.0,
                            100, RngStream(0))
    with pytest.raises(ValueError):
        second_order_report(Grid([0.0, 1.0]), U2, S2, F, 1.0,
                            100, RngStream(0))
    with pytest.raises(ValueError):
        second_order_report(Grid([0.0, 1.0]), U1, S2, F, 1.0,
                            1, RngStream(0))


POLY = (0.5, -1.0, 2.0, 0.3)
# the CLI integrands as they were written point by point
PER_POINT = {
    "quadratic": lambda x: float(np.dot(x, x)),
    "cos": lambda x: float(np.cos(np.sum(x))),
    "exp": lambda x: float(np.exp(np.sum(x))),
    "custom-poly:0.5,-1,2,0.3": lambda x: float(polyval(np.sum(x), POLY)),
}
ONE_PASS_CASES = [
    (_random_grid(2), U2, False),
    (Grid(0.2 + 0.6 * _random_grid(3).points), U2, True),
    (Grid([0.0, 0.3, 0.55, 1.0]), U1, False),
    (Grid([0.2, 0.5, 0.9]), U1, True),
]


@pytest.mark.parametrize("text", sorted(PER_POINT))
@pytest.mark.parametrize("grid, dist, extended", ONE_PASS_CASES)
def test_one_pass_equals_separate_calls(text, grid, dist, extended):
    F_rows, lip = _make_integrand(text, None, grid, dist)
    args = (grid, dist, S2)
    table, rep = weights_and_report(*args, F_rows, lip, 5000, RngStream(21),
                                    extended=extended)
    ref_table = weights(*args, 5000, RngStream(21), extended=extended)
    ref_rep = second_order_report(*args, PER_POINT[text], lip, 5000,
                                  RngStream(21), extended=extended)
    assert np.array_equal(table.weights, ref_table.weights)
    assert (table.n_samples, table.seed) == (5000, 21)
    assert vars(rep) == vars(ref_rep)
    assert expect(table, F_rows) == expect(table, PER_POINT[text])


def test_weights_and_report_validation():
    g = Grid([0.0, 1.0])
    F = lambda X: X[:, 0]
    for bad_F in (lambda X: 0.5,  # a scalar broadcast over the block
                  lambda X: X,  # (m, 1)
                  lambda X: X[:, 0] if len(X) == g.n else X[:3, 0]):
        with pytest.raises(ValueError, match="integrand"):
            weights_and_report(g, U1, S2, bad_F, 1.0, 100, RngStream(0))
    with pytest.raises(ValueError, match="l2"):
        weights_and_report(g, U1, NormSpec("l1", 2), F, 1.0, 100,
                           RngStream(0))
    for lip in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="F_prime_lipschitz"):
            weights_and_report(g, U1, S2, F, lip, 100, RngStream(0))
    with pytest.raises(ValueError, match="dimension"):
        weights_and_report(g, U2, S2, F, 1.0, 100, RngStream(0))
    with pytest.raises(ValueError, match="two samples"):
        weights_and_report(g, U1, S2, F, 1.0, 1, RngStream(0))
    table, rep = weights_and_report(g, U1, S2, F, 0.0, 100, RngStream(0))
    assert rep.bound == 0.0 and table.n_samples == 100


def test_convex_dominance_directions():
    g = _random_grid(4)
    pts = np.random.default_rng(5).uniform(0.05, 0.95, size=(100, 2))
    assert convex_dominance_check(g, lambda x: float(x @ x), pts)
    assert not convex_dominance_check(g, lambda x: -float(x @ x), pts)


def test_convex_dominance_affine_equality():
    from dualquant.splitting import interpolate

    g = _random_grid(6)
    F = lambda x: float(2.0 * x[0] - 0.7 * x[1] + 0.3)
    pts = np.random.default_rng(6).uniform(0.05, 0.95, size=(40, 2))
    assert convex_dominance_check(g, F, pts)
    for xi in pts[:10]:
        assert interpolate(g, F, xi, S2) == pytest.approx(F(xi), abs=1e-9)


def test_convex_dominance_1d():
    g = Grid([0.0, 0.3, 1.0])
    xs = np.linspace(0.01, 0.99, 25)
    assert convex_dominance_check(g, lambda x: float(x[0] ** 2), xs)
    # one solve for every test point: F is called once on each test
    # point and once on each grid point a basis uses, here not on 1.0
    calls = []
    F = lambda x: calls.append(float(x[0])) or float(x[0] ** 2)
    assert convex_dominance_check(g, F, xs[:5])
    assert sorted(calls) == sorted([0.0, 0.3] + list(xs[:5]))


def test_convex_dominance_outside_hull_raises():
    with pytest.raises(SampleOutsideHullError):
        convex_dominance_check(TRIANGLE, lambda x: float(x @ x),
                               [[2.0, 2.0]])
