import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dualquant.cubature import weights_exact_1d
from dualquant.distributions import (
    make_exponential,
    make_normal,
    make_uniform_box,
)
from dualquant.errors import SampleOutsideHullError
from dualquant.geometry import Grid, NormSpec
from dualquant.lp import local_dq_value
from dualquant.metrics import (
    ErrorEstimate,
    dq_values_batch,
    exact_1d_dq_error,
    exact_1d_voronoi_error,
    mc_dq_error,
    mc_voronoi_error,
    norm_equiv_constant,
    product_bound,
    product_grid,
    rate_fit,
    scalar_bound,
    theoretical_1d_uniform,
    voronoi_1d_uniform_optimum,
)
from dualquant.optim1d import gradient_1d, hessian_1d
from dualquant.rng import RngStream

S2 = NormSpec("l2", 2)
U01 = make_uniform_box([0.0], [1.0])


def test_exact_dual_error_known_values():
    assert exact_1d_dq_error(Grid([0.0, 0.5, 1.0]), U01) == pytest.approx(
        1 / 24, rel=1e-13)
    assert exact_1d_dq_error(Grid([0.0, 1.0]), U01) == pytest.approx(
        1 / 6, rel=1e-13)
    g11 = Grid(np.linspace(0.0, 1.0, 11))
    assert exact_1d_dq_error(g11, U01) == pytest.approx(1 / 600, rel=1e-12)


def test_exact_dual_error_equidistant_ladder():
    # The per-cell form cancels as n grows: ~1.3e-11 relative at n = 1024.
    for n in range(2, 1025):
        got = exact_1d_dq_error(Grid(np.linspace(0.0, 1.0, n)), U01)
        assert type(got) is float
        assert got == pytest.approx(1.0 / (6.0 * (n - 1) ** 2), rel=1e-10)


def test_exact_dual_error_matches_quadrature():
    # Independent route: numerical integration of the segment product.
    rng = np.random.default_rng(3)
    xs = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(size=4))))
    g = Grid(xs)
    expected = sum(quad(lambda t, a=a, b=b: (t - a) * (b - t), a, b)[0]
                   for a, b in zip(xs[:-1], xs[1:]))
    assert exact_1d_dq_error(g, U01) == pytest.approx(expected, rel=1e-10)


def test_exact_dual_error_extended_matches_quadrature():
    dist = make_normal(0.3, 0.8)
    pdf = dist.analytics.pdf
    xs = np.array([-0.5, 0.1, 0.4, 1.2])
    inner = sum(quad(lambda t, a=a, b=b: (t - a) * (b - t) * pdf(t), a, b)[0]
                for a, b in zip(xs[:-1], xs[1:]))
    lo = quad(lambda t: (xs[0] - t) ** 2 * pdf(t), -12.0, xs[0])[0]
    hi = quad(lambda t: (t - xs[-1]) ** 2 * pdf(t), xs[-1], 12.0)[0]
    got = exact_1d_dq_error(Grid(xs), dist, extended=True)
    assert got == pytest.approx(inner + lo + hi, rel=1e-9)


def test_exact_dual_error_rejects_bad_input():
    assert (exact_1d_dq_error(Grid([0.5, 0.0, 1.0]), U01)
            == exact_1d_dq_error(Grid([0.0, 0.5, 1.0]), U01))
    with pytest.raises(SampleOutsideHullError):
        exact_1d_dq_error(Grid([0.2, 0.8]), U01)
    with pytest.raises(ValueError):
        exact_1d_dq_error(Grid([0.0, 1.0]), make_normal())


def test_closed_forms_take_any_grid_order():
    """A shuffled grid gives the sorted grid's values bit for bit, and
    per-point outputs follow the grid's own order."""
    xs = np.array([0.0, 0.13, 0.4, 0.55, 0.9, 1.0])
    perm = np.array([3, 0, 5, 2, 4, 1])
    ordered, shuffled = Grid(xs), Grid(xs[perm])
    for dist, extended in ((U01, False), (U01, True),
                           (make_normal(0.4, 0.3), True)):
        mode = "extended" if extended else "compact"
        assert (exact_1d_dq_error(shuffled, dist, extended=extended)
                == exact_1d_dq_error(ordered, dist, extended=extended))
        assert (exact_1d_voronoi_error(shuffled, dist)
                == exact_1d_voronoi_error(ordered, dist))
        assert np.array_equal(
            weights_exact_1d(shuffled, dist, extended).weights,
            weights_exact_1d(ordered, dist, extended).weights[perm])
        assert np.array_equal(gradient_1d(shuffled, dist, mode),
                              gradient_1d(ordered, dist, mode)[perm])
        hess = hessian_1d(ordered, dist, mode)
        assert np.array_equal(hessian_1d(shuffled, dist, mode),
                              hess[np.ix_(perm, perm)])
    assert scalar_bound(shuffled, 3) == scalar_bound(ordered, 3)


@pytest.mark.parametrize("s", [1e-9, 1.0, 1e9])
def test_compact_cover_is_relative_to_the_grid(s):
    """The support may exceed the hull by 1e-12 of the grid's span, at
    every scale; past that, every compact closed form refuses."""
    dist = make_uniform_box(0.0, s)
    checks = (lambda g: exact_1d_dq_error(g, dist),
              lambda g: weights_exact_1d(g, dist),
              lambda g: gradient_1d(g, dist))
    close = Grid(s * np.linspace(0.0, 1.0 - 1e-13, 5))
    short = Grid(s * np.linspace(0.0, 1.0 - 1e-9, 5))
    for check in checks:
        check(close)
        with pytest.raises(SampleOutsideHullError):
            check(short)


def test_compact_weights_need_a_bounded_support():
    with pytest.raises(ValueError, match="bounded support"):
        weights_exact_1d(Grid([0.0, 1.0, 3.0]), make_exponential(1.0))


def test_voronoi_error_known_values():
    g, val = voronoi_1d_uniform_optimum(3)
    np.testing.assert_allclose(g.points[:, 0], [1 / 6, 0.5, 5 / 6])
    assert val == pytest.approx(1 / 108, rel=1e-13)
    assert exact_1d_voronoi_error(g, U01) == pytest.approx(1 / 108, rel=1e-12)
    assert exact_1d_voronoi_error(Grid([0.5]), U01) == pytest.approx(
        1 / 12, rel=1e-13)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_dominates_voronoi_on_same_grid(seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(size=5))))
    g = Grid(xs)
    assert exact_1d_dq_error(g, U01) >= exact_1d_voronoi_error(g, U01)
    dist = make_exponential(1.5)
    ge = Grid(np.sort(rng.uniform(0.0, 3.0, size=5)))
    dual = exact_1d_dq_error(ge, dist, extended=True)
    assert dual >= exact_1d_voronoi_error(ge, dist)


def test_theoretical_uniform_values():
    g, val = theoretical_1d_uniform(3)
    np.testing.assert_allclose(g.points[:, 0], [0.0, 0.5, 1.0])
    assert val == pytest.approx(1 / 24, rel=1e-13)
    assert exact_1d_dq_error(g, U01) == pytest.approx(val, rel=1e-12)
    _, v21 = theoretical_1d_uniform(2, p=1)
    assert v21 == pytest.approx(1 / 3, rel=1e-13)


def test_dual_voronoi_ratio_approaches_sqrt2():
    _, d101 = theoretical_1d_uniform(101)
    _, e101 = voronoi_1d_uniform_optimum(101)
    ratio = math.sqrt(d101) / math.sqrt(e101)
    assert abs(ratio - math.sqrt(2.0)) <= 0.01 * math.sqrt(2.0) + 1e-12


def test_strictly_decreasing_in_grid_size():
    vals = [exact_1d_dq_error(Grid(np.linspace(0.0, 1.0, n)), U01)
            for n in range(3, 11)]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:]))


def test_interior_point_insertion_strictly_improves():
    xs = np.array([0.0, 0.4, 1.0])
    base = exact_1d_dq_error(Grid(xs), U01)
    finer = exact_1d_dq_error(Grid(np.sort(np.append(xs, 0.7))), U01)
    assert finer < base


@pytest.mark.parametrize("dist,grid,extended", [
    (U01, Grid([0.0, 0.3, 0.55, 1.0]), False),
    (make_normal(0.2, 0.7), Grid([-1.0, -0.2, 0.5, 1.3]), True),
    (make_exponential(2.0), Grid([0.1, 0.8, 2.5]), True),
])
def test_mc_agrees_with_exact_1d(dist, grid, extended):
    exact = exact_1d_dq_error(grid, dist, extended=extended)
    est = mc_dq_error(grid, dist, S2, 40_000, RngStream(11),
                      extended=extended)
    assert abs(est.value - exact) <= 4.0 * est.std_error


def test_mc_square_corners_third():
    g = Grid([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    dist = make_uniform_box([0.0, 0.0], [1.0, 1.0])
    est = mc_dq_error(g, dist, S2, 40_000, RngStream(5))
    assert abs(est.value - 1 / 3) <= 4.0 * est.std_error
    assert est.n_samples == 40_000
    assert est.std_error > 0.0


def test_mc_voronoi_matches_exact():
    g = Grid([0.1, 0.5, 0.7])
    exact = exact_1d_voronoi_error(g, U01)
    est = mc_voronoi_error(g, U01, S2, 40_000, RngStream(17))
    assert abs(est.value - exact) <= 4.0 * est.std_error


def test_mc_requires_hull_without_extended():
    with pytest.raises(SampleOutsideHullError):
        mc_dq_error(Grid([0.2, 0.8]), U01, S2, 1000, RngStream(0))
    g = Grid([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    dist = make_uniform_box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(SampleOutsideHullError):
        mc_dq_error(g, dist, S2, 1000, RngStream(0))


def test_mc_is_reproducible_and_stream_preserving():
    g = Grid([0.0, 0.4, 1.0])
    rng = RngStream(123)
    a = mc_dq_error(g, U01, S2, 5000, rng)
    b = mc_dq_error(g, U01, S2, 5000, rng)
    assert a.value == b.value and a.std_error == b.std_error
    c = mc_dq_error(g, U01, S2, 5000, RngStream(124))
    assert c.value != a.value


def test_mc_common_random_numbers_across_grids():
    # Same stream, perturbed grid: difference far below either std error.
    dist = U01
    a = mc_dq_error(Grid([0.0, 0.5, 1.0]), dist, S2, 20_000, RngStream(9))
    b = mc_dq_error(Grid([0.0, 0.5001, 1.0]), dist, S2, 20_000, RngStream(9))
    assert abs(a.value - b.value) < 1e-3 * a.value + 1e-6


def test_batch_values_match_lp_1d():
    g = Grid([0.0, 0.35, 0.8, 1.0])
    xi = np.random.default_rng(2).uniform(size=30)
    vals = dq_values_batch(g, xi, S2)
    lp_vals = [local_dq_value(g, [x], S2) for x in xi]
    np.testing.assert_allclose(vals, lp_vals, atol=1e-12)


def test_batch_values_match_lp_2d():
    rng = np.random.default_rng(4)
    g = Grid(rng.uniform(size=(8, 2)))
    # Queries inside the hull: mix the grid points convexly.
    w = rng.dirichlet(np.ones(8), size=25)
    X = w @ g.points
    vals = dq_values_batch(g, X, S2)
    lp_vals = [local_dq_value(g, x, S2) for x in X]
    np.testing.assert_allclose(vals, lp_vals, rtol=1e-9, atol=1e-11)


def test_batch_values_generic_norm_falls_back_to_lp():
    g = Grid([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    spec = NormSpec("l1", 2)
    X = np.array([[0.25, 0.25], [0.5, 0.5], [0.7, 0.1]])
    vals = dq_values_batch(g, X, spec)
    lp_vals = [local_dq_value(g, x, spec) for x in X]
    np.testing.assert_allclose(vals, lp_vals, rtol=1e-9)


def test_product_grid_shapes():
    g = product_grid(([0.0, 0.0], [1.0, 1.0]), 1)
    assert g.n == 4 and g.dim == 2
    corners = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
    assert {tuple(p) for p in g.points} == corners
    g1 = product_grid(([0.0], [1.0]), 2)
    np.testing.assert_allclose(g1.points[:, 0], [0.0, 0.5, 1.0])
    g9 = product_grid(([0.0, 0.0], [2.0, 2.0]), 2)
    assert g9.n == 9
    diffs = np.diff(np.unique(g9.points[:, 0]))
    np.testing.assert_allclose(diffs, 1.0)
    with pytest.raises(ValueError):
        product_grid(([0.0], [0.0]), 1)
    with pytest.raises(ValueError):
        product_grid(([0.0], [1.0]), 0)


def test_scalar_bound_values():
    assert scalar_bound(Grid([0.0, 0.5, 1.0])) == pytest.approx(1 / 16)
    assert scalar_bound(Grid([0.0, 0.1, 0.6, 1.0]), p=1) == pytest.approx(
        0.25)
    with pytest.raises(ValueError):
        scalar_bound(Grid([0.5]))


def test_norm_equiv_constant_table():
    assert norm_equiv_constant(3, NormSpec("l1", 2)) == pytest.approx(3.0)
    assert norm_equiv_constant(4, NormSpec("l2", 3)) == pytest.approx(2.0)
    assert norm_equiv_constant(4, NormSpec("l2", 2)) == 1.0
    assert norm_equiv_constant(7, NormSpec("linf", 4)) == 1.0


def test_product_bound_values_and_tightness():
    assert product_bound(2, 1.0, 1, S2) == pytest.approx(0.5)
    assert product_bound(1, 1.0, 4, S2) == pytest.approx(1 / 64)
    g = product_grid(([0.0, 0.0], [1.0, 1.0]), 1)
    center_val = local_dq_value(g, [0.5, 0.5], S2)
    assert center_val == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_scalar_bound_never_violated(seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-1.0, 2.0, size=rng.integers(2, 9)))
    g = Grid(xs)
    queries = rng.uniform(xs[0], xs[-1], size=20_000)
    vals = dq_values_batch(g, queries, S2)
    assert vals.max() <= scalar_bound(g) + 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_product_bound_never_violated(m):
    g = product_grid(([0.0, 0.0], [1.0, 1.0]), m)
    rng = np.random.default_rng(m)
    X = rng.uniform(size=(20_000, 2))
    vals = dq_values_batch(g, X, S2)
    assert vals.max() <= product_bound(2, 1.0, m, S2) + 1e-12


def test_rate_fit_exact_uniform_slope():
    sizes, errors = [], []
    for n in (5, 9, 17):
        _, val = theoretical_1d_uniform(n)
        sizes.append(n - 1)
        errors.append(val)
    assert rate_fit(sizes, errors) == pytest.approx(-1.0, abs=1e-6)


def test_rate_fit_constant_errors():
    assert rate_fit([2, 4, 8], [0.5, 0.5, 0.5]) == pytest.approx(0.0,
                                                                 abs=1e-12)


def test_rate_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        rate_fit([1, 2], [1.0, 0.5])
    with pytest.raises(ValueError):
        rate_fit([1, 2, 3], [1.0, -0.5, 0.1])
    with pytest.raises(ValueError):
        rate_fit([2, 2, 2], [1.0, 0.5, 0.1])


@given(st.floats(0.25, 3.0), st.floats(0.1, 10.0),
       st.sampled_from([1.0, 2.0, 3.0]))
@settings(max_examples=40, deadline=None)
def test_rate_fit_recovers_power_law(slope, scale, p):
    sizes = np.array([4.0, 8.0, 16.0, 32.0])
    errors = scale * sizes ** (-slope * p)
    assert rate_fit(sizes, errors, p=p) == pytest.approx(-slope, rel=1e-9)


def test_error_estimate_validation():
    with pytest.raises(ValueError):
        ErrorEstimate(0.1, 0.01, 1)
    with pytest.raises(ValueError):
        ErrorEstimate(0.1, -0.01, 100)
