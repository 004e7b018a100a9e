import math

import numpy as np
import pytest
from scipy.special import ndtr

from dualquant import optim1d

from dualquant.distributions import (
    make_exponential,
    make_normal,
    make_uniform_box,
)
from dualquant.errors import MaxIterationsError, SampleOutsideHullError
from dualquant.geometry import Grid
from dualquant.metrics import exact_1d_dq_error, theoretical_1d_uniform
from dualquant.optim1d import (
    MODES,
    NewtonReport,
    _gradient,
    _tridiagonal,
    gradient_1d,
    hessian_1d,
    newton_solve,
)

U01 = make_uniform_box([0.0], [1.0])


def _fd_gradient(xs, dist, mode, h=1e-6):
    out = np.zeros(len(xs))
    lo = 1 if mode == "compact" else 0
    hi = len(xs) - 1 if mode == "compact" else len(xs)
    for i in range(lo, hi):
        up, dn = xs.copy(), xs.copy()
        up[i] += h
        dn[i] -= h
        fu = exact_1d_dq_error(Grid(up), dist, extended=mode == "extended")
        fd = exact_1d_dq_error(Grid(dn), dist, extended=mode == "extended")
        out[i] = (fu - fd) / (2.0 * h)
    return out


def test_gradient_example_values():
    g = gradient_1d(Grid([0.0, 0.6, 1.0]), U01)
    np.testing.assert_allclose(g, [0.0, 0.1, 0.0], atol=1e-14)
    g_opt = gradient_1d(Grid([0.0, 0.5, 1.0]), U01)
    np.testing.assert_allclose(g_opt, 0.0, atol=1e-14)


def test_gradient_antisymmetric_for_symmetric_normal():
    g = gradient_1d(Grid([-1.2, -0.4, 0.4, 1.2]), make_normal(), "extended")
    np.testing.assert_allclose(g, -g[::-1], atol=1e-13)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mode,dist,span", [
    ("compact", U01, (0.0, 1.0)),
    ("extended", make_normal(0.1, 0.9), (-1.5, 1.5)),
    ("extended", make_exponential(1.3), (0.05, 2.5)),
])
def test_gradient_matches_finite_differences(seed, mode, dist, span):
    rng = np.random.default_rng(seed)
    inner = np.sort(rng.uniform(span[0], span[1], size=4))
    if mode == "compact":
        xs = np.concatenate(([0.0], np.clip(inner, 0.01, 0.99), [1.0]))
        xs = np.unique(xs)
        if len(xs) < 4:
            xs = np.array([0.0, 0.3, 0.7, 1.0])
    else:
        xs = inner
    g = gradient_1d(Grid(xs), dist, mode)
    fd = _fd_gradient(xs, dist, mode)
    np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_hessian_example_values():
    h = hessian_1d(Grid([0.0, 0.6, 1.0]), U01)
    assert h[1, 1] == pytest.approx(1.0)
    assert h[1, 2] == pytest.approx(-0.4)
    assert h[2, 1] == pytest.approx(-0.4)
    np.testing.assert_allclose(h, h.T)


@pytest.mark.parametrize("mode,dist", [
    ("compact", U01),
    ("extended", make_normal()),
])
def test_hessian_matches_gradient_differences(mode, dist):
    xs = (np.array([0.0, 0.25, 0.55, 0.8, 1.0]) if mode == "compact"
          else np.array([-1.0, -0.3, 0.2, 0.9]))
    h = hessian_1d(Grid(xs), dist, mode)
    step = 1e-6
    cols = range(1, len(xs) - 1) if mode == "compact" else range(len(xs))
    for j in cols:
        up, dn = xs.copy(), xs.copy()
        up[j] += step
        dn[j] -= step
        fd = (gradient_1d(Grid(up), dist, mode)
              - gradient_1d(Grid(dn), dist, mode)) / (2.0 * step)
        rows = slice(1, len(xs) - 1) if mode == "compact" else slice(None)
        np.testing.assert_allclose(h[rows, j], fd[rows], rtol=2e-5,
                                   atol=1e-6)


def test_hessian_extended_adds_tail_mass():
    dist = make_normal()
    xs = np.array([-0.8, 0.0, 0.8])
    he = hessian_1d(Grid(xs), dist, "extended")
    pdf = dist.analytics.pdf
    tail = ndtr(xs[0])  # the standard normal's mass below xs[0]
    expected = (xs[1] - xs[0]) * pdf(xs[0]) + 2.0 * tail
    assert he[0, 0] == pytest.approx(expected, rel=1e-12)


def test_gradient_rejects_bad_input():
    shuffled = gradient_1d(Grid([0.5, 0.2, 1.0]), U01, "extended")
    ordered = gradient_1d(Grid([0.2, 0.5, 1.0]), U01, "extended")
    np.testing.assert_array_equal(shuffled, ordered[[1, 0, 2]])
    with pytest.raises(SampleOutsideHullError):
        gradient_1d(Grid([0.2, 0.8]), U01)  # support exceeds hull
    with pytest.raises(ValueError):
        gradient_1d(Grid([0.0, 1.0]), make_normal(), "compact")
    with pytest.raises(ValueError):
        gradient_1d(Grid([0.0, 1.0]), U01, "fancy")


def test_newton_one_step_from_biased_init():
    # the exact Newton step on the interior block: from [0, 0.6, 1] one
    # step reaches the optimum
    grid = Grid([0.0, 0.6, 1.0])
    g, H = gradient_1d(grid, U01), hessian_1d(grid, U01)
    xs = grid.points[:, 0].copy()
    xs[1:-1] -= np.linalg.solve(H[1:-1, 1:-1], g[1:-1])
    np.testing.assert_allclose(xs, [0.0, 0.5, 1.0], atol=1e-12)


@pytest.mark.parametrize("n", [3, 11])
def test_newton_uniform_recovers_equidistant_optimum(n):
    rep = newton_solve(U01, n)
    ref, err = theoretical_1d_uniform(n)
    np.testing.assert_allclose(rep.grid.points, ref.points, atol=1e-10)
    assert exact_1d_dq_error(rep.grid, U01) == pytest.approx(err, abs=1e-12)
    assert rep.converged and rep.final_gradient_norm <= 1e-10


def test_newton_extended_normal_symmetric():
    rep = newton_solve(make_normal(), 5, "extended")
    xs = rep.grid.points[:, 0]
    assert rep.converged
    np.testing.assert_allclose(xs, -xs[::-1], atol=1e-8)


def test_newton_extended_exponential_converges():
    rep = newton_solve(make_exponential(2.0), 4, "extended")
    assert rep.converged
    xs = rep.grid.points[:, 0]
    assert np.all(np.diff(xs) > 0.0) and xs[0] > 0.0


@pytest.mark.parametrize("dist,mode", [
    (U01, "compact"),
    (make_normal(0.5, 2.0), "extended"),
    (make_exponential(0.7), "extended"),
])
def test_newton_fixed_point_is_local_minimum(dist, mode):
    rep = newton_solve(dist, 5, mode)
    xs = rep.grid.points[:, 0]
    base = exact_1d_dq_error(rep.grid, dist, extended=mode == "extended")
    for i in (1, 2, 3):
        for eps in (1e-3, -1e-3):
            bumped = xs.copy()
            bumped[i] += eps
            val = exact_1d_dq_error(Grid(bumped), dist,
                                    extended=mode == "extended")
            assert val > base


def test_newton_preserves_ordering_each_run():
    for dist, mode in ((U01, "compact"), (make_normal(0.5, 2.0), "extended"),
                       (make_exponential(0.7), "extended")):
        for n in (3, 6, 20):
            rep = newton_solve(dist, n, mode)
            assert np.all(np.diff(rep.grid.points[:, 0]) > 0.0)


def test_newton_max_iterations_raises_with_report():
    with pytest.raises(MaxIterationsError) as exc:
        newton_solve(make_normal(), 7, "extended", max_iter=1)
    rep = exc.value.report
    assert isinstance(rep, NewtonReport)
    assert not rep.converged and rep.iterations == 1


def test_newton_input_validation():
    with pytest.raises(ValueError):
        newton_solve(U01, 1)
    with pytest.raises(ValueError):
        newton_solve(make_normal(), 3, "compact")


# Per-cell loops of the scalar implementation, kept as references for
# the array expressions in ``optim1d._gradient`` and ``_tridiagonal``.
def _loop_gradient(xs, dist, mode):
    pm = dist.analytics.partial_moment
    n = len(xs)
    g = np.zeros(n)
    for i in range(1, n - 1):
        g[i] = (pm(1, xs[i - 1], xs[i + 1])
                - xs[i - 1] * pm(0, xs[i - 1], xs[i])
                - xs[i + 1] * pm(0, xs[i], xs[i + 1]))
    if mode == "extended":
        g[0] = (2.0 * (xs[0] * pm(0, -math.inf, xs[0])
                       - pm(1, -math.inf, xs[0]))
                + pm(1, xs[0], xs[1]) - xs[1] * pm(0, xs[0], xs[1]))
        g[-1] = (2.0 * (xs[-1] * pm(0, xs[-1], math.inf)
                        - pm(1, xs[-1], math.inf))
                 + pm(1, xs[-2], xs[-1]) - xs[-2] * pm(0, xs[-2], xs[-1]))
    return g


def _loop_tridiagonal(xs, dist, mode):
    pm = dist.analytics.partial_moment
    pdf = dist.analytics.pdf
    n = len(xs)
    dens = np.array([pdf(float(x)) for x in xs])
    diag = np.empty(n)
    diag[1:-1] = (xs[2:] - xs[:-2]) * dens[1:-1]
    diag[0] = (xs[1] - xs[0]) * dens[0]
    diag[-1] = (xs[-1] - xs[-2]) * dens[-1]
    if mode == "extended":
        diag[0] += 2.0 * pm(0, -math.inf, xs[0])
        diag[-1] += 2.0 * pm(0, xs[-1], math.inf)
    off = np.array([-pm(0, a, b) for a, b in zip(xs[:-1], xs[1:])])
    return diag, off


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dist,span", [
    (make_uniform_box(-2.0, 3.0), (-2.0, 3.0)),
    (make_normal(1.5, 0.5), (0.0, 3.0)),
    (make_exponential(2.0), (0.01, 2.5)),
], ids=["uniform", "normal", "exponential"])
def test_array_forms_match_per_cell_loops(seed, mode, dist, span):
    rng = np.random.default_rng(seed)
    xs = np.unique(rng.uniform(span[0], span[1], size=40))
    if mode == "compact" and dist.support is not None \
            and np.all(np.isfinite(dist.support)):
        xs[0], xs[-1] = span
        np.testing.assert_allclose(gradient_1d(Grid(xs), dist, mode),
                                   _loop_gradient(xs, dist, mode),
                                   rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(_gradient(xs, dist, mode),
                               _loop_gradient(xs, dist, mode),
                               rtol=1e-14, atol=1e-14)
    for got, want in zip(_tridiagonal(xs, dist, mode),
                         _loop_tridiagonal(xs, dist, mode)):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


def test_newton_normal_1000_iteration_count(monkeypatch):
    built = []
    monkeypatch.setattr(optim1d, "Grid",
                        lambda pts: built.append(1) or Grid(pts))
    rep = newton_solve(make_normal(), 1000, "extended")
    assert rep.converged and rep.iterations == 17
    assert len(built) == 1  # the report's grid only

