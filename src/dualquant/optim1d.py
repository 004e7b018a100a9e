"""Newton solver for 1D quadratic dual quantization grids.

The mean error power of an ordered grid is a sum of segment integrals,
so its gradient and Hessian reduce to partial moments and density
values.  The Hessian is tridiagonal; solves use the banded form.
Compact mode pins the first and last point to the support endpoints;
extended mode optimizes every coordinate and adds the tail terms of the
nearest-endpoint penalty outside the hull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .distributions import DistributionSpec
from .errors import MaxIterationsError
from .geometry import Grid
from .metrics import _sorted_1d

MODES = ("compact", "extended")


@dataclass(frozen=True)
class NewtonReport:
    """Outcome of a Newton run: final grid plus convergence facts."""

    grid: Grid
    iterations: int
    final_gradient_norm: float
    converged: bool


def _check_dist(dist: DistributionSpec, mode: str,
                n: int) -> tuple[float, float] | None:
    """Validate the law, mode and point count; compact mode returns the
    support ends."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if dist.dim != 1 or dist.analytics is None:
        raise ValueError("need a 1D distribution with partial moments")
    if n < 2:
        raise ValueError("need at least two points")
    if mode == "extended":
        return None
    lo, hi = dist.box("compact mode")
    return float(lo[0]), float(hi[0])


def gradient_1d(grid: Grid, dist: DistributionSpec,
                mode: str = "compact") -> np.ndarray:
    """Exact gradient of the mean quadratic dual quantization error.

    Interior component i: pm1(x_{i-1}, x_{i+1}) - x_{i-1} pm0(x_{i-1}, x_i)
    - x_{i+1} pm0(x_i, x_{i+1}), with neighbours in coordinate order; the
    grid may come in any order and component i belongs to its point i.
    Compact mode returns zeros at the endpoints it pins; extended mode
    adds the derivative of the squared distance to the nearest endpoint
    over each tail.
    """
    ends = _check_dist(dist, mode, grid.n)
    order, xs = _sorted_1d(grid, dist, compact=ends is not None)
    g = np.empty(grid.n)
    g[order] = _gradient(xs, dist, mode)
    return g


def _gradient(xs: np.ndarray, dist: DistributionSpec,
              mode: str) -> np.ndarray:
    pm = dist.analytics.partial_moment
    mass = pm(0, xs[:-1], xs[1:])  # one entry per cell
    g = np.zeros(len(xs))
    g[1:-1] = (pm(1, xs[:-2], xs[2:]) - xs[:-2] * mass[:-1]
               - xs[2:] * mass[1:])
    if mode == "extended":
        g[0] = (2.0 * (xs[0] * pm(0, -math.inf, xs[0])
                       - pm(1, -math.inf, xs[0]))
                + pm(1, xs[0], xs[1]) - xs[1] * mass[0])
        g[-1] = (2.0 * (xs[-1] * pm(0, xs[-1], math.inf)
                        - pm(1, xs[-1], math.inf))
                 + pm(1, xs[-2], xs[-1]) - xs[-2] * mass[-1])
    return g


def _tridiagonal(xs: np.ndarray, dist: DistributionSpec,
                 mode: str) -> tuple[np.ndarray, np.ndarray]:
    pm = dist.analytics.partial_moment
    dens = dist.analytics.pdf(xs)
    diag = np.empty(len(xs))
    diag[1:-1] = (xs[2:] - xs[:-2]) * dens[1:-1]
    # Boundary rows: phantom neighbour at the point itself, so only the
    # inner gap contributes; extended mode adds twice the tail mass.
    diag[0] = (xs[1] - xs[0]) * dens[0]
    diag[-1] = (xs[-1] - xs[-2]) * dens[-1]
    if mode == "extended":
        diag[0] += 2.0 * pm(0, -math.inf, xs[0])
        diag[-1] += 2.0 * pm(0, xs[-1], math.inf)
    return diag, -pm(0, xs[:-1], xs[1:])


def hessian_1d(grid: Grid, dist: DistributionSpec,
               mode: str = "compact") -> np.ndarray:
    """Tridiagonal Hessian of the mean quadratic error, as a dense matrix.

    Interior diagonal (x_{i+1} - x_{i-1}) pdf(x_i), off-diagonal minus
    the cell mass, with neighbours in coordinate order; rows and columns
    follow the grid's own order, so the matrix is tridiagonal only for a
    sorted grid.
    """
    ends = _check_dist(dist, mode, grid.n)
    order, xs = _sorted_1d(grid, dist, compact=ends is not None)
    diag, off = _tridiagonal(xs, dist, mode)
    h = np.diag(diag)
    idx = np.arange(len(xs) - 1)
    h[idx, idx + 1] = off
    h[idx + 1, idx] = off
    out = np.empty_like(h)
    out[np.ix_(order, order)] = h
    return out


def _solve_tridiagonal(diag: np.ndarray, off: np.ndarray,
                       rhs: np.ndarray) -> np.ndarray:
    ab = np.zeros((3, len(diag)))
    ab[0, 1:] = off
    ab[1] = diag
    ab[2, :-1] = off
    return solve_banded((1, 1), ab, rhs)


def newton_solve(dist: DistributionSpec, n: int, mode: str = "compact",
                 tol: float = 1e-10, max_iter: int = 100) -> NewtonReport:
    """Find a stationary grid of the mean quadratic error by Newton steps.

    Steps are halved until they preserve strict ordering.  Compact mode
    pins the outer points to the support endpoints and solves the
    interior block; extended mode moves every point and starts from an
    equidistant grid across the central quantile range.  The law and
    mode are validated once; the iterations then work on the bare
    coordinate array, whose ordering the step halving preserves, and a
    ``Grid`` is built only for the report.
    """
    ends = _check_dist(dist, mode, n)
    q = dist.analytics.quantile
    lo, hi = ends if ends is not None else (q(0.1), q(0.9))
    xs = np.linspace(lo, hi, n)
    active = slice(1, n - 1) if mode == "compact" else slice(0, n)

    grad_norm = math.inf
    for it in range(max_iter):
        g = _gradient(xs, dist, mode)
        grad_norm = float(np.max(np.abs(g)))
        if grad_norm <= tol:
            return NewtonReport(Grid(xs), it, grad_norm, True)
        diag, off = _tridiagonal(xs, dist, mode)
        if mode == "compact":
            diag, off = diag[1:-1], off[1:-1]
        if np.any(diag <= 0.0):
            raise ValueError("density vanishes at a grid point; "
                             "the Newton step is not defined")
        step = _solve_tridiagonal(diag, off, g[active])
        scale = 1.0
        for _ in range(80):
            trial = xs.copy()
            trial[active] = xs[active] - scale * step
            if np.all(np.diff(trial) > 0.0):
                xs = trial
                break
            scale /= 2.0
        else:
            break
    report = NewtonReport(Grid(xs), max_iter, grad_norm, False)
    raise MaxIterationsError(
        f"Newton did not reach tolerance {tol} in {max_iter} iterations "
        f"(last gradient norm {grad_norm:.3e})", report=report)
