"""Cubature formulas built from splitting-outcome frequencies.

The weight of grid point x_i is the probability that the random
splitting operator sends a draw of the distribution to x_i.  Because
splitting is stationary, the resulting formula sum(p_i F(x_i))
integrates affine functions exactly and is second-order accurate for
integrands with a Lipschitz differential.

``weights_and_report`` gives the weights and the check of the
second-order bound from one pass of draws, with the integrand evaluated
on blocks of rows; ``weights`` and ``second_order_report`` run the same
shard body, so on the same stream all three agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import BatchSolver, shard_reduce
from .distributions import DistributionSpec
from .geometry import EUCLIDEAN_QUADRATIC, Grid, NormSpec
from .metrics import DEFAULT_CHUNK, _sorted_1d, mean_and_se
from .rng import RngStream
from .splitting import pick

__all__ = [
    "SecondOrderReport",
    "WeightTable",
    "convex_dominance_check",
    "expect",
    "second_order_report",
    "weights",
    "weights_and_report",
    "weights_exact_1d",
]


@dataclass(frozen=True)
class WeightTable:
    """Cubature weights for one grid: p_i = P(split outcome = x_i)."""

    grid: Grid
    weights: np.ndarray
    n_samples: int
    seed: int | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.grid.n,):
            raise ValueError("need one weight per grid point")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def _split_sums(grid: Grid, dist: DistributionSpec, spec: NormSpec, F_rows,
                n_samples: int, rng: RngStream, extended: bool,
                threads: int) -> tuple:
    """Sums over split draws: outcome counts, then with ``F_rows`` the
    sums of d = F(X) - F(x_J), d^2, b = ||X - x_J||^2 and b^2.

    Shard k takes its samples from ``rng.substream(2k)`` and applies the
    cumulative-weight rule of ``splitting.split`` to each row's optimal
    simplex with uniforms from ``rng.substream(2k + 1)``; outside the
    hull the extended variant projects to the nearest grid point.  The
    simplex is ``BatchSolver.solve``'s, the LP basis ``split`` draws
    from, also on a tie.
    """
    if dist.dim != grid.dim:
        raise ValueError("distribution dimension must match the grid")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    solver = BatchSolver(grid, spec, extended)
    fgrid = None if F_rows is None else _row_values(F_rows, grid.points)

    def run(shard: int, m: int) -> tuple:
        X = np.asarray(dist.sampler(rng.substream(2 * shard), m), dtype=float)
        u = rng.substream(2 * shard + 1).uniform(m)
        sol = solver.solve(X)
        J = sol.basis[np.arange(m), pick(sol.weights, u)]
        counts = np.bincount(J, minlength=grid.n)
        if fgrid is None:
            return (counts,)
        d = _row_values(F_rows, X) - fgrid[J]
        b = ((X - grid.points[J]) ** 2).sum(axis=1)
        return (counts, float(d.sum()), float(d @ d), float(b.sum()),
                float(b @ b))

    return shard_reduce(n_samples, DEFAULT_CHUNK, threads, run)


def _row_values(F_rows, X: np.ndarray) -> np.ndarray:
    vals = np.asarray(F_rows(X), dtype=float)
    if vals.shape != (len(X),):
        raise ValueError(f"the integrand maps {len(X)} rows to shape "
                         f"{vals.shape}, not ({len(X)},)")
    return vals


def weights(grid: Grid, dist: DistributionSpec, spec: NormSpec,
            n_samples: int, rng: RngStream,
            extended: bool = False) -> WeightTable:
    """Monte Carlo cubature weights: outcome frequencies of splitting.

    Shard k, of ``DEFAULT_CHUNK`` samples, draws its samples from
    ``rng.substream(2k)`` and its selection uniforms from
    ``rng.substream(2k + 1)``, so the estimate depends only on the
    stream's seed and ``n_samples``, and repeated calls with the same
    stream share samples (common random numbers across grids).
    """
    (counts,) = _split_sums(grid, dist, spec, None, n_samples, rng,
                            extended, 1)
    return WeightTable(grid, counts / n_samples, n_samples, rng.seed)


def weights_exact_1d(grid: Grid, dist: DistributionSpec,
                     extended: bool = False) -> WeightTable:
    """Closed-form 1D weights via hat-function partial moments.

    On each cell the barycentric weight of an endpoint is a linear hat,
    so p_i integrates to first partial moments of the two adjacent
    cells; the extended variant adds the tail mass beyond each end to
    the boundary points.  Cross-validates the Monte Carlo estimator.
    The grid may come in any order.
    """
    order, xs = _sorted_1d(grid, dist, compact=not extended)
    ana = dist.analytics
    a, b = xs[:-1], xs[1:]
    m0, m1 = ana.partial_moment(0, a, b), ana.partial_moment(1, a, b)
    w = np.zeros(len(xs))
    w[:-1] += (b * m0 - m1) / (b - a)
    w[1:] += (m1 - a * m0) / (b - a)
    if extended:
        w[0] += ana.partial_moment(0, -np.inf, xs[0])
        w[-1] += ana.partial_moment(0, xs[-1], np.inf)
    out = np.zeros(grid.n)
    out[order] = np.maximum(w, 0.0)
    return WeightTable(grid, out, 0, None)


def expect(table: WeightTable, F) -> float | np.ndarray:
    """Cubature value sum(p_i F(x_i)); exact for the table, linear in F.

    F maps one point to a float (or to a vector, integrated
    componentwise).
    """
    vals = np.asarray([F(x) for x in table.grid.points], dtype=float)
    out = np.tensordot(table.weights, vals, axes=1)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SecondOrderReport:
    """Empirical check of the second-order cubature guarantee."""

    cubature_error: float
    bound: float
    satisfied: bool
    error_std: float
    bound_std: float
    n_samples: int


def weights_and_report(grid: Grid, dist: DistributionSpec, spec: NormSpec,
                       F_rows, F_prime_lipschitz: float, n_samples: int,
                       rng: RngStream, extended: bool = False, threads: int = 1
                       ) -> tuple[WeightTable, SecondOrderReport]:
    """``weights`` and ``second_order_report`` from one pass of draws.

    ``F_rows`` maps an (m, d) block of points to their m values.  The
    results equal those of the two separate calls with the same stream,
    bit for bit and for any ``threads``, when ``F_rows`` gives each row
    the value the per-point F gives it.
    """
    if spec.kind != "l2":
        raise ValueError("the second-order bound is stated for the l2 norm")
    lip = float(F_prime_lipschitz)
    if not np.isfinite(lip) or lip < 0.0:
        raise ValueError("F_prime_lipschitz must be a nonnegative real")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    counts, sd, sd2, sb, sb2 = _split_sums(grid, dist, spec, F_rows,
                                           n_samples, rng, extended, threads)
    err_mean, error_std = mean_and_se(sd, sd2, n_samples)
    b_mean, b_se = mean_and_se(sb, sb2, n_samples)
    bound_std = lip * b_se
    cubature_error = abs(err_mean)
    bound = lip * b_mean
    slack = 4.0 * float(np.hypot(error_std, bound_std))
    return (WeightTable(grid, counts / n_samples, n_samples, rng.seed),
            SecondOrderReport(cubature_error, bound,
                              cubature_error <= bound + slack,
                              error_std, bound_std, n_samples))


def second_order_report(grid: Grid, dist: DistributionSpec, spec: NormSpec,
                        F, F_prime_lipschitz: float, n_samples: int,
                        rng: RngStream,
                        extended: bool = False) -> SecondOrderReport:
    """Estimate |E F(X) - E F(split(X))| against its quadratic bound.

    Both sides run on common samples and common splitting outcomes:
    the error side averages F(X) - F(x_J) and the bound side averages
    the realized squared displacement ||X - x_J||^2 times the supplied
    Lipschitz constant of F'.  ``satisfied`` allows four combined
    standard errors of slack on top of the bound.  Draws shard as in
    ``weights``, so the report depends only on the stream's seed and
    ``n_samples``.  F maps one point to a float; ``weights_and_report``
    takes F on blocks of rows instead.
    """
    F_rows = lambda X: np.array([float(F(x)) for x in X])
    return weights_and_report(grid, dist, spec, F_rows, F_prime_lipschitz,
                              n_samples, rng, extended)[1]


def convex_dominance_check(grid: Grid, F, test_points) -> bool:
    """True iff barycentric interpolation dominates F at every test point.

    For convex F the interpolant lies above F inside the hull (equality
    for affine F); a concave F flips the direction and fails the check.
    Points outside the hull raise SampleOutsideHullError; one solve serves
    them all, and F runs once on each grid point some basis uses.
    """
    pts = np.asarray(test_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != grid.dim:
        raise ValueError(f"test points must have shape (n, {grid.dim})")
    sol = BatchSolver(grid, EUCLIDEAN_QUADRATIC).solve(pts)
    used = np.unique(sol.basis)
    fgrid = np.zeros(grid.n)
    fgrid[used] = [float(F(grid.points[i])) for i in used]
    interp = np.sum(sol.weights * fgrid[sol.basis], axis=1)
    return all(v >= float(F(xi)) - 1e-12 for v, xi in zip(interp, pts))
