"""Cubature formulas built from splitting-outcome frequencies.

The weight of grid point x_i is the probability that the random
splitting operator sends a draw of the distribution to x_i.  Because
splitting is stationary, the resulting formula sum(p_i F(x_i))
integrates affine functions exactly and is second-order accurate for
integrands with a Lipschitz differential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import BatchSolver, shard_reduce
from .distributions import DistributionSpec
from .errors import SampleOutsideHullError
from .geometry import EUCLIDEAN_QUADRATIC, Grid, NormSpec
from .metrics import DEFAULT_CHUNK, mean_and_se
from .rng import RngStream
from .splitting import interpolate

__all__ = [
    "SecondOrderReport",
    "WeightTable",
    "convex_dominance_check",
    "expect",
    "second_order_report",
    "weights",
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


def _split_draws(grid: Grid, dist: DistributionSpec, spec: NormSpec,
                 rng: RngStream, extended: bool):
    """Shard draws: (shard, m) -> (samples, their splitting outcomes).

    Shard k takes its samples from ``rng.substream(2k)`` and applies the
    cumulative-weight rule of ``splitting.split`` to each row's optimal
    simplex with uniforms from ``rng.substream(2k + 1)``; outside the
    hull the extended variant projects to the nearest grid point.
    """
    solver = BatchSolver(grid, spec, extended)

    def draw(shard: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(dist.sampler(rng.substream(2 * shard), m), dtype=float)
        u = rng.substream(2 * shard + 1).uniform(m)
        sol = solver.solve(X)
        cum = np.cumsum(np.maximum(sol.weights, 0.0), axis=1)
        pos = np.minimum((cum <= u[:, None]).sum(axis=1), cum.shape[1] - 1)
        return X, sol.basis[np.arange(m), pos]

    return draw


def weights(grid: Grid, dist: DistributionSpec, spec: NormSpec,
            n_samples: int, rng: RngStream, extended: bool = False,
            chunk: int = DEFAULT_CHUNK, threads: int = 1) -> WeightTable:
    """Monte Carlo cubature weights: outcome frequencies of splitting.

    Shard k draws its samples from ``rng.substream(2k)`` and its
    selection uniforms from ``rng.substream(2k + 1)``, so the estimate
    is reproducible and repeated calls with the same stream share
    samples (common random numbers across grids).  Threading changes
    only shard scheduling, never the result.
    """
    if dist.dim != grid.dim:
        raise ValueError("distribution dimension must match the grid")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    draw = _split_draws(grid, dist, spec, rng, extended)

    def run(shard: int, m: int) -> tuple[np.ndarray]:
        return (np.bincount(draw(shard, m)[1], minlength=grid.n),)

    (counts,) = shard_reduce(n_samples, chunk, threads, run)
    return WeightTable(grid, counts / n_samples, n_samples, rng.seed)


def weights_exact_1d(grid: Grid, dist: DistributionSpec,
                     extended: bool = False) -> WeightTable:
    """Closed-form 1D weights via hat-function partial moments.

    On each cell the barycentric weight of an endpoint is a linear hat,
    so p_i integrates to first partial moments of the two adjacent
    cells; the extended variant adds the tail mass beyond each end to
    the boundary points.  Cross-validates the Monte Carlo estimator.
    """
    if grid.dim != 1:
        raise ValueError("exact weights are one-dimensional only")
    ana = dist.analytics
    if dist.dim != 1 or ana is None:
        raise ValueError("distribution must be one-dimensional with analytics")
    order = np.argsort(grid.points[:, 0], kind="stable")
    xs = grid.points[order, 0]
    if not extended:
        if dist.support is None:
            raise ValueError("compact weights need a bounded support")
        lo, hi = float(dist.support[0][0]), float(dist.support[1][0])
        span = hi - lo
        if lo < xs[0] - 1e-12 * span or hi > xs[-1] + 1e-12 * span:
            raise SampleOutsideHullError(
                "support exceeds the grid hull; use the extended weights")
    pm0 = lambda a, b: ana.partial_moment(0, a, b)
    pm1 = lambda a, b: ana.partial_moment(1, a, b)
    w = np.zeros(len(xs))
    for i in range(len(xs) - 1):
        a, b = xs[i], xs[i + 1]
        m0, m1 = pm0(a, b), pm1(a, b)
        w[i] += (b * m0 - m1) / (b - a)
        w[i + 1] += (m1 - a * m0) / (b - a)
    if extended:
        w[0] += pm0(-np.inf, xs[0])
        w[-1] += pm0(xs[-1], np.inf)
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


def second_order_report(grid: Grid, dist: DistributionSpec, spec: NormSpec,
                        F, F_prime_lipschitz: float, n_samples: int,
                        rng: RngStream, extended: bool = False,
                        chunk: int = DEFAULT_CHUNK,
                        threads: int = 1) -> SecondOrderReport:
    """Estimate |E F(X) - E F(split(X))| against its quadratic bound.

    Both sides run on common samples and common splitting outcomes:
    the error side averages F(X) - F(x_J) and the bound side averages
    the realized squared displacement ||X - x_J||^2 times the supplied
    Lipschitz constant of F'.  ``satisfied`` allows four combined
    standard errors of slack on top of the bound.
    """
    if spec.kind != "l2":
        raise ValueError("the second-order bound is stated for the l2 norm")
    lip = float(F_prime_lipschitz)
    if not np.isfinite(lip) or lip < 0.0:
        raise ValueError("F_prime_lipschitz must be a nonnegative real")
    if dist.dim != grid.dim:
        raise ValueError("distribution dimension must match the grid")
    if n_samples < 2:
        raise ValueError("need at least two samples")
    draw = _split_draws(grid, dist, spec, rng, extended)
    fgrid = np.asarray([float(F(x)) for x in grid.points])

    def run(shard: int, m: int) -> tuple[float, float, float, float]:
        X, J = draw(shard, m)
        d = np.asarray([float(F(x)) for x in X]) - fgrid[J]
        b = ((X - grid.points[J]) ** 2).sum(axis=1)
        return float(d.sum()), float(d @ d), float(b.sum()), float(b @ b)

    sd, sd2, sb, sb2 = shard_reduce(n_samples, chunk, threads, run)
    err_mean, error_std = mean_and_se(sd, sd2, n_samples)
    b_mean, b_se = mean_and_se(sb, sb2, n_samples)
    bound_std = lip * b_se
    cubature_error = abs(err_mean)
    bound = lip * b_mean
    slack = 4.0 * float(np.hypot(error_std, bound_std))
    return SecondOrderReport(cubature_error, bound,
                             cubature_error <= bound + slack,
                             error_std, bound_std, n_samples)


def convex_dominance_check(grid: Grid, F, test_points,
                           spec: NormSpec = EUCLIDEAN_QUADRATIC) -> bool:
    """True iff barycentric interpolation dominates F at every test point.

    For convex F the interpolant lies above F inside the hull (equality
    for affine F); a concave F flips the direction and fails the check.
    Points outside the hull raise.
    """
    pts = np.asarray(test_points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    for xi in pts:
        if interpolate(grid, F, xi, spec) < float(F(xi)) - 1e-12:
            return False
    return True
