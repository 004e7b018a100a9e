"""Error evaluation for dual and Voronoi quantization grids.

Monte Carlo estimators shard their samples into fixed-size chunks drawn
from numbered substreams, so an estimate depends only on the seed and the
chunk size, never on how the loop is scheduled.  Local values come from
the batch layer (``batch.BatchSolver``), which picks the 1D, planar
Delaunay or per-sample LP path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .batch import BatchSolver, shard_reduce
from .distributions import DistributionSpec
from .geometry import Grid, NormSpec
from .rng import RngStream

DEFAULT_CHUNK = 1 << 16


@dataclass(frozen=True)
class ErrorEstimate:
    """Monte Carlo estimate of a mean quantization error power."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError("an estimate needs at least two samples")
        if self.std_error < 0.0:
            raise ValueError("std_error must be nonnegative")


def _require_ordered(grid: Grid) -> np.ndarray:
    if grid.dim != 1:
        raise ValueError("this evaluator is one-dimensional")
    xs = grid.points[:, 0]
    if grid.n > 1 and not np.all(np.diff(xs) > 0.0):
        raise ValueError("grid points must be strictly increasing")
    return xs


def dq_values_batch(grid: Grid, X, spec: NormSpec,
                    extended: bool = False) -> np.ndarray:
    """Evaluate F^p (or its extended variant) at many query points.

    Fast paths: ordered segments in 1D, the Delaunay power identity for
    the planar Euclidean-quadratic case.  Other settings solve one LP
    per row of ``X``.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[1] != grid.dim:
        raise ValueError("query dimension does not match the grid")
    return BatchSolver(grid, spec, extended).values(X)


def _mc_mean(evaluate: Callable[[np.ndarray], np.ndarray],
             dist: DistributionSpec, n_samples: int, rng: RngStream,
             chunk: int, threads: int = 1) -> ErrorEstimate:
    def run(shard: int, take: int) -> tuple[float, float]:
        xs = dist.sampler(rng.substream(shard), take)
        vals = evaluate(np.asarray(xs, dtype=float))
        return float(vals.sum()), float(vals @ vals)

    total, total_sq = shard_reduce(n_samples, chunk, threads, run)
    return ErrorEstimate(*mean_and_se(total, total_sq, n_samples), n_samples)


def mean_and_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    """Sample mean and its standard error from a sum and sum of squares."""
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def mc_dq_error(grid: Grid, dist: DistributionSpec, spec: NormSpec,
                n_samples: int, rng: RngStream, extended: bool = False,
                chunk: int = DEFAULT_CHUNK, threads: int = 1) -> ErrorEstimate:
    """Monte Carlo estimate of the mean dual quantization error power.

    Without ``extended`` every sample must land in the hull of the grid,
    otherwise SampleOutsideHullError is raised.  The parent stream is
    never consumed: shards draw from numbered substreams, so two calls
    with the same stream see the same samples (useful for common random
    numbers across grids).  ``threads`` only parallelizes shard
    evaluation; the reduction order stays fixed, so the estimate is
    bit-identical for any thread count.
    """
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if dist.dim != grid.dim:
        raise ValueError("distribution and grid dimensions differ")
    return _mc_mean(BatchSolver(grid, spec, extended).values,
                    dist, n_samples, rng, chunk, threads)


def mc_voronoi_error(grid: Grid, dist: DistributionSpec, spec: NormSpec,
                     n_samples: int, rng: RngStream,
                     chunk: int = DEFAULT_CHUNK,
                     threads: int = 1) -> ErrorEstimate:
    """Monte Carlo nearest-neighbour error power on the same grid."""
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if dist.dim != grid.dim:
        raise ValueError("distribution and grid dimensions differ")
    minkowski = {"l1": 1.0, "l2": 2.0, "linf": np.inf}[spec.kind]
    tree = cKDTree(grid.points)

    def ev(X: np.ndarray) -> np.ndarray:
        d, _ = tree.query(X, p=minkowski)
        return d ** spec.p

    return _mc_mean(ev, dist, n_samples, rng, chunk, threads)


def _analytics(dist: DistributionSpec):
    if dist.dim != 1 or dist.analytics is None:
        raise ValueError("closed-form errors need 1D partial moments")
    return dist.analytics


def exact_1d_dq_error(grid: Grid, dist: DistributionSpec, p: float = 2,
                      extended: bool = False) -> float:
    """Exact mean dual quantization error power for an ordered 1D grid.

    Integrates (xi - x_i)(x_{i+1} - xi) over each segment via partial
    moments; only the quadratic case reduces to moments this way.
    """
    if p != 2:
        raise ValueError("only p=2 has a partial-moment reduction")
    xs = _require_ordered(grid)
    ana = _analytics(dist)
    if not extended:
        if dist.support is None:
            raise ValueError("unbounded support requires the extended error")
        lo, hi = float(dist.support[0][0]), float(dist.support[1][0])
        if lo < xs[0] - 1e-12 or hi > xs[-1] + 1e-12:
            raise ValueError("support exceeds the grid hull; "
                             "use the extended error instead")
    total = 0.0
    for a, b in zip(xs[:-1], xs[1:]):
        pm0 = ana.partial_moment(0, a, b)
        pm1 = ana.partial_moment(1, a, b)
        pm2 = ana.partial_moment(2, a, b)
        total += (a + b) * pm1 - pm2 - a * b * pm0
    if extended:
        total += (xs[0] ** 2 * ana.partial_moment(0, -math.inf, xs[0])
                  - 2.0 * xs[0] * ana.partial_moment(1, -math.inf, xs[0])
                  + ana.partial_moment(2, -math.inf, xs[0]))
        total += (xs[-1] ** 2 * ana.partial_moment(0, xs[-1], math.inf)
                  - 2.0 * xs[-1] * ana.partial_moment(1, xs[-1], math.inf)
                  + ana.partial_moment(2, xs[-1], math.inf))
    return total


def exact_1d_voronoi_error(grid: Grid, dist: DistributionSpec,
                           p: float = 2) -> float:
    """Exact nearest-neighbour error power with midpoint cell borders."""
    if p != 2:
        raise ValueError("only p=2 has a partial-moment reduction")
    xs = _require_ordered(grid)
    ana = _analytics(dist)
    borders = np.concatenate(([-math.inf], (xs[:-1] + xs[1:]) / 2.0,
                              [math.inf]))
    total = 0.0
    for x, a, b in zip(xs, borders[:-1], borders[1:]):
        total += (ana.partial_moment(2, a, b)
                  - 2.0 * x * ana.partial_moment(1, a, b)
                  + x * x * ana.partial_moment(0, a, b))
    return total


def theoretical_1d_uniform(n: int, p: float = 2) -> tuple[Grid, float]:
    """Optimal dual grid and error power for U([0,1]): equidistant nodes."""
    if n < 2:
        raise ValueError("need at least two points")
    if p < 1:
        raise ValueError("p must be at least 1")
    value = 2.0 / ((p + 1.0) * (p + 2.0)) * float(n - 1) ** (-p)
    return Grid(np.linspace(0.0, 1.0, n)), value


def voronoi_1d_uniform_optimum(n: int, p: float = 2) -> tuple[Grid, float]:
    """Optimal Voronoi grid and error power for U([0,1]): cell midpoints."""
    if n < 1:
        raise ValueError("need at least one point")
    if p < 1:
        raise ValueError("p must be at least 1")
    pts = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    value = 1.0 / (2.0 ** p * (p + 1.0)) * float(n) ** (-p)
    return Grid(pts), value


def product_grid(box, m: int) -> Grid:
    """Equidistant product grid with m+1 points per axis spanning a box."""
    if m < 1:
        raise ValueError("need at least one cell per axis")
    lo = np.atleast_1d(np.asarray(box[0], dtype=float))
    hi = np.atleast_1d(np.asarray(box[1], dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("box must be a (lo, hi) pair of equal-length vectors")
    if not np.all(hi > lo):
        raise ValueError("box must have positive extent on every axis")
    axes = [np.linspace(a, b, m + 1) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return Grid(np.stack([g.ravel() for g in mesh], axis=-1))


def scalar_bound(grid: Grid, p: float = 2) -> float:
    """Worst-case F^p over the hull of an ordered 1D grid: max half gap."""
    xs = _require_ordered(grid)
    if len(xs) < 2:
        raise ValueError("need at least two points")
    return float((np.max(np.diff(xs)) / 2.0) ** p)


def norm_equiv_constant(d: int, spec: NormSpec) -> float:
    """sup of the chosen norm^p over the unit sphere of the axis-wise
    l_p norm; this is the constant in the product-grid bound."""
    if d < 1:
        raise ValueError("dimension must be positive")
    p = spec.p
    if spec.kind == "linf":
        return 1.0
    if spec.kind == "l1":
        return float(d) ** (p - 1.0)
    if p <= 2.0:
        return 1.0
    return float(d) ** (p / 2.0 - 1.0)


def product_bound(d: int, ell: float, m: int, spec: NormSpec) -> float:
    """Worst-case F^p over a product grid with m cells per axis."""
    if ell <= 0.0 or m < 1:
        raise ValueError("need a positive edge length and cell count")
    return (d * norm_equiv_constant(d, spec)
            * (ell / 2.0) ** spec.p * float(m) ** (-spec.p))


def rate_fit(sizes, errors, p: float = 2) -> float:
    """Least-squares slope of log(error^{1/p}) against log(size)."""
    sizes = np.asarray(sizes, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if sizes.shape != errors.shape or sizes.ndim != 1 or len(sizes) < 3:
        raise ValueError("need matching lists of at least three points")
    if np.any(sizes <= 0.0) or np.any(errors <= 0.0):
        raise ValueError("sizes and errors must be positive")
    x = np.log(sizes)
    if np.ptp(x) == 0.0:
        raise ValueError("sizes must not all coincide")
    y = np.log(errors) / p
    return float(np.polyfit(x, y, 1)[0])
