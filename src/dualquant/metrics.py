"""Error evaluation for dual and Voronoi quantization grids.

Monte Carlo estimators shard their samples into fixed-size chunks drawn
from numbered substreams, so an estimate depends only on the seed and the
sample count (and ``mc_dq_error``'s ``chunk``), never on scheduling.
Local values come from the batch layer (``batch.BatchSolver``), which
picks the 1D, Qhull Delaunay (d >= 2) or per-sample LP path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from .batch import BatchSolver, shard_reduce
from .distributions import DistributionSpec
from .errors import SampleOutsideHullError
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


def dq_values_batch(grid: Grid, X, spec: NormSpec,
                    extended: bool = False) -> np.ndarray:
    """Evaluate F^p (or its extended variant) at many query points.

    Fast paths: ordered segments in 1D, and for the Euclidean norm with
    p = 2 in d >= 2 the power identity on the Qhull Delaunay simplex
    that holds the row.  Other settings solve one LP per row of ``X``.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[1] != grid.dim:
        raise ValueError("query dimension does not match the grid")
    return BatchSolver(grid, spec, extended).values(X)


def _mc_mean(evaluate: Callable[[np.ndarray], np.ndarray],
             dist: DistributionSpec, n_samples: int, rng: RngStream,
             chunk: int, threads: int) -> ErrorEstimate:
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

    return _mc_mean(ev, dist, n_samples, rng, DEFAULT_CHUNK, threads)


def _sorted_1d(grid: Grid, dist: DistributionSpec | None = None,
               compact: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The rules of the 1D closed forms: returns the grid's stable sort
    order and its sorted coordinates.  A given law must be 1D with
    partial moments; in compact mode its support box must lie in the
    grid's hull to within 1e-12 of the grid's span, else
    SampleOutsideHullError, as for a Monte Carlo sample outside it."""
    if grid.dim != 1:
        raise ValueError("the closed forms are one-dimensional")
    order = np.argsort(grid.points[:, 0], kind="stable")
    xs = grid.points[order, 0]
    if dist is not None and (dist.dim != 1 or dist.analytics is None):
        raise ValueError("the closed forms need a 1D law with partial "
                         "moments")
    if compact:
        lo, hi = dist.box("compact mode")
        slack = 1e-12 * (xs[-1] - xs[0])
        if lo[0] < xs[0] - slack or hi[0] > xs[-1] + slack:
            raise SampleOutsideHullError(
                "the support exceeds the grid hull; "
                "use the extended variant instead")
    return order, xs


def exact_1d_dq_error(grid: Grid, dist: DistributionSpec,
                      extended: bool = False) -> float:
    """Exact mean dual quantization error power (p = 2) for a 1D grid in
    any order.

    Integrates (xi - x_i)(x_{i+1} - xi) over each segment via partial
    moments; only the quadratic case reduces to moments this way.
    """
    _, xs = _sorted_1d(grid, dist, compact=not extended)
    pm = dist.analytics.partial_moment
    a, b = xs[:-1], xs[1:]
    total = float(np.sum((a + b) * pm(1, a, b) - pm(2, a, b)
                         - a * b * pm(0, a, b)))
    if extended:
        total += float(np.sum(_spread(dist.analytics, xs[[0, -1]],
                                      [-math.inf, xs[-1]], [xs[0], math.inf])))
    return total


def _spread(ana, x, a, b):
    """E[(X - x)^2 ; a <= X <= b], elementwise."""
    pm = ana.partial_moment
    return pm(2, a, b) - 2.0 * x * pm(1, a, b) + x * x * pm(0, a, b)


def exact_1d_voronoi_error(grid: Grid, dist: DistributionSpec) -> float:
    """Exact nearest-neighbour error power (p = 2) with midpoint cell
    borders."""
    _, xs = _sorted_1d(grid, dist)
    borders = np.concatenate(([-math.inf], (xs[:-1] + xs[1:]) / 2.0,
                              [math.inf]))
    return float(np.sum(_spread(dist.analytics, xs, borders[:-1],
                                borders[1:])))


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
    """Worst-case F^p over the hull of a 1D grid: max half gap."""
    _, xs = _sorted_1d(grid)
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
