"""Stochastic-gradient training of dual quantization grids.

The competitive-learning rule moves the vertices of the simplex
containing each sample toward that simplex's circumcenter, scaled by
the barycentric weight and a Robbins-Monro step size a/(b+k).  Samples
outside the hull pull their nearest neighbour instead, which is the
stochastic gradient of the exterior branch of the extended functional.

``train`` runs the rule for every d in blocks of 64 samples: one
``BatchSolver`` solves a block on the grid as it stood at the block's
start, and the block's moves are summed in sample order and applied
once.  ``mc_gradient`` and ``refine`` use the same formula on a fixed
sample set; ``cvlq_step`` is the one-sample update through the LP.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .batch import BatchSolver, shard_reduce
from .distributions import DistributionSpec
from .errors import (DegenerateGeometryError, FlatGridError, InfeasibleError,
                     NonDifferentiableError)
from .geometry import EUCLIDEAN_QUADRATIC, Grid, NormSpec, _affinely_independent
from .lp import local_dq_solve
from .metrics import DEFAULT_CHUNK, mc_dq_error
from .rng import RngStream
from .splitting import nn_project

_GRADIENT_ROWS = 4096  # rows per solve in a gradient shard: bounds memory
_RETRIANGULATE_EVERY = 64  # training samples solved on one mesh


@dataclass(frozen=True)
class TrainConfig:
    """Training run parameters.

    ``anchors`` are points pinned for the whole run; they occupy the
    leading grid indices.  ``a``/``b`` set the step schedule a/(b+k),
    which satisfies the usual divergent-sum/square-summable conditions.
    """

    steps: int
    a: float = 1.0
    b: float = 100.0
    seed: int = 0
    anchors: tuple = ()
    trace_every: int = 0
    trace_samples: int = 4096
    refine_iters: int = 0
    refine_samples: int = 50_000

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.a <= 0.0 or self.b < 1.0:
            raise ValueError("need a > 0 and b >= 1")
        if self.trace_every < 0 or self.trace_samples < 2:
            raise ValueError("bad trace settings")
        if self.refine_iters < 0 or self.refine_samples < 2:
            raise ValueError("bad refine settings")
        object.__setattr__(
            self, "anchors",
            tuple(tuple(float(c) for c in p) for p in self.anchors))


@dataclass(frozen=True)
class TrainReport:
    """Final grid, periodic error estimates, and the share of samples
    that fell outside the hull during training."""

    grid: Grid
    error_trace: tuple
    outside_fraction: float


def cvlq_step(grid: Grid, xi, alpha: float) -> Grid:
    """One competitive-learning update from a single sample, by the LP
    (Euclidean norm, p = 2).

    Basis vertices move toward z* = xi + u1/2 by alpha times their
    weight; outside the hull the nearest neighbour moves toward the
    sample.  Pinned points never move.  On a tie the LP's basis moves,
    toward the circumcentre of a Delaunay simplex.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    pts = grid.points.copy()
    try:
        sol = local_dq_solve(grid, xi, EUCLIDEAN_QUADRATIC)
    except InfeasibleError:
        j = nn_project(grid, xi, EUCLIDEAN_QUADRATIC)
        basis, weights, z = [j], [1.0], xi
    else:
        basis, weights, z = sol.basis, sol.weights, sol.z_star()
    for idx, w in zip(basis, weights):
        if idx not in grid.pinned:
            pts[idx] -= alpha * float(w) * (pts[idx] - z)
    return grid.with_points(pts)


def _init_points(dist: DistributionSpec, n: int, anchors: np.ndarray,
                 stream: RngStream) -> np.ndarray:
    for _ in range(16):
        drawn = np.asarray(dist.sampler(stream, n - len(anchors)), float)
        pts = np.vstack([anchors, drawn]) if len(anchors) else drawn
        if len(np.unique(pts, axis=0)) != n:
            continue
        # rank in the points' own units, so scale and offset do not matter
        unit = (pts - pts.mean(axis=0)) / float(np.max(np.ptp(pts, axis=0)))
        if _affinely_independent(unit):
            return pts
    raise FlatGridError("could not draw an affinely spanning initial grid")


def train(dist: DistributionSpec, n: int, config: TrainConfig) -> TrainReport:
    """Train an n-point grid on a distribution (Euclidean, p = 2).

    Deterministic for fixed (seed, config): initialization, training
    samples, trace evaluations, and refinement draw from separate
    substreams of the seed.  The error trace always uses the same
    substream, so trace entries share their evaluation samples.
    """
    d = dist.dim
    if n < d + 1:
        raise ValueError("need at least d+1 points")
    if any(len(a) != d for a in config.anchors):
        raise ValueError(f"every anchor needs d = {d} coordinates")
    for i, a in enumerate(config.anchors):
        if a in config.anchors[:i]:
            raise ValueError(f"anchor {a} is repeated; anchors must be distinct")
    anchors = np.asarray(config.anchors, dtype=float).reshape(-1, d)
    if len(anchors) > n:
        raise ValueError("more anchors than grid points")
    rng = RngStream(config.seed)
    pts = _init_points(dist, n, anchors, rng.substream(0))
    eval_stream = rng.substream(2)
    pinned = frozenset(range(len(anchors)))
    trace: list = []

    def record(step: int, coords: np.ndarray) -> None:
        est = mc_dq_error(Grid(coords, pinned), dist, EUCLIDEAN_QUADRATIC,
                          config.trace_samples, eval_stream, extended=True)
        trace.append((step, est))

    coords, outside = _train_blocks(pts, pinned, dist, config,
                                    rng.substream(1), record)
    grid = Grid(coords, pinned)
    if config.refine_iters > 0:
        grid = refine(grid, dist, iters=config.refine_iters,
                      mc_samples=config.refine_samples,
                      rng=rng.substream(3))
    if config.trace_every > 0:
        record(config.steps, grid.points)
    return TrainReport(grid, tuple(trace),
                       outside / max(config.steps, 1))


def _scatter_sum(idx: np.ndarray, vec: np.ndarray, n: int) -> np.ndarray:
    """(n, d) sums of the columns of ``vec`` (d, m) onto grid points
    ``idx`` (m,), added in column order: one bincount per coordinate."""
    return np.column_stack([np.bincount(idx, v, n) for v in vec])


def _train_blocks(pts, pinned, dist, cfg, sample_stream, record):
    """Competitive learning in blocks of 64 samples, for every d.

    Each block is solved on its block-start grid by one BatchSolver.
    Sample k moves every basis point x_i by a/(b+k) lam_i (z_k - x_i),
    z_k = xi_k + u1/2 (an exterior sample: its nearest point, lam = 1,
    u1 = 0).  The moves are summed in sample order and applied once, a
    mini-batch Robbins-Monro step.  A trace entry at step k inside a
    block sees the moves of the block's first samples up to k.  Returns
    the trained points and the number of exterior samples.
    """
    coords = np.array(pts, dtype=float)
    n, d = coords.shape
    frozen = np.isin(np.arange(n), list(pinned))
    block, outside, k = _RETRIANGULATE_EVERY, 0, 0
    while k < cfg.steps:
        batch = np.asarray(dist.sampler(sample_stream,
                                        min(1024, cfg.steps - k)), float)
        for X in np.split(batch, range(block, len(batch), block)):
            sol = BatchSolver(Grid(coords), EUCLIDEAN_QUADRATIC,
                              extended=True).solve(X)
            outside += int(np.count_nonzero(sol.nearest >= 0))
            step = cfg.a / (cfg.b + k + np.arange(len(X)))
            z = X + 0.5 * sol.u1
            move = ((step[:, None] * sol.weights)[..., None]
                    * (z[:, None, :] - coords[sol.basis]))
            move[frozen[sol.basis]] = 0.0
            idx, vec = sol.basis.ravel(), move.reshape(-1, d).T
            every = cfg.trace_every
            for t in range(-k % every, len(X), every) if every else ():
                rows = t * (d + 1)
                record(k + t, coords + _scatter_sum(idx[:rows],
                                                    vec[:, :rows], n))
            coords += _scatter_sum(idx, vec, n)
            k += len(X)
    return coords, outside


def mc_gradient(grid: Grid, dist: DistributionSpec, spec: NormSpec,
                n_samples: int, rng: RngStream, return_std: bool = False):
    """Monte Carlo gradient of the extended mean error power, shape (n, d).

    Every sample contributes lam_i (p ||xi-x_i||^{p-2} (x_i-xi) - u1)
    on its basis rows, which is 2 lam_i (x_i - z*) in the quadratic
    case.  An exterior sample's basis is its nearest neighbour alone
    (lam = 1, u1 = 0), so the same formula pulls that point toward it.
    Shards draw from numbered substreams, never the parent stream, and
    reduce in index order, so the estimate depends only on the seed and
    ``n_samples``.  A RuntimeWarning flags more than 1% of samples tied
    (``BatchSolution.tied``), where the pathwise gradient may be biased.
    """
    if spec.kind != "l2" or spec.p < 2:
        raise NonDifferentiableError(
            "the pathwise gradient needs the Euclidean norm with p >= 2")
    if n_samples < 1 or (return_std and n_samples < 2):
        raise ValueError("not enough samples")
    if dist.dim != grid.dim:
        raise ValueError("distribution and grid dimensions differ")
    n, d, p = grid.n, grid.dim, spec.p
    Pt = np.ascontiguousarray(grid.points.T)  # one coordinate per row
    solver = BatchSolver(grid, spec, extended=True)

    def shard(k: int, m: int) -> tuple:
        X = np.asarray(dist.sampler(rng.substream(k), m), float)
        # every basis entry in row order, one coordinate per row of vec:
        # a bincount per coordinate then adds in the order of a
        # block-by-block scatter, and reads its weights without a copy
        idx = np.empty(m * (d + 1), dtype=np.intp)
        vec = np.empty((d, m * (d + 1)))
        tied = 0
        for s in range(0, m, _GRADIENT_ROWS):
            Xb = X[s:s + _GRADIENT_ROWS]
            sol = solver.solve(Xb)
            tied += int(np.count_nonzero(sol.tied))
            rows = slice(s * (d + 1), (s + len(Xb)) * (d + 1))
            idx[rows] = sol.basis.ravel()
            f = 2.0  # p r^(p-2), which is p r^0 = 2.0 bit for bit at p = 2
            if p != 2:
                diff = grid.points[sol.basis] - Xb[:, None, :]
                f = p * np.sqrt(np.sum(diff * diff, axis=-1)) ** (p - 2.0)
            for c in range(d):  # in place, one coordinate at a time
                out = vec[c, rows].reshape(len(Xb), d + 1)
                np.subtract(Pt[c][sol.basis], Xb[:, c, None], out=out)
                out *= f
                out -= sol.u1[:, c, None]
                out *= sol.weights
        if not return_std:
            return tied, _scatter_sum(idx, vec, n)
        return tied, _scatter_sum(idx, vec, n), _scatter_sum(idx, vec ** 2, n)

    tied, gsum, *gsq = shard_reduce(n_samples, DEFAULT_CHUNK, 1, shard)
    if tied > 0.01 * n_samples:
        warnings.warn(
            f"{tied}/{n_samples} gradient samples hit degenerate queries; "
            "the pathwise gradient may be biased for this grid",
            RuntimeWarning, stacklevel=2)
    grad = gsum / n_samples
    if return_std:
        var = np.maximum(gsq[0] - n_samples * grad ** 2, 0.0) / (n_samples - 1)
        return grad, np.sqrt(var / n_samples)
    return grad


def refine(grid: Grid, dist: DistributionSpec, iters: int = 5,
           mc_samples: int = 50_000, *, rng: RngStream) -> Grid:
    """Descend a fixed-seed MC estimate of the extended error power
    (Euclidean norm, p = 2).

    Steps backtrack until the common-random-number estimate strictly
    decreases, so the result never scores worse than the input on that
    fixed sample set.  That set is drawn once per call and held for every
    evaluation of the objective (``mc_samples`` * d * 8 bytes), read only.
    A trial step that collapses two points counts as failed and halves
    the step.  Pinned points stay put.
    """
    if iters < 0 or mc_samples < 2:
        raise ValueError("bad refine settings")
    free = np.array([i not in grid.pinned for i in range(grid.n)])
    if iters == 0 or not free.any():
        return grid
    obj_rng, held = rng.substream(0), {}

    def draw(stream: RngStream, m: int) -> np.ndarray:
        key = (stream.seed, stream.spawn_key, m)
        if key not in held:
            X = held[key] = np.asarray(dist.sampler(stream, m), float)
            X.flags.writeable = False
        return held[key]

    held_dist = replace(dist, sampler=draw)

    def objective(g: Grid) -> float:
        return mc_dq_error(g, held_dist, EUCLIDEAN_QUADRATIC, mc_samples,
                           obj_rng, extended=True).value

    current = objective(grid)
    span = float(np.max(np.ptp(grid.points, axis=0))) or 1.0
    for it in range(iters):
        g = mc_gradient(grid, dist, EUCLIDEAN_QUADRATIC, mc_samples,
                        rng.substream(10 + it))
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
            except (ValueError, DegenerateGeometryError):
                val = np.inf  # step collapsed two points; shrink
            if val < current:
                grid, current, accepted = trial, val, True
                break
            step /= 2.0
        if not accepted:
            break
    return grid
