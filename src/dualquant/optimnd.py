"""Stochastic-gradient training of dual quantization grids.

The competitive-learning rule moves the vertices of the simplex
containing each sample toward that simplex's circumcenter, scaled by
the barycentric weight and a Robbins-Monro step size a/(b+k).  Samples
outside the hull pull their nearest neighbour instead, which is the
stochastic gradient of the exterior branch of the extended functional.

The planar Euclidean-quadratic loop runs on a periodically rebuilt
triangulation with plain-float arithmetic; location failures between
rebuilds and all other settings go through the LP solver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .batch import BatchSolver, shard_reduce
from .delaunay import dq_solve_delaunay, triangulate
from .distributions import DistributionSpec
from .errors import FlatGridError, InfeasibleError, NonDifferentiableError
from .geometry import EUCLIDEAN_QUADRATIC, Grid, NormSpec
from .lp import is_nondegenerate, local_dq_solve
from .metrics import DEFAULT_CHUNK, mc_dq_error
from .rng import RngStream
from .splitting import nn_project

_PROBE_STREAM = 0x7FFFFFFF  # substream reserved for degeneracy probes
_GRADIENT_ROWS = 4096  # rows per solve in a gradient shard: bounds memory


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
    retriangulate_every: int = 64
    trace_every: int = 0
    trace_samples: int = 4096
    refine_iters: int = 0
    refine_samples: int = 50_000

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.a <= 0.0 or self.b < 1.0:
            raise ValueError("need a > 0 and b >= 1")
        if self.retriangulate_every < 1:
            raise ValueError("retriangulate_every must be positive")
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


def cvlq_step(grid: Grid, xi, alpha: float,
              spec: NormSpec = EUCLIDEAN_QUADRATIC, tri=None) -> Grid:
    """One competitive-learning update from a single sample.

    Basis vertices move toward z* = xi + u1/2 by alpha times their
    weight; outside the hull the nearest neighbour moves toward the
    sample.  Pinned points never move.
    """
    if not spec.is_euclidean_quadratic:
        raise ValueError("the update needs the Euclidean norm with p = 2")
    pts = grid.points.copy()
    _lp_update(pts, grid.pinned, np.asarray(xi, dtype=float).reshape(-1),
               alpha, tri)
    return grid.with_points(pts)


def _lp_update(pts: np.ndarray, pinned, xi: np.ndarray, alpha: float,
               tri=None) -> int:
    """LP-route update of ``pts`` in place; returns 1 when xi was outside
    the hull (nearest-neighbour pull applied), else 0.  A triangulation
    of the planar points, when given, replaces the LP."""
    g = Grid(pts)
    try:
        if tri is not None:
            sol = dq_solve_delaunay(g, tri, xi, EUCLIDEAN_QUADRATIC)
        else:
            sol = local_dq_solve(g, xi, EUCLIDEAN_QUADRATIC)
    except InfeasibleError:
        j = nn_project(g, xi, EUCLIDEAN_QUADRATIC)
        if j not in pinned:
            pts[j] -= alpha * (pts[j] - xi)
        return 1
    z = sol.z_star()
    for idx, w in zip(sol.basis, sol.weights):
        if idx not in pinned:
            pts[idx] -= alpha * float(w) * (pts[idx] - z)
    return 0


def _init_points(dist: DistributionSpec, n: int, anchors: np.ndarray,
                 stream: RngStream) -> np.ndarray:
    d = dist.dim
    for _ in range(16):
        drawn = np.asarray(dist.sampler(stream, n - len(anchors)), float)
        pts = np.vstack([anchors, drawn]) if len(anchors) else drawn
        centered = pts - pts.mean(axis=0)
        tol = 1e-9 * (1.0 + float(np.max(np.abs(pts))))
        if (len(np.unique(pts, axis=0)) == n
                and np.linalg.matrix_rank(centered, tol=tol) == d):
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
    anchors = (np.asarray(config.anchors, dtype=float).reshape(-1, d)
               if config.anchors else np.empty((0, d)))
    if len(anchors) > n:
        raise ValueError("more anchors than grid points")
    rng = RngStream(config.seed)
    pts = _init_points(dist, n, anchors, rng.substream(0))
    sample_stream = rng.substream(1)
    eval_stream = rng.substream(2)
    pinned = frozenset(range(len(anchors)))
    trace: list = []

    def record(step: int, coords: np.ndarray) -> None:
        est = mc_dq_error(Grid(coords, pinned), dist, EUCLIDEAN_QUADRATIC,
                          config.trace_samples, eval_stream, extended=True)
        trace.append((step, est))

    outside = 0
    if config.steps > 0:
        if d == 2:
            coords, outside = _train_plane(pts, pinned, dist, config,
                                           sample_stream, record)
        else:
            coords, outside = _train_lp(pts, pinned, dist, config,
                                        sample_stream, record)
    else:
        coords = pts
    grid = Grid(coords, pinned)
    if config.refine_iters > 0:
        grid = refine(grid, dist, iters=config.refine_iters,
                      mc_samples=config.refine_samples,
                      rng=rng.substream(3))
    if config.trace_every > 0:
        record(config.steps, grid.points)
    return TrainReport(grid, tuple(trace),
                       outside / max(config.steps, 1))


def _walk(tris, nbrs, xs, ys, t0: int, px: float, py: float) -> int:
    """Plain-float orientation walk on possibly stale topology.

    Returns the triangle index, -1 after stepping over a hull edge, or
    -2 when the step cap trips (moved vertices can make the stale mesh
    inconsistent, so the walk may cycle)."""
    nt = len(tris)
    t = t0 if 0 <= t0 < nt else 0
    tol = 1e-9 * (1.0 + abs(px) + abs(py))
    for _ in range(2 * nt + 8):
        ia, ib, ic = tris[t]
        ax, ay = xs[ia], ys[ia]
        bx, by = xs[ib], ys[ib]
        cx, cy = xs[ic], ys[ic]
        s = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
        if s < -tol * (abs(bx - ax) + abs(by - ay) + 1e-30):
            t = nbrs[t][2]
            if t == -1:
                return -1
            continue
        s = (cx - bx) * (py - by) - (px - bx) * (cy - by)
        if s < -tol * (abs(cx - bx) + abs(cy - by) + 1e-30):
            t = nbrs[t][0]
            if t == -1:
                return -1
            continue
        s = (ax - cx) * (py - cy) - (px - cx) * (ay - cy)
        if s < -tol * (abs(ax - cx) + abs(ay - cy) + 1e-30):
            t = nbrs[t][1]
            if t == -1:
                return -1
            continue
        return t
    return -2


def _train_plane(pts, pinned, dist, cfg, sample_stream, record):
    n = len(pts)
    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist()
    pin = [i in pinned for i in range(n)]
    a, b = cfg.a, cfg.b
    every = cfg.retriangulate_every
    trace_every = cfg.trace_every
    tris: list = []
    nbrs: list = []
    topo_ok = False
    hint = 0

    def rebuild() -> None:
        nonlocal tris, nbrs, topo_ok, hint
        try:
            t = triangulate(Grid(np.column_stack([xs, ys])))
        except (FlatGridError, ValueError):
            topo_ok = False
            return
        tris, nbrs, topo_ok, hint = t.triangles, t.neighbors, True, 0

    rebuild()
    outside = 0
    k = 0
    steps = cfg.steps
    while k < steps:
        take = min(1024, steps - k)
        batch = np.asarray(dist.sampler(sample_stream, take), float)
        sx = batch[:, 0].tolist()
        sy = batch[:, 1].tolist()
        for m in range(take):
            if trace_every and k % trace_every == 0:
                record(k, np.column_stack([xs, ys]))
            if k and k % every == 0:
                rebuild()
            px, py = sx[m], sy[m]
            alpha = a / (b + k)
            t = _walk(tris, nbrs, xs, ys, hint, px, py) if topo_ok else -2
            if t >= 0:
                hint = t
                ia, ib, ic = tris[t]
                ax, ay = xs[ia], ys[ia]
                bx, by = xs[ib], ys[ib]
                cx, cy = xs[ic], ys[ic]
                det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
                if det != 0.0:
                    l1 = ((px - ax) * (cy - ay) - (cx - ax) * (py - ay)) / det
                    l2 = ((bx - ax) * (py - ay) - (px - ax) * (by - ay)) / det
                    l0 = 1.0 - l1 - l2
                    dd = 2.0 * (ax * (by - cy) + bx * (cy - ay)
                                + cx * (ay - by))
                    if (l0 >= -1e-9 and l1 >= -1e-9 and l2 >= -1e-9
                            and dd != 0.0):
                        a2 = ax * ax + ay * ay
                        b2 = bx * bx + by * by
                        c2 = cx * cx + cy * cy
                        ux = (a2 * (by - cy) + b2 * (cy - ay)
                              + c2 * (ay - by)) / dd
                        uy = (a2 * (cx - bx) + b2 * (ax - cx)
                              + c2 * (bx - ax)) / dd
                        if not pin[ia]:
                            xs[ia] -= alpha * l0 * (xs[ia] - ux)
                            ys[ia] -= alpha * l0 * (ys[ia] - uy)
                        if not pin[ib]:
                            xs[ib] -= alpha * l1 * (xs[ib] - ux)
                            ys[ib] -= alpha * l1 * (ys[ib] - uy)
                        if not pin[ic]:
                            xs[ic] -= alpha * l2 * (xs[ic] - ux)
                            ys[ic] -= alpha * l2 * (ys[ic] - uy)
                    else:
                        t = -2
                else:
                    t = -2
            if t < 0:
                live = np.column_stack([xs, ys])
                outside += _lp_update(live, pinned, np.array([px, py]), alpha)
                xs[:], ys[:] = live[:, 0].tolist(), live[:, 1].tolist()
            k += 1
    return np.column_stack([xs, ys]), outside


def _train_lp(pts, pinned, dist, cfg, sample_stream, record):
    coords = np.array(pts, dtype=float)
    outside = 0
    k = 0
    while k < cfg.steps:
        take = min(1024, cfg.steps - k)
        batch = np.asarray(dist.sampler(sample_stream, take), float)
        for m in range(take):
            if cfg.trace_every and k % cfg.trace_every == 0:
                record(k, coords.copy())
            outside += _lp_update(coords, pinned, batch[m],
                                  cfg.a / (cfg.b + k))
            k += 1
    return coords, outside


def _degeneracy_probe(grid: Grid, dist: DistributionSpec, spec: NormSpec,
                      rng: RngStream, probes: int = 64) -> None:
    X = np.asarray(dist.sampler(rng.substream(_PROBE_STREAM), probes), float)
    fails = 0
    for x in X:
        try:
            if not is_nondegenerate(grid, x, spec):
                fails += 1
        except InfeasibleError:
            continue  # exterior samples use the smooth NN branch
    if fails > 0.01 * probes:
        warnings.warn(
            f"{fails}/{probes} probe samples hit degenerate queries; "
            "the pathwise gradient may be biased for this grid",
            RuntimeWarning, stacklevel=3)


def mc_gradient(grid: Grid, dist: DistributionSpec, spec: NormSpec,
                n_samples: int, rng: RngStream, return_std: bool = False,
                chunk: int = DEFAULT_CHUNK):
    """Monte Carlo gradient of the extended mean error power, shape (n, d).

    Every sample contributes lam_i (p ||xi-x_i||^{p-2} (x_i-xi) - u1)
    on its basis rows, which is 2 lam_i (x_i - z*) in the quadratic
    case.  An exterior sample's basis is its nearest neighbour alone
    (lam = 1, u1 = 0), so the same formula pulls that point toward it.
    Shards reduce in index order and draw from numbered substreams, so
    the estimate never consumes the parent stream.
    """
    if spec.kind != "l2" or spec.p < 2:
        raise NonDifferentiableError(
            "the pathwise gradient needs the Euclidean norm with p >= 2")
    if n_samples < 1 or (return_std and n_samples < 2):
        raise ValueError("not enough samples")
    if dist.dim != grid.dim:
        raise ValueError("distribution and grid dimensions differ")
    _degeneracy_probe(grid, dist, spec, rng)

    n, d, p = grid.n, grid.dim, spec.p
    solver = BatchSolver(grid, spec, extended=True)

    def shard(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        X = np.asarray(dist.sampler(rng.substream(k), m), float)
        gs, gq = np.zeros((n, d)), np.zeros((n, d))
        for s in range(0, m, _GRADIENT_ROWS):
            Xb = X[s:s + _GRADIENT_ROWS]
            sol = solver.solve(Xb)
            diff = grid.points[sol.basis] - Xb[:, None, :]
            r = np.sqrt(np.sum(diff * diff, axis=-1, keepdims=True))
            vec = sol.weights[..., None] * (p * r ** (p - 2.0) * diff
                                            - sol.u1[:, None, :])
            idx, vec = sol.basis.ravel(), vec.reshape(-1, d)
            np.add.at(gs, idx, vec)
            np.add.at(gq, idx, vec ** 2)
        return gs, gq

    gsum, gsq = shard_reduce(n_samples, chunk, 1, shard)
    grad = gsum / n_samples
    if return_std:
        var = np.maximum(gsq - n_samples * grad ** 2, 0.0) / (n_samples - 1)
        return grad, np.sqrt(var / n_samples)
    return grad


def refine(grid: Grid, dist: DistributionSpec, iters: int = 5,
           mc_samples: int = 50_000, rng: RngStream | None = None,
           spec: NormSpec = EUCLIDEAN_QUADRATIC) -> Grid:
    """Descend a fixed-seed MC estimate of the extended error power.

    Steps backtrack until the common-random-number estimate strictly
    decreases, so the result never scores worse than the input on that
    fixed sample set.  Pinned points stay put.
    """
    if iters < 0 or mc_samples < 2:
        raise ValueError("bad refine settings")
    if rng is None:
        rng = RngStream(0)
    free = np.array([i not in grid.pinned for i in range(grid.n)])
    if iters == 0 or not free.any():
        return grid
    obj_rng = rng.substream(0)

    def objective(g: Grid) -> float:
        return mc_dq_error(g, dist, spec, mc_samples, obj_rng,
                           extended=True).value

    current = objective(grid)
    span = float(np.max(np.ptp(grid.points, axis=0))) or 1.0
    for it in range(iters):
        g = mc_gradient(grid, dist, spec, mc_samples, rng.substream(10 + it))
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
            except ValueError:
                val = np.inf  # step collapsed two points; shrink
            if val < current:
                grid, current, accepted = trial, val, True
                break
            step /= 2.0
        if not accepted:
            break
    return grid
