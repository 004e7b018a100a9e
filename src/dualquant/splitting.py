"""Random splitting along the optimal basis weights.

The splitting operator sends xi to one of the d+1 optimal-basis
vertices, choosing vertex i with probability lambda_i(xi).  Because the
weights are barycentric, the operator is intrinsically stationary:
E[J(xi)] = xi, and E ||xi - J(xi)||^p recovers the local error exactly.
Outside the hull, the extended operator projects to the nearest grid
point first.

Each call solves its point as one row of ``BatchSolver``, as ``cubature``
does, so both draw from the LP's basis (on a tie its canonical one), in
ascending grid index.  Outside the hull every call but ``split_extended``
raises SampleOutsideHullError.  At a point of a 1D grid the bracketing
pair may differ from the LP's basis; the draw, all of whose weight sits
on that point, cannot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import BatchSolver
from .geometry import Grid, NormSpec, norm_value_batch
from .rng import RngStream

__all__ = [
    "RngStream",
    "SplitOutcome",
    "interpolate",
    "nn_project",
    "split",
    "split_extended",
]


@dataclass(frozen=True)
class SplitOutcome:
    """One draw of the splitting operator at a query point."""

    index: int                      # chosen grid index
    point: np.ndarray               # its coordinates
    mode: str                       # "interior" or "exterior"
    basis: tuple[int, ...] | None   # optimal basis (interior mode)
    weights: np.ndarray | None      # barycentric weights over the basis


def nn_project(grid: Grid, xi, spec: NormSpec) -> int:
    """Nearest grid index under the chosen norm; ties take the smallest."""
    xi = np.asarray(xi, dtype=float)
    d = norm_value_batch(xi[None, :] - grid.points, spec)
    return int(np.argmin(d))


def pick(weights, u) -> np.ndarray:
    """Cumulative-weight vertex choice: the position of the first vertex
    whose running sum of clipped weights exceeds u, or the last vertex
    when rounding leaves the total at or below u.

    ``weights`` (..., k) holds each basis's weights in ascending grid
    index, as every ``BatchSolver`` path and the LP give them; ``u``
    broadcasts against ``weights[..., 0]``.
    """
    cum = np.cumsum(np.maximum(weights, 0.0), axis=-1)
    pos = np.sum(cum <= np.expand_dims(u, -1), axis=-1)
    return np.minimum(pos, cum.shape[-1] - 1)


def _solve(grid: Grid, xi, spec: NormSpec, extended: bool = False):
    """Basis, weights and nearest index (-1 inside the hull) at xi, one
    row of ``BatchSolver(grid, spec, extended)``."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (grid.dim,):
        raise ValueError(f"query point must have shape ({grid.dim},)")
    sol = BatchSolver(grid, spec, extended).solve(xi[None, :])
    return sol.basis[0], sol.weights[0], int(sol.nearest[0])


def _draw(grid: Grid, basis, weights, rng: RngStream) -> SplitOutcome:
    idx = int(basis[int(pick(weights, rng.uniform()))])
    return SplitOutcome(idx, grid.points[idx].copy(), "interior",
                        tuple(int(i) for i in basis), weights)


def split(grid: Grid, xi, spec: NormSpec, rng: RngStream) -> SplitOutcome:
    """Draw one splitting outcome; requires xi inside the hull."""
    basis, weights, _ = _solve(grid, xi, spec)
    return _draw(grid, basis, weights, rng)


def split_extended(grid: Grid, xi, spec: NormSpec, rng: RngStream) -> SplitOutcome:
    """Splitting extended to all of R^d by nearest-point projection.

    Outside the hull no uniform is drawn from ``rng``.
    """
    basis, weights, j = _solve(grid, xi, spec, extended=True)
    if j >= 0:
        return SplitOutcome(j, grid.points[j].copy(), "exterior", None, None)
    return _draw(grid, basis, weights, rng)


def split_many(grid: Grid, xi, spec: NormSpec, rng: RngStream, n: int) -> np.ndarray:
    """n independent splitting draws at a fixed query point.

    Solves once and applies the cumulative-weight rule to a vector of
    uniforms; on the same stream it gives the indices of n calls of
    ``split``.
    """
    basis, weights, _ = _solve(grid, xi, spec)
    return basis[pick(weights, rng.uniform(n))]


def interpolate(grid: Grid, F, xi, spec: NormSpec) -> float:
    """Barycentric interpolation sum(lambda_i F(x_i)) over the optimal basis.

    Reproduces affine functions exactly and dominates convex ones.
    """
    basis, weights, _ = _solve(grid, xi, spec)
    return float(sum(w * F(grid.points[i]) for i, w in zip(basis, weights)))
