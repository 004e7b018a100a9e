"""Random splitting along the optimal basis weights.

The splitting operator sends xi to one of the d+1 optimal-basis
vertices, choosing vertex i with probability lambda_i(xi).  Because the
weights are barycentric, the operator is intrinsically stationary:
E[J(xi)] = xi, and E ||xi - J(xi)||^p recovers the local error exactly.
Outside the hull, the extended operator projects to the nearest grid
point first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .geometry import Grid, NormSpec, norm_value_batch
from .lp import local_dq_solve
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
    index; ``u`` broadcasts against ``weights[..., 0]``.
    """
    cum = np.cumsum(np.maximum(weights, 0.0), axis=-1)
    pos = np.sum(cum <= np.expand_dims(u, -1), axis=-1)
    return np.minimum(pos, cum.shape[-1] - 1)


def split(grid: Grid, xi, spec: NormSpec, rng: RngStream) -> SplitOutcome:
    """Draw one splitting outcome; requires xi inside the hull.

    The basis is the LP's; on a tie it is the lexicographically smallest
    optimal one.
    """
    sol = local_dq_solve(grid, np.asarray(xi, dtype=float), spec)
    idx = sol.basis[int(pick(sol.weights, rng.uniform()))]
    return SplitOutcome(idx, grid.points[idx].copy(), "interior", sol.basis, sol.weights)


def split_extended(grid: Grid, xi, spec: NormSpec, rng: RngStream) -> SplitOutcome:
    """Splitting extended to all of R^d by nearest-point projection."""
    try:
        return split(grid, xi, spec, rng)
    except InfeasibleError:
        idx = nn_project(grid, np.asarray(xi, dtype=float), spec)
        return SplitOutcome(idx, grid.points[idx].copy(), "exterior", None, None)


def split_many(grid: Grid, xi, spec: NormSpec, rng: RngStream, n: int) -> np.ndarray:
    """n independent splitting draws at a fixed query point.

    Solves once and applies the cumulative-weight rule to a vector of
    uniforms; distributionally identical to n calls of ``split``.
    """
    sol = local_dq_solve(grid, np.asarray(xi, dtype=float), spec)
    return np.asarray(sol.basis, dtype=int)[pick(sol.weights, rng.uniform(n))]


def interpolate(grid: Grid, F, xi, spec: NormSpec) -> float:
    """Barycentric interpolation sum(lambda_i F(x_i)) over the optimal basis.

    Reproduces affine functions exactly and dominates convex ones.
    """
    sol = local_dq_solve(grid, np.asarray(xi, dtype=float), spec)
    return float(sum(w * F(grid.points[i]) for i, w in zip(sol.basis, sol.weights)))
