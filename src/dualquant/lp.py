"""Local dual quantization error as a linear program.

For a grid Gamma and a query xi inside its convex hull, the local error
is the optimum of

    min  sum_i lambda_i ||xi - x_i||^p
    s.t. sum_i lambda_i x_i = xi,  sum_i lambda_i = 1,  lambda >= 0.

The optimal basis (d+1 affinely independent grid points whose simplex
contains xi) is canonicalized deterministically so that repeated solves
and boundary queries always report the same basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from . import _simplex
from .errors import BasisBudgetError, FlatGridError, InfeasibleError
from .geometry import (Grid, NormSpec, _affinely_independent, extended_matrix,
                       norm_value_batch, unit_frame)

# Tolerance of the LP's decisions, taken in the grid's own units
# (see _unit_program), so it is relative to the grid.
TOL = 1e-9
# Cap on tight-set subsets examined while canonicalizing a tied basis.
TIE_BUDGET = 10_000


@dataclass(frozen=True)
class LocalSolution:
    """Optimal basis, weights and dual certificate at a query point.

    ``basis`` is sorted ascending and ``weights`` is aligned with it;
    ``u`` stacks the spatial dual over the affine component, so the
    optimal value equals u[:d] . xi + u[d].
    """

    xi: np.ndarray
    basis: tuple[int, ...]
    weights: np.ndarray
    u: np.ndarray
    value: float

    @property
    def u_spatial(self) -> np.ndarray:
        return self.u[:-1]

    @property
    def u_affine(self) -> float:
        return float(self.u[-1])

    def z_star(self) -> np.ndarray:
        """Dual center xi + u/2; the basis circumcenter for l2, p = 2."""
        return self.xi + 0.5 * self.u_spatial


@dataclass(frozen=True)
class ExtendedValue:
    """Everywhere-defined local error: LP value inside the hull,
    nearest-point power distance outside."""

    value: float
    mode: str  # "interior" or "exterior"
    solution: LocalSolution | None
    nn_index: int | None


def _unit_program(grid: Grid, xi: np.ndarray, c: np.ndarray):
    """The local LP in the grid's own units: constraints from unit_frame
    and costs divided by the largest (positive for a spanning grid).  The
    feasible set and the optimal bases are unchanged, so the one relative
    tolerance TOL serves every scale and offset of the grid."""
    A, b = unit_frame(grid, xi)
    if not _affinely_independent(A):
        raise FlatGridError("grid points do not affinely span the ambient space")
    return A, b, c / np.max(c)


def _costs(grid: Grid, xi: np.ndarray, spec: NormSpec) -> np.ndarray:
    return norm_value_batch(xi[None, :] - grid.points, spec)


def _canonical_basis(A, b, c, res, tol_s, tol_w):
    """Deterministic optimal basis selection, and whether it was tied.

    Ties (query on a region boundary, cocircular configurations, vertex
    hits) are resolved toward the lexicographically smallest basis: the
    best feasible (d+1)-subset of the tight columns is compared against
    the greedy smallest-index completion of the positive support.
    """
    m, n = A.shape
    basis = sorted(res.basis)
    support = sorted(i for i in basis if res.x[i] > tol_w)
    s = c - A.T @ res.y
    tight = np.flatnonzero(s <= tol_s)
    if len(support) == m and len(tight) == m and set(tight) == set(basis):
        return basis, False  # strict complementarity: the basis is unique
    cand_a = None
    if len(tight) >= m and comb(len(tight), m) <= TIE_BUDGET:
        for cand in combinations(tight.tolist(), m):
            cols = A[:, cand]
            if not _affinely_independent(cols):
                continue
            lam = np.linalg.solve(cols, b)
            if lam.min() >= -tol_w:
                cand_a = list(cand)
                break
    # Completion route: keep the carried weights, fill remaining slots
    # with the smallest indices that preserve affine independence.
    chosen = list(support)
    for j in range(n):
        if len(chosen) == m:
            break
        if j in chosen:
            continue
        if _affinely_independent(A[:, sorted(chosen + [j])]):
            chosen.append(j)
            chosen.sort()
    cand_b = sorted(chosen) if len(chosen) == m else None
    options = [tuple(cand) for cand in (cand_a, cand_b) if cand is not None]
    if not options:
        raise FlatGridError("could not complete an affine basis")
    return list(min(options)), True


def _solve(grid: Grid, xi, spec: NormSpec) -> tuple[LocalSolution, bool]:
    """``local_dq_solve``, and whether its LP solution is tied: not
    strictly complementary (a zero weight, or another tight column)."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (grid.dim,):
        raise ValueError(f"query point must have shape ({grid.dim},)")
    c = _costs(grid, xi, spec)
    A, b, c_unit = _unit_program(grid, xi, c)
    res = _simplex.solve_standard_form(A, b, c_unit, TOL)
    if res.status == "infeasible":
        raise InfeasibleError("query point lies outside the convex hull of the grid")
    basis, tied = _canonical_basis(A, b, c_unit, res, TOL, TOL)
    # weights, dual and value in the caller's units
    cols = extended_matrix(grid.points[basis])
    b = np.concatenate([xi, [1.0]])
    weights = np.linalg.solve(cols, b)
    u = np.linalg.solve(cols.T, c[basis])
    value = float(c[basis] @ weights)
    return LocalSolution(xi, tuple(int(i) for i in basis), weights, u,
                         value), tied


def local_dq_solve(grid: Grid, xi, spec: NormSpec) -> LocalSolution:
    """Solve the local LP at xi; raises InfeasibleError outside the hull."""
    return _solve(grid, xi, spec)[0]


def local_dq_value(grid: Grid, xi, spec: NormSpec) -> float:
    """Optimal value of the local LP (p-th power units)."""
    return local_dq_solve(grid, xi, spec).value


def local_dq_value_extended(grid: Grid, xi, spec: NormSpec) -> ExtendedValue:
    """Local error extended beyond the hull by nearest-point projection."""
    xi = np.asarray(xi, dtype=float)
    try:
        sol = local_dq_solve(grid, xi, spec)
        return ExtendedValue(sol.value, "interior", sol, None)
    except InfeasibleError:
        dists = norm_value_batch(xi[None, :] - grid.points, spec)
        j = int(np.argmin(dists))
        return ExtendedValue(float(dists[j]), "exterior", None, j)


def enumerate_bases_oracle(grid: Grid, xi, spec: NormSpec, budget: int = 2_000_000) -> float:
    """Brute-force reference value: scan every affinely independent
    (d+1)-subset whose simplex contains xi and take the cheapest.

    Deliberately shares no machinery with the simplex path.
    """
    xi = np.asarray(xi, dtype=float)
    d, n = grid.dim, grid.n
    if comb(n, d + 1) > budget:
        raise BasisBudgetError(f"C({n},{d + 1}) exceeds the enumeration budget")
    c = _costs(grid, xi, spec)
    b = np.concatenate([xi, [1.0]])
    best = None
    for idx in combinations(range(n), d + 1):
        cols = extended_matrix(grid.points[list(idx)])
        if not _affinely_independent(cols):
            continue
        lam = np.linalg.solve(cols, b)
        if lam.min() < -1e-11:
            continue
        val = float(c[list(idx)] @ lam)
        if best is None or val < best:
            best = val
    if best is None:
        raise InfeasibleError("no containing simplex: query outside the hull")
    return best


def optimality_region_contains(grid: Grid, indices, xi, spec: NormSpec) -> bool:
    """True iff the basis `indices` is optimal at xi (its region covers xi)."""
    xi = np.asarray(xi, dtype=float)
    idx = [int(i) for i in indices]
    cols = extended_matrix(grid.points[idx])
    if not _affinely_independent(cols):
        raise FlatGridError("indices are not an affine basis")
    b = np.concatenate([xi, [1.0]])
    lam = np.linalg.solve(cols, b)
    if lam.min() < -TOL:
        return False
    c = _costs(grid, xi, spec)
    val = float(c[idx] @ lam)
    opt = local_dq_value(grid, xi, spec)
    return val <= opt + TOL * float(np.max(c))  # TOL of the largest cost


def is_nondegenerate(grid: Grid, xi, spec: NormSpec) -> bool:
    """Strict complementarity: every non-basis column keeps positive slack."""
    sol = local_dq_solve(grid, xi, spec)
    if len(sol.basis) == grid.n:
        return True
    # slack in the grid's own units, as the solve judged it
    A, _, c = _unit_program(grid, sol.xi, _costs(grid, sol.xi, spec))
    basis = list(sol.basis)
    s = c - A.T @ np.linalg.solve(A[:, basis].T, c[basis])
    outside = np.setdiff1d(np.arange(grid.n), basis)
    return bool(np.min(s[outside]) > TOL)
