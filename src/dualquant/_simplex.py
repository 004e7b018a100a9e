"""Dense two-phase revised simplex for small equality-form programs.

Solves  min c.x  s.t.  A x = b, x >= 0  where A is (m, n) with m small
(here m = d+1).  Bland's rule everywhere, so cycling is impossible and
the pivot path is deterministic for a fixed input.  Basis factorizations
are re-solved densely each iteration; at this scale that is cheaper and
more robust than maintaining an updated inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MaxIterationsError

# Pivot eligibility threshold for ratio tests; reduced-cost tolerances
# are passed in by the caller because they carry the problem's scale.
PIVOT_TOL = 1e-11


@dataclass
class SimplexResult:
    status: str               # "optimal" or "infeasible"
    basis: list[int] | None   # m basic column indices
    x: np.ndarray | None      # full primal vector, length n
    y: np.ndarray | None      # dual vector, length m
    value: float
    iterations: int


def _bland_iterate(A, b, c, basis, tol, max_iter):
    """Run simplex pivots from a feasible basis until optimal."""
    m, n = A.shape
    basis = list(basis)
    for it in range(max_iter):
        B = A[:, basis]
        xB = np.linalg.solve(B, b)
        y = np.linalg.solve(B.T, c[basis])
        s = c - A.T @ y
        in_basis = np.zeros(n, dtype=bool)
        in_basis[basis] = True
        candidates = np.flatnonzero((s < -tol) & ~in_basis)
        if candidates.size == 0:
            return basis, xB, y, it
        j = int(candidates[0])  # Bland: smallest eligible index
        w = np.linalg.solve(B, A[:, j])
        rows = np.flatnonzero(w > PIVOT_TOL)
        if rows.size == 0:
            # Equality-with-simplex-constraint problems are bounded; an
            # unbounded ray here means the caller fed a malformed program.
            raise ArithmeticError("unbounded direction in simplex")
        ratios = xB[rows] / w[rows]
        theta = ratios.min()
        tied = rows[ratios <= theta + PIVOT_TOL * (1.0 + abs(theta))]
        # Bland: among tied rows leave the smallest basic variable index
        r = min(tied, key=lambda i: basis[i])
        basis[int(r)] = j
    raise MaxIterationsError(f"simplex exceeded {max_iter} pivots")


def _phase_one(A, b, tol):
    """Phase one from the artificial basis: rows flipped so b >= 0, an
    identity block appended.  Returns the extended program, the flips,
    the final basis, its artificial mass and the pivot count."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    A1 = A.copy()
    b1 = b.copy()
    flip = b1 < 0
    A1[flip] *= -1.0
    b1[flip] *= -1.0
    A1 = np.hstack([A1, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    basis, xB, _, it = _bland_iterate(A1, b1, c1, basis, tol,
                                      50 * (n + m) + 200)
    art_value = float(sum(xB[i] for i, col in enumerate(basis) if col >= n))
    return A1, b1, flip, basis, art_value, it


def solve_standard_form(A, b, c, tol) -> SimplexResult:
    """Two-phase simplex; returns an optimal basis or infeasibility."""
    c = np.asarray(c, dtype=float)
    m, n = np.shape(A)
    max_iter = 50 * (n + m) + 200

    A1, b1, flip, basis, art_value, total_it = _phase_one(A, b, tol)
    if art_value > tol:
        return SimplexResult("infeasible", None, None, None, art_value, total_it)

    # Drive residual zero-valued artificials out of the basis.  The
    # callers guarantee full row rank, so a pivot column always exists.
    for row in range(m):
        if basis[row] < n:
            continue
        B = A1[:, basis]
        pivoted = False
        for j in range(n):
            if j in basis:
                continue
            w = np.linalg.solve(B, A1[:, j])
            if abs(w[row]) > PIVOT_TOL:
                basis[row] = j
                pivoted = True
                break
        if not pivoted:
            raise ArithmeticError("redundant row: grid does not span the space")

    # Phase two on the original columns.
    basis, xB, y, it2 = _bland_iterate(A1[:, :n], b1, c, basis, tol, max_iter)
    total_it += it2
    # Undo the row flips in the dual before reporting.
    y = y.copy()
    y[flip] *= -1.0
    x = np.zeros(n)
    x[basis] = xB
    value = float(c[basis] @ xB)
    return SimplexResult("optimal", basis, x, y, value, total_it)


def phase_one_feasible(A, b, tol) -> bool:
    """True iff {x >= 0 : A x = b} is nonempty (within tol)."""
    return _phase_one(A, b, tol)[4] <= tol
