"""Grids, norms and the affine primitives under the local functional.

Points are plain float arrays of shape (d,), grids hold an (n, d) array.
All norm quantities are p-th powers of the chosen norm.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import lu_factor

from . import _simplex
from .errors import DegenerateGeometryError, GridFormatError

# Rank decisions use pivot magnitudes against this factor times the
# input magnitude scale; feasibility checks scale 1e-9 the same way.
RANK_TOL = 1e-10
FEAS_TOL = 1e-9

NORM_KINDS = ("l1", "l2", "linf")


@dataclass(frozen=True)
class NormSpec:
    """A norm choice together with the power p >= 1 of the functional."""

    kind: str = "l2"
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}; expected one of {NORM_KINDS}")
        if not np.isfinite(self.p) or self.p < 1.0:
            raise ValueError("p must be finite and >= 1")

    @property
    def is_euclidean_quadratic(self) -> bool:
        return self.kind == "l2" and self.p == 2.0


EUCLIDEAN_QUADRATIC = NormSpec("l2", 2.0)


class Grid:
    """An ordered set of n pairwise-distinct points in R^d.

    Parameters
    ----------
    points : array-like, shape (n, d)
        Grid coordinates; stored as a read-only float64 copy.
    pinned : iterable of int, optional
        Indices (0-based) that training must never move.
    """

    def __init__(self, points, pinned=()):
        pts = np.array(points, dtype=float, order="C")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a non-empty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid coordinates must be finite")
        if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
            raise DegenerateGeometryError("grid points must be pairwise distinct")
        pts.setflags(write=False)
        self.points = pts
        self.pinned = frozenset(int(i) for i in pinned)
        if self.pinned and not all(0 <= i < pts.shape[0] for i in self.pinned):
            raise ValueError("pinned indices out of range")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def with_points(self, points) -> "Grid":
        """Same pinned set, new coordinates."""
        return Grid(points, self.pinned)

    def __repr__(self):
        return f"Grid(n={self.n}, dim={self.dim}, pinned={sorted(self.pinned)})"


def norm_value_batch(diffs, spec: NormSpec) -> np.ndarray:
    """Row-wise ||diff||^p for an (N, d) array of difference vectors."""
    diffs = np.asarray(diffs, dtype=float)
    if spec.kind == "l1":
        base = np.sum(np.abs(diffs), axis=-1)
    elif spec.kind == "l2":
        sq = np.sum(diffs * diffs, axis=-1)
        if spec.p == 2.0:
            return sq
        base = np.sqrt(sq)
    else:
        base = np.max(np.abs(diffs), axis=-1)
    return base**spec.p


def extended_matrix(points) -> np.ndarray:
    """Stack coordinates over a row of ones: shape (d+1, k)."""
    pts = np.asarray(points, dtype=float)
    return np.vstack([pts.T, np.ones(pts.shape[0])])


def _rank_deficient(square: np.ndarray) -> bool:
    """LU pivot-magnitude rank test on a square matrix."""
    scale = float(np.max(np.abs(square))) if square.size else 0.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # singular input is a valid query here
            lu, _ = lu_factor(square, check_finite=False)
    except Exception:
        return True
    piv = np.abs(np.diag(lu))
    return bool(np.min(piv) <= RANK_TOL * (1.0 + scale))


def is_affine_basis(grid: Grid, indices) -> bool:
    """True iff the d+1 indexed points affinely span R^d."""
    idx = [int(i) for i in indices]
    if len(set(idx)) != grid.dim + 1:
        return False
    if not all(0 <= i < grid.n for i in idx):
        return False
    M = extended_matrix(grid.points[idx])
    return not _rank_deficient(M)


def in_convex_hull(grid: Grid, xi, tol: float | None = None) -> bool:
    """Feasibility of xi as a convex combination of the grid points."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (grid.dim,):
        raise ValueError(f"query point must have shape ({grid.dim},)")
    if tol is None:
        scale = max(float(np.max(np.abs(grid.points))), float(np.max(np.abs(xi))))
        tol = FEAS_TOL * (1.0 + scale)
    A = extended_matrix(grid.points)
    b = np.concatenate([xi, [1.0]])
    return _simplex.phase_one_feasible(A, b, tol)


def circumcenter(points) -> tuple[np.ndarray, float]:
    """Center and radius of the sphere through d+1 points in R^d."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != pts.shape[1] + 1:
        raise ValueError("expected d+1 points in R^d")
    x0 = pts[0]
    M = 2.0 * (pts[1:] - x0)
    rhs = np.sum(pts[1:] ** 2, axis=1) - np.sum(x0**2)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= RANK_TOL * (1.0 + sv[0]):
        raise DegenerateGeometryError("circumcenter of an affinely degenerate simplex")
    z = np.linalg.solve(M, rhs)
    r = float(np.linalg.norm(z - x0))
    return z, r


# --- grid files ------------------------------------------------------------
#
# JSON carries the full record {dim, n, points, pinned, meta}; CSV carries
# coordinates only (one point per row, optional header).  Coordinates are
# written with 17 significant digits so a round trip is bit-identical.


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def save_grid(grid: Grid, path, meta: dict | None = None) -> None:
    """Write a grid file; format chosen by extension (.json or .csv)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        doc = {
            "dim": grid.dim,
            "n": grid.n,
            "points": [[float(_fmt(v)) for v in row] for row in grid.points],
            "pinned": sorted(grid.pinned),
            "meta": meta or {},
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
    elif path.suffix.lower() == ".csv":
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x{j}" for j in range(grid.dim)])
            for row in grid.points:
                w.writerow([_fmt(v) for v in row])
    else:
        raise GridFormatError(f"unsupported grid file extension: {path.suffix!r}")


def load_grid(path) -> tuple[Grid, dict]:
    """Read a grid file; returns (grid, meta). CSV files have empty meta."""
    path = Path(path)
    if not path.exists():
        raise GridFormatError(f"grid file not found: {path}")
    if path.suffix.lower() == ".json":
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise GridFormatError(f"malformed JSON grid file: {exc}") from exc
        for key in ("dim", "n", "points"):
            if key not in doc:
                raise GridFormatError(f"grid JSON missing key {key!r}")
        pts = np.asarray(doc["points"], dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape != (int(doc["n"]), int(doc["dim"])):
            raise GridFormatError("grid JSON dim/n do not match the points array")
        grid = Grid(pts, doc.get("pinned", ()))
        return grid, dict(doc.get("meta", {}))
    if path.suffix.lower() == ".csv":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for i, row in enumerate(reader):
                if not row:
                    continue
                try:
                    rows.append([float(v) for v in row])
                except ValueError:
                    if i == 0:
                        continue  # header row
                    raise GridFormatError(f"non-numeric CSV row {i}: {row!r}")
        if not rows:
            raise GridFormatError("empty CSV grid file")
        return Grid(np.asarray(rows)), {}
    raise GridFormatError(f"unsupported grid file extension: {path.suffix!r}")
