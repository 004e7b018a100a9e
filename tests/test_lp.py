import math
from itertools import combinations, product

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay

from dualquant.batch import BatchSolver
from dualquant.errors import BasisBudgetError, FlatGridError, InfeasibleError
from dualquant.geometry import (Grid, NormSpec, extended_matrix, in_convex_hull,
                                unit_frame)
from dualquant.lp import (
    TOL,
    enumerate_bases_oracle,
    is_nondegenerate,
    local_dq_solve,
    local_dq_value,
    local_dq_value_extended,
    optimality_region_contains,
)

seed = 515253
S2 = NormSpec("l2", 2)


def random_instance(rng, d, n):
    """A random grid and a query drawn as a convex combination (feasible)."""
    pts = rng.normal(size=(n, d)) * 2.0
    w = rng.exponential(size=n)
    w /= w.sum()
    return Grid(pts), w @ pts


def test_two_point_segment_example():
    g = Grid([[0.0], [1.0]])
    sol = local_dq_solve(g, [0.25], S2)
    assert sol.value == pytest.approx(0.1875, abs=1e-12)
    assert sol.basis == (0, 1)
    assert np.allclose(sol.weights, [0.75, 0.25], atol=1e-12)


def test_unit_simplex_example():
    g = Grid([[0, 0], [1, 0], [0, 1]])
    sol = local_dq_solve(g, [1 / 3, 1 / 3], S2)
    assert sol.value == pytest.approx(4 / 9, abs=1e-12)
    assert np.allclose(sol.u_spatial, [1 / 3, 1 / 3], atol=1e-10)
    assert np.allclose(sol.z_star(), [0.5, 0.5], atol=1e-10)
    # strong duality: value equals u . (xi, 1)
    assert sol.u_spatial @ sol.xi + sol.u_affine == pytest.approx(sol.value, abs=1e-12)


def test_infeasible_outside_hull():
    g = Grid([[0, 0], [1, 0], [0, 1]])
    with pytest.raises(InfeasibleError):
        local_dq_solve(g, [1.0, 1.0], S2)
    # nearest grid points (1,0) and (0,1) both lie at squared distance 1
    assert local_dq_value_extended(g, [1.0, 1.0], S2) == 1.0


def test_flat_grid_raises():
    g = Grid([[0, 0], [1, 1], [2, 2]])
    with pytest.raises(FlatGridError):
        local_dq_solve(g, [1.0, 1.0], S2)


def test_grid_far_from_origin_is_not_flat():
    pts = np.random.default_rng(seed).random((12, 3))
    sol = local_dq_solve(Grid(pts + 1e6), pts[:4].mean(axis=0) + 1e6, S2)
    assert len(sol.basis) == 4


def test_adjacent_segment_in_1d():
    g = Grid([[0.0], [0.25], [0.6], [1.0]])
    sol = local_dq_solve(g, [0.3], S2)
    assert sol.basis == (1, 2)
    assert np.allclose(sol.weights, [6 / 7, 1 / 7], atol=1e-12)


def test_vertex_query_canonical_basis():
    g = Grid([[0.0], [0.5], [1.0]])
    sol = local_dq_solve(g, [0.5], S2)
    assert sol.value == pytest.approx(0.0, abs=1e-15)
    assert sol.basis == (0, 1)  # smallest-index completion of the vertex
    assert np.allclose(sol.weights, [0.0, 1.0], atol=1e-12)


def test_cocircular_square_ties_are_canonical():
    g = Grid([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert local_dq_solve(g, [0.3, 0.3], S2).basis == (0, 1, 2)
    assert local_dq_solve(g, [0.7, 0.7], S2).basis == (0, 1, 3)
    sol = local_dq_solve(g, [0.5, 0.5], S2)
    assert sol.basis == (0, 1, 2)
    # repeated solves are bit-identical
    again = local_dq_solve(g, [0.5, 0.5], S2)
    assert again.basis == sol.basis
    assert np.array_equal(again.weights, sol.weights)


@pytest.mark.parametrize("kind,p", [("l2", 2.0), ("l2", 3.0), ("l1", 1.0), ("linf", 2.0)])
def test_matches_enumeration_oracle(kind, p):
    rng = np.random.default_rng(seed)
    spec = NormSpec(kind, p)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d + 2, 9))
        grid, xi = random_instance(rng, d, n)
        try:
            val = local_dq_value(grid, xi, spec)
        except FlatGridError:
            continue
        ref = enumerate_bases_oracle(grid, xi, spec)
        assert abs(val - ref) <= 1e-9 * (1 + abs(ref))


def test_duality_and_stationarity_random():
    rng = np.random.default_rng(seed + 1)
    for _ in range(60):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(d + 2, 12))
        grid, xi = random_instance(rng, d, n)
        try:
            sol = local_dq_solve(grid, xi, S2)
        except FlatGridError:
            continue
        # weights are a distribution reproducing xi
        assert sol.weights.min() >= -1e-9
        assert abs(sol.weights.sum() - 1.0) <= 1e-10
        rec = sol.weights @ grid.points[list(sol.basis)]
        assert np.linalg.norm(rec - xi) <= 1e-10 * (1 + np.linalg.norm(xi))
        # dual feasibility and strong duality
        A = extended_matrix(grid.points)
        c = np.sum((xi[None, :] - grid.points) ** 2, axis=1)
        slack = c - A.T @ sol.u
        scale = 1 + float(np.max(c))
        assert slack.min() >= -1e-9 * scale
        assert sol.u_spatial @ xi + sol.u_affine == pytest.approx(sol.value, abs=1e-9 * scale)
        # the value never exceeds the squared grid diameter
        diffs = grid.points[:, None, :] - grid.points[None, :, :]
        assert sol.value <= float(np.max(np.sum(diffs**2, axis=2))) + 1e-9


def test_optimality_region_membership():
    tri = Grid([[0, 0], [1, 0], [0, 1]])
    assert optimality_region_contains(tri, (0, 1, 2), [1 / 3, 1 / 3], S2)
    square = Grid([[0, 0], [1, 0], [0, 1], [1, 1]])
    # cocircular: both diagonal bases are optimal on the shared edge side
    assert optimality_region_contains(square, (0, 1, 2), [0.3, 0.3], S2)
    assert optimality_region_contains(square, (0, 1, 3), [0.3, 0.3], S2)
    assert not optimality_region_contains(square, (0, 1, 2), [0.8, 0.8], S2)
    with pytest.raises(FlatGridError):
        optimality_region_contains(square, (0, 1, 1), [0.3, 0.3], S2)


def test_region_of_solved_basis_contains_query():
    rng = np.random.default_rng(seed + 2)
    for _ in range(30):
        grid, xi = random_instance(rng, 2, 7)
        try:
            sol = local_dq_solve(grid, xi, S2)
        except FlatGridError:
            continue
        assert optimality_region_contains(grid, sol.basis, xi, S2)


def test_is_nondegenerate():
    tri = Grid([[0, 0], [1, 0], [0, 1]])
    assert is_nondegenerate(tri, [0.2, 0.2], S2)  # n = d+1: vacuous
    square = Grid([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert not is_nondegenerate(square, [0.3, 0.3], S2)  # cocircular corners
    bent = Grid([[0, 0], [1, 0], [0, 1], [1.3, 1.1]])
    assert is_nondegenerate(bent, [0.3, 0.3], S2)
    # a zero weight is degenerate, as BatchSolution.tied counts it
    line = Grid([0.0, 0.3, 0.7, 1.0])
    assert not is_nondegenerate(line, [0.3], S2)
    assert BatchSolver(line, S2).solve(np.array([[0.3]])).tied[0]
    assert is_nondegenerate(line, [0.4], S2)


def _dual_test_grid(kind, d):
    """A random, a product (3 per axis) or a ring grid (points on the
    unit sphere and its centre) in d dimensions."""
    rng = np.random.default_rng(seed + 11 * d)
    if kind == "random":
        return Grid(rng.uniform(size=(4 * d + 4, d)))
    if kind == "product":
        axis = np.linspace(0.0, 1.0, 3)
        return Grid(np.stack(np.meshgrid(*[axis] * d), -1).reshape(-1, d))
    ring = rng.normal(size=(4 * d + 4, d)) if d > 1 else np.array([[-1.0], [1.0]])
    ring /= np.linalg.norm(ring, axis=1, keepdims=True)
    return Grid(np.vstack([ring, np.zeros((1, d))]))


def _edge_midpoints(grid):
    """Midpoints of the Delaunay edges (neighbours, in 1D)."""
    P = grid.points
    if grid.dim == 1:
        x = np.sort(P[:, 0])
        return (0.5 * (x[1:] + x[:-1]))[:, None]
    edges = {tuple(sorted(e)) for s in Delaunay(P).simplices
             for e in combinations(s, 2)}
    return np.array([0.5 * (P[a] + P[b]) for a, b in sorted(edges)])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["random", "product", "ring"])
def test_dual_is_feasible_on_degenerate_rows(kind, d):
    # grid points and edge midpoints carry zero weights, where any
    # completion of the support is primal feasible but only some are
    # optimal: u must keep every reduced cost nonnegative
    grid = _dual_test_grid(kind, d)
    P = grid.points
    queries = [P, _edge_midpoints(grid)]
    if d == 1:  # just inside and past the ends, within the LP's tolerance
        lo, hi, span = P.min(), P.max(), np.ptp(P)
        queries.append(np.array([[lo], [hi], [lo - 1e-12 * span],
                                 [hi + 1e-12 * span]]))
    for xi in np.vstack(queries):
        sol = local_dq_solve(grid, xi, S2)
        c = np.sum((P - xi) ** 2, axis=1)
        reduced = c - (P @ sol.u_spatial + sol.u_affine)
        assert reduced.min() >= -1e-9 * c.max(), (xi, sol.basis)


@pytest.mark.parametrize("s, c", [(1e-6, 0.0), (1e6, 0.0), (1.0, 1e6), (1e-6, 1.0)])
def test_answers_do_not_depend_on_units(s, c):
    # F^2(s Gamma + c, s xi + c) = s^2 F^2(Gamma, xi); the hull test and
    # strict complementarity carry over, whatever the units or the offset
    rng = np.random.default_rng(seed + 7)
    gs = Grid(rng.uniform(size=(12, 2)) * s + c)
    g = Grid((gs.points - c) / s)  # the same points, back in unit size
    hull = ConvexHull(g.points)
    mid = g.points[hull.simplices].mean(axis=1)
    out = hull.equations[:, :2]
    queries = np.concatenate([mid + 1e-4 * out, mid - 1e-4 * out,
                              rng.uniform(-0.1, 1.1, size=(200, 2))])
    for xi in queries:
        xs = xi * s + c
        try:
            ref = enumerate_bases_oracle(g, xi, S2)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                local_dq_solve(gs, xs, S2)
            assert not in_convex_hull(gs, xs)
            continue
        assert in_convex_hull(gs, xs)
        val = local_dq_value(gs, xs, S2)
        # the weights are solved in the caller's coordinates, where an
        # offset c far beyond the spread s costs digits
        slack = 1e-7 * s * s if c else 0.0
        assert abs(val - s * s * ref) <= 1e-9 * s * s * ref + slack
        assert is_nondegenerate(gs, xs, S2) == is_nondegenerate(g, xi, S2)


FLOOR_2D = np.random.default_rng(1).uniform(0.1, 0.9, size=(64, 2))
FLOOR_3D = np.vstack([list(product((0.0, 1.0), repeat=3)),
                      np.random.default_rng(3).random((22, 3))])


@pytest.mark.parametrize("base, s, c", [
    pytest.param(FLOOR_2D, 1.0, 1e6, id="shifted1e6"),
    pytest.param(FLOOR_2D, 1e-6, 1.0, id="scaled1e-6"),
    pytest.param(FLOOR_2D, 1.0, 0.0, id="random64"),
    pytest.param(FLOOR_3D, 1.0, 1e5, id="cube3d-shifted1e5"),
])
def test_basis_holds_the_query_within_tol(base, s, c):
    # grid points and points a quarter and halfway along Delaunay edges:
    # far from the origin such a row rounds to just outside a thin
    # simplex, and a unit-frame weight w_k reaches -1.8e-8, but its
    # distance beyond the facet, -w_k h_k with h_k vertex k's height,
    # stays within TOL
    grid = Grid(base * s + c)
    P = grid.points
    a, b = np.array(sorted({e for t in Delaunay(base).simplices
                            for e in combinations(sorted(t), 2)})).T
    for xi in np.vstack([P] + [t * P[a] + (1 - t) * P[b] for t in (0.25, 0.5)]):
        A, rhs = unit_frame(grid, xi)
        inverse = np.linalg.inv(A[:, list(local_dq_solve(grid, xi, S2).basis)])
        height = 1.0 / np.linalg.norm(inverse[:, :-1], axis=1)
        assert np.max(-(inverse @ rhs) * height) <= TOL


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
def test_optimality_region_at_any_scale(s):
    # (0, 1, 2) holds xi, but point 3 lies inside its circumcircle
    g = Grid(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.9, 0.9]]) * s)
    xi = np.array([0.3, 0.3]) * s
    assert not optimality_region_contains(g, (0, 1, 2), xi, S2)
    assert optimality_region_contains(g, local_dq_solve(g, xi, S2).basis, xi, S2)


def test_enumeration_budget_guard():
    # C(232, 3) = 2 054 360 subsets exceed the cap; the guard raises
    # before the scan starts
    grid = Grid(np.random.default_rng(seed + 3).normal(size=(232, 2)))
    with pytest.raises(BasisBudgetError):
        enumerate_bases_oracle(grid, np.zeros(2), S2)


def test_oracle_rejects_outside_queries():
    g = Grid([[0, 0], [1, 0], [0, 1]])
    with pytest.raises(InfeasibleError):
        enumerate_bases_oracle(g, np.array([2.0, 2.0]), S2)


def test_general_p_value_on_segment():
    # 1D, p = 3: the two adjacent weights interpolate, value is exact
    g = Grid([[0.0], [1.0]])
    xi = 0.25
    spec = NormSpec("l2", 3)
    val = local_dq_value(g, [xi], spec)
    expect = 0.75 * xi**3 + 0.25 * (1 - xi) ** 3
    assert val == pytest.approx(expect, abs=1e-12)
