import math

import numpy as np
import pytest

from dualquant.errors import BasisBudgetError, FlatGridError, InfeasibleError
from dualquant.geometry import Grid, NormSpec, extended_matrix
from dualquant.lp import (
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
    ext = local_dq_value_extended(g, [1.0, 1.0], S2)
    assert ext.mode == "exterior"
    assert ext.value == pytest.approx(1.0, abs=1e-12)
    assert ext.nn_index == 1  # tie with (0,1) broken toward the smaller index


def test_flat_grid_raises():
    g = Grid([[0, 0], [1, 1], [2, 2]])
    with pytest.raises(FlatGridError):
        local_dq_solve(g, [1.0, 1.0], S2)


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


def test_enumeration_budget_guard():
    rng = np.random.default_rng(seed + 3)
    grid = Grid(rng.normal(size=(60, 3)))
    with pytest.raises(BasisBudgetError):
        enumerate_bases_oracle(grid, np.zeros(3), S2, budget=1000)


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
