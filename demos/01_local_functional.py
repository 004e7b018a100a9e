"""
Local dual quantization functional
==================================

The local error F_p(xi) is the value of a small linear program: spread
xi over grid points as a convex combination sum(lambda_i x_i) = xi and
pay sum(lambda_i ||xi - x_i||^p).  For the Euclidean norm with p = 2
the optimal combination lives on the Delaunay triangle containing xi,
and the dual solution encodes the triangle's circumcenter.

This script solves the LP directly, cross-checks the triangulation
fast path, and shows the circumcenter identity on a small planar grid.
"""

import numpy as np

from dualquant import EUCLIDEAN_QUADRATIC, Grid, local_dq_solve
from dualquant.delaunay import dq_solve_delaunay, triangulate
from dualquant.geometry import circumcenter

rng = np.random.default_rng(42)
grid = Grid(np.vstack([[[0, 0], [1, 0], [0, 1], [1, 1]],
                       rng.uniform(size=(8, 2))]))
tri = triangulate(grid)
print(f"grid: {grid.n} points, {len(tri.triangles)} Delaunay triangles")

xi = np.array([0.31, 0.47])
sol = local_dq_solve(grid, xi, EUCLIDEAN_QUADRATIC)
print(f"\nquery {xi}")
print(f"  optimal basis   {sol.basis}")
print(f"  weights         {np.round(sol.weights, 6)}")
print(f"  local error F^2 {sol.value:.8f}")

# the constraint reconstructs xi exactly
recon = np.asarray(sol.weights) @ grid.points[list(sol.basis)]
print(f"  sum(lam x) - xi {np.abs(recon - xi).max():.2e}")

# dual variable u1 points from xi to the circumcenter, doubled
z, _ = circumcenter(grid.points[list(sol.basis)])
print(f"  circumcenter    {np.round(z, 6)}")
print(f"  xi + u1/2       {np.round(sol.z_star(), 6)}  (same point)")

# the triangulation fast path gives the same value without an LP
fast = dq_solve_delaunay(grid, xi, EUCLIDEAN_QUADRATIC)
print(f"\nfast path value {fast.value:.8f} "
      f"(|difference| {abs(fast.value - sol.value):.2e})")

# values agree across a sweep of random interior queries
worst = 0.0
for _ in range(200):
    w = rng.dirichlet(np.ones(grid.n))
    q = w @ grid.points
    a = dq_solve_delaunay(grid, q, EUCLIDEAN_QUADRATIC).value
    b = local_dq_solve(grid, q, EUCLIDEAN_QUADRATIC).value
    worst = max(worst, abs(a - b))
print(f"worst |fast - LP| over 200 queries: {worst:.2e}")
