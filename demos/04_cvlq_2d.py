"""
Planar grid training: stochastic updates plus refinement
========================================================

Each sample pulls the vertices of its optimal simplex toward the
simplex's circumcenter, weighted by their barycentric share; samples
falling outside the hull drag the nearest point outward instead,
growing the covered region.  Samples are solved in blocks of 64 on the
grid as it stood at the block's start, and each block's pulls are
applied at once.  A quasi-Newton refinement stage then polishes the grid
against a fixed Monte Carlo objective.

The run pins the four unit-square corners so the hull always covers
the support of U([0,1]^2).
"""

import numpy as np

from dualquant import EUCLIDEAN_QUADRATIC, RngStream
from dualquant.distributions import make_uniform_box
from dualquant.metrics import mc_dq_error
from dualquant.optimnd import TrainConfig, train
from dualquant.svgplot import write_figure

U2 = make_uniform_box([0.0, 0.0], [1.0, 1.0])
corners = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))

cfg = TrainConfig(steps=100_000, anchors=corners, seed=7,
                  trace_every=20_000, trace_samples=20_000,
                  refine_iters=5, refine_samples=50_000)
rep = train(U2, 16, cfg)

print("error trace (extended MC estimate on a fixed evaluation stream):")
for step, est in rep.error_trace:
    print(f"  step {step:>7d}: {est.value:.6f} (std {est.std_error:.1e})")
print(f"outside-hull fraction during training: {rep.outside_fraction:.4f}")

# reference levels with common random numbers for a fair comparison
eval_rng = RngStream(1234)
trained = mc_dq_error(rep.grid, U2, EUCLIDEAN_QUADRATIC, 200_000, eval_rng,
                      extended=True)
init = train(U2, 16, TrainConfig(steps=0, anchors=corners, seed=7)).grid
initial = mc_dq_error(init, U2, EUCLIDEAN_QUADRATIC, 200_000, eval_rng,
                      extended=True)
print(f"\ninitial random grid error: {initial.value:.6f}")
print(f"trained grid error:        {trained.value:.6f}")
print("corner-only grid error:    0.333333 (exact)")

# training is a pure function of (seed, config)
again = train(U2, 16, cfg)
print(f"bit-reproducible: {np.array_equal(rep.grid.points, again.grid.points)}")

out = write_figure(rep.grid, "trained_grid.svg",
                   title="dual quantization grid, U([0,1]^2), n=16")
print(f"wrote {out} (+ .csv with the coordinates)")
