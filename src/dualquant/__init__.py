"""Dual (Delaunay) quantization: local error functional, splitting
operators, grid training, and second-order cubature."""

from .cubature import (
    SecondOrderReport,
    WeightTable,
    convex_dominance_check,
    expect,
    second_order_report,
    weights,
    weights_and_report,
    weights_exact_1d,
)
from .delaunay import Triangulation, dq_solve_delaunay, locate, triangulate
from .distributions import (
    DistributionSpec,
    make_bm_sup,
    make_exponential,
    make_normal,
    make_uniform_box,
    parse_distribution,
)
from .errors import (
    BasisBudgetError,
    DegenerateGeometryError,
    DualQuantError,
    FlatGridError,
    GridFormatError,
    InfeasibleError,
    MaxIterationsError,
    NonDifferentiableError,
    SampleOutsideHullError,
)
from .geometry import EUCLIDEAN_QUADRATIC, Grid, NormSpec, load_grid, save_grid
from .lp import (
    LocalSolution,
    local_dq_solve,
    local_dq_value,
    local_dq_value_extended,
)
from .metrics import (
    ErrorEstimate,
    dq_values_batch,
    exact_1d_dq_error,
    exact_1d_voronoi_error,
    mc_dq_error,
    mc_voronoi_error,
    product_bound,
    product_grid,
    rate_fit,
    scalar_bound,
    theoretical_1d_uniform,
    voronoi_1d_uniform_optimum,
)
from .optim1d import NewtonReport, gradient_1d, hessian_1d, newton_solve
from .optimnd import TrainConfig, TrainReport, cvlq_step, mc_gradient, refine, train
from .rng import RngStream
from .splitting import SplitOutcome, interpolate, nn_project, split, split_extended
from .svgplot import render_grid_svg, write_figure

__version__ = "0.1.0"
