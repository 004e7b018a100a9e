"""Per-layer metrics of the traced run.

Two sources feed them.  Spans recorded around the public functions of
each layer during one traced repetition give inclusive and self times
and call counts.  Short timings on the workload's own inputs give the
per-call figures the spans cannot isolate (one LP solve, one shard of
location, one Grid construction).  A layer that a workload never calls
reads 0 there; that zero is the prediction "no change" for it.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter

import numpy as np

import tracing
import workloads as wl

PER_LAYER = (
    ("lp.solve_us_d2", "us"), ("lp.solve_us_d3", "us"),
    ("lp.solve_us_d4", "us"), ("lp.infeasible_frac", "frac"),
    ("lp.oracle_max_rel_err", "rel"), ("lp.calls", "count"),
    ("geometry.grid_us", "us"), ("geometry.load_grid_ms", "ms"),
    ("splitting.split_us", "us"),
    ("delaunay.triangulate_ms", "ms"), ("delaunay.builds", "count"),
    ("delaunay.builds_per_grid", "count"),
    ("delaunay.rebuild_share", "frac"), ("delaunay.locate_calls", "count"),
    ("delaunay.batch_values_ns", "ns"), ("delaunay.batch_solve_ns", "ns"),
    ("delaunay.hull_mask_ns", "ns"),
    ("delaunay.power_evals_per_sample", "count"),
    ("delaunay.lp_max_rel_err", "rel"),
    ("metrics.mc_dq_error_s", "s"), ("metrics.mc_voronoi_error_s", "s"),
    ("metrics.exterior_frac", "frac"), ("metrics.thread_speedup", "x"),
    ("cubature.weights_s", "s"), ("cubature.second_order_s", "s"),
    ("cubature.affine_max_err", "se"),
    ("optimnd.train_s", "s"), ("optimnd.step_us", "us"),
    ("optimnd.outside_fraction", "frac"), ("optimnd.refine_s", "s"),
    ("optimnd.mc_gradient_s", "s"),
    ("optim1d.newton_ms", "ms"), ("optim1d.iterations", "count"),
    ("distributions.sample_ns", "ns"), ("rng.substream_us", "us"),
    ("cli.import_ms", "ms"),
) + tuple((f"{layer}.self_s", "s") for layer in tracing.LAYERS) + (
    ("trace.overhead_frac", "frac"),
)

SHARD = 1 << 16  # one MC shard of the package (metrics.DEFAULT_CHUNK)
LP_QUERIES = 32
BARRIERS = {"optimnd.train", "optimnd.refine", "optimnd.mc_gradient",
            "metrics.mc_dq_error", "cubature.weights",
            "cubature.second_order_report"}


def _seeded_box_grid(d: int, n: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng([seed, d])
    corners = wl.box_corners(d)
    return np.vstack([corners, gen.random((n - len(corners), d))])


def layer_inputs(inp: wl.Inputs, dq) -> dict:
    """The workload's grid and distribution per dimension.

    2D and 3D come from the workload where it has them; otherwise (and
    always in 4D) a seeded unit-box grid with its corners stands in:
    n = 16, 30, 50 for d = 2, 3, 4.
    """
    box = dq.distributions.make_uniform_box
    seed = inp.streams["check"]
    out = {d: (dq.geometry.Grid(_seeded_box_grid(d, n, seed)),
               box([0.0] * d, [1.0] * d))
           for d, n in ((2, 16), (3, 30), (4, 50))}
    parse = dq.distributions.parse_distribution
    w = inp.workload
    if w == "train2d":
        out[2] = (dq.geometry.load_grid(inp.workdir / "trained.json")[0],
                  parse("uniform2d"))
    elif w == "eval2d":
        out[2] = (dq.geometry.load_grid(inp.files["grid"])[0],
                  parse("normal2d"))
    elif w == "ladder":
        out[2] = (dq.geometry.load_grid(inp.files["grid"])[0],
                  parse("uniform2d"))
    elif w == "lp3d":
        out[3] = (dq.geometry.load_grid(inp.files["grid"])[0], wl.cube())
    return out


def _per_call(fn, items) -> float:
    t0 = perf_counter()
    for it in items:
        fn(it)
    return (perf_counter() - t0) / max(len(items), 1)


def per_layer(inp: wl.Inputs, untraced: wl.Rep, traced: wl.Rep,
              tracer: tracing.Tracer, info: dict, import_ms: list,
              chk) -> tuple[dict, dict]:
    """All PER_LAYER metrics plus the two stated predictions."""
    import dualquant as dq
    from dualquant.errors import InfeasibleError

    spans = tracer.spans
    Q = dq.geometry.EUCLIDEAN_QUADRATIC
    base = dq.RngStream(inp.streams["check"])
    grids = layer_inputs(inp, dq)
    v: dict[str, float] = {}

    def total(name):
        return tracing.outermost_total(spans, name)

    # lp: per-call solve time on the workload's queries
    infeasible = asked = 0
    for d in (2, 3, 4):
        grid, dist = grids[d]
        X = np.asarray(dist.sampler(base.substream(d), LP_QUERIES))
        t0 = perf_counter()
        for x in X:
            try:
                dq.lp.local_dq_solve(grid, x, Q)
            except InfeasibleError:
                infeasible += 1
        v[f"lp.solve_us_d{d}"] = (perf_counter() - t0) / len(X) * 1e6
        asked += len(X)
    v["lp.infeasible_frac"] = infeasible / asked
    v["lp.oracle_max_rel_err"] = info.get("oracle_max_rel_err", 0.0)
    v["lp.calls"] = total("lp.local_dq_solve")[1]

    grid3, dist3 = grids[3]
    v["geometry.grid_us"] = _per_call(
        lambda _: dq.geometry.Grid(grid3.points, grid3.pinned),
        range(200)) * 1e6
    grid_file = (inp.workdir / "trained.json" if inp.workload == "train2d"
                 else inp.files["grid"])
    v["geometry.load_grid_ms"] = statistics.median(
        _per_call(dq.geometry.load_grid, [grid_file]) for _ in range(5)) * 1e3
    X3 = np.asarray(dist3.sampler(base.substream(5), LP_QUERIES))
    v["splitting.split_us"] = _per_call(
        lambda x: dq.splitting.split_extended(grid3, x, Q,
                                              base.substream(6)),
        X3) * 1e6

    # delaunay: spans of the traced repetition, then one shard of location
    builds = [s for s in spans if s.name == "delaunay.triangulate"]
    v["delaunay.builds"] = len(builds)
    per_grid = Counter(s.attrs["grid"] for s in builds)
    v["delaunay.builds_per_grid"] = max(per_grid.values(), default=0)
    v["delaunay.locate_calls"] = total("delaunay.locate")[1]
    by_id = {s.id: s for s in spans}
    loop_builds = sum(
        s.duration for s in builds
        if getattr(tracing.nearest_ancestor(by_id, s, BARRIERS), "name",
                   None) == "optimnd.train")
    train_stage = traced.stages["train"]
    v["delaunay.rebuild_share"] = (loop_builds / train_stage
                                   if loop_builds else 0.0)
    for name in ("batch_values_ns", "batch_solve_ns", "hull_mask_ns",
                 "power_evals_per_sample", "triangulate_ms"):
        v[f"delaunay.{name}"] = 0.0
    v["metrics.exterior_frac"] = 0.0
    if inp.workload != "lp3d":
        grid2, dist2 = grids[2]
        same_n = [s.duration for s in builds if s.attrs["n"] == grid2.n]
        t0 = perf_counter()
        tri = dq.delaunay.triangulate(grid2)
        built = perf_counter() - t0
        v["delaunay.triangulate_ms"] = 1e3 * (statistics.mean(same_n)
                                              if same_n else built)
        X = np.asarray(dist2.sampler(base.substream(7), SHARD))
        for name in ("batch_values", "batch_solve", "hull_mask"):
            fn = getattr(dq.delaunay, name)
            t0 = perf_counter()
            fn(tri, X)
            v[f"delaunay.{name}_ns"] = (perf_counter() - t0) / SHARD * 1e9
        v["delaunay.power_evals_per_sample"] = tri.n_triangles
        v["metrics.exterior_frac"] = float(
            1.0 - dq.delaunay.hull_mask(tri, X).mean())
    v["delaunay.lp_max_rel_err"] = info.get("fast_max_rel_err", 0.0)

    # metrics: estimator time in the repetition, and 2-thread speed-up
    v["metrics.mc_dq_error_s"] = total("metrics.mc_dq_error")[0]
    v["metrics.mc_voronoi_error_s"] = total("metrics.mc_voronoi_error")[0]
    if inp.workload == "lp3d":
        grid_t, dist_t, chunk = grid3, dist3, 64
    else:
        grid_t, dist_t, chunk = grids[2][0], grids[2][1], SHARD
    timed = {}
    for threads in (1, 2):
        t0 = perf_counter()
        est = dq.metrics.mc_dq_error(grid_t, dist_t, Q, 2 * chunk,
                                     base.substream(8), extended=True,
                                     chunk=chunk, threads=threads)
        timed[threads] = (perf_counter() - t0, est.value)
    chk.equal("metrics.thread_count_bit_identical", timed[1][1], timed[2][1])
    v["metrics.thread_speedup"] = timed[1][0] / timed[2][0]

    v["cubature.weights_s"] = total("cubature.weights")[0]
    v["cubature.second_order_s"] = total("cubature.second_order_report")[0]
    v["cubature.affine_max_err"] = info.get("affine_err_se", 0.0)

    # optimnd: the per-step cost is train's own time, without child calls
    own = tracing.self_times(spans)
    v["optimnd.train_s"] = total("optimnd.train")[0]
    v["optimnd.refine_s"] = total("optimnd.refine")[0]
    v["optimnd.mc_gradient_s"] = total("optimnd.mc_gradient")[0]
    steps = inp.size.get("steps", 0) * inp.size.get("trainings", 1)
    train_self = sum(own[s.id] for s in spans if s.name == "optimnd.train")
    v["optimnd.step_us"] = train_self / steps * 1e6 if steps else 0.0
    p = traced.payloads
    if "trainnd" in p:
        v["optimnd.outside_fraction"] = p["trainnd"]["outside_fraction"]
    elif inp.workload == "lp3d":
        v["optimnd.outside_fraction"] = float(np.mean([
            r.outside_fraction for k, r in p.items()
            if k.startswith("train")]))
    else:
        v["optimnd.outside_fraction"] = 0.0

    v["optim1d.newton_ms"] = total("optim1d.newton_solve")[0] * 1e3
    v["optim1d.iterations"] = (p["train1d"]["iterations"]
                               if "train1d" in p else 0)

    main_dist = grids[3][1] if inp.workload == "lp3d" else grids[2][1]
    v["distributions.sample_ns"] = statistics.median(
        _per_call(lambda _: main_dist.sampler(base.substream(9), SHARD),
                  [0]) for _ in range(3)) / SHARD * 1e9
    v["rng.substream_us"] = _per_call(base.substream, range(2000)) * 1e6
    v["cli.import_ms"] = statistics.median(import_ms)

    for layer, secs in tracing.layer_self_seconds(spans).items():
        v[f"{layer}.self_s"] = secs
    v["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0

    predictions = {}
    if inp.workload == "train2d":
        loop = v["optimnd.train_s"] - v["optimnd.refine_s"]
        share_loop = loop_builds / loop if loop > 0 else 0.0
        predictions["rebuild_share"] = {
            "predicted": "rebuilds are about 90% of the training loop",
            "share_of_train_s": v["delaunay.rebuild_share"],
            "share_of_loop": share_loop,
            "verdict": "confirmed" if share_loop >= 0.8 else "refuted"}
    if inp.workload == "eval2d":
        predictions["same_grid_builds"] = {
            "predicted": "eval + cubature build the same grid 3 times",
            "builds": v["delaunay.builds"],
            "builds_per_grid": v["delaunay.builds_per_grid"],
            "verdict": ("confirmed" if v["delaunay.builds_per_grid"] == 3
                        else "refuted")}
    metrics = {name: {"value": float(v[name]), "unit": unit}
               for name, unit in PER_LAYER}
    return metrics, predictions
