"""The four benchmark workloads: inputs, one repetition, output checks.

Every workload is a closed loop: one process, one caller, sequential
calls, one thread (eval2d passes ``--threads 1``).  A workload's inputs
come from the benchmark seed alone: grid files written in set-up,
distribution names, and integer stream seeds handed to the program.
``grid_error`` always uses the fixed evaluation stream ``EVAL_SEED`` so
that it compares grid quality, not sampling noise.

Why each workload exists is recorded in ``WHY`` and in README.md.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import Checks

EVAL_SEED = 20101004
STAGES = ("train", "eval", "cubature")

WHY = {
    "train2d": "write-heavy: trainnd moves the grid every step, so the "
               "Delaunay rebuild every 64 steps dominates training",
    "eval2d": "read-heavy: one fixed 256-point normal2d grid, many MC "
              "samples, three same-grid builds, about 1.2% exterior samples",
    "ladder": "cocircular product grids send location and splitting "
              "through the tie paths; only user of train1d and optim1d",
    "lp3d": "3D unit cube, no fast path: every sample is a full LP "
            "solve, on fixed grids and on grids moved every step",
}

SIZES = {
    "full": {
        "train2d": dict(n=64, steps=6_000, refine_iters=5,
                        final_samples=16_384, eval_samples=65_536,
                        cub_samples=16_384),
        "eval2d": dict(n=256, samples=16_384, threads=1),
        "ladder": dict(n1d=1000, theo_sizes=[2 ** k for k in range(1, 11)],
                       prod_sizes=[1, 2, 4, 8], prod_samples=16_384,
                       cub_m=8, cub_samples=8_192, oracle_m=4),
        "lp3d": dict(n=30, grids=8, samples=32, trainings=2, steps=100,
                     err_samples=64, grad_samples=64),
    },
    "small": {
        "train2d": dict(n=16, steps=500, refine_iters=1,
                        final_samples=4096, eval_samples=4096,
                        cub_samples=4096),
        "eval2d": dict(n=64, samples=8192, threads=1),
        "ladder": dict(n1d=40, theo_sizes=[2, 4, 8, 16],
                       prod_sizes=[1, 2, 4, 8], prod_samples=4096,
                       cub_m=4, cub_samples=2048, oracle_m=2),
        "lp3d": dict(n=12, grids=2, samples=16, trainings=2, steps=50,
                     err_samples=32, grad_samples=16),
    },
}

AFFINE = {2: (np.array([1.0, -2.0]), 0.3),
          3: (np.array([1.0, -2.0, 0.5]), 0.3)}
MEANS = {"uniform2d": np.array([0.5, 0.5]), "normal2d": np.zeros(2),
         "cube": np.full(3, 0.5)}


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def points_sha(points) -> str:
    return sha256(np.ascontiguousarray(np.asarray(points, float)).tobytes())


def write_grid(path: Path, points, pinned=()) -> Path:
    """Grid file in the package's JSON layout; floats keep every digit."""
    pts = np.asarray(points, dtype=float)
    doc = {"dim": int(pts.shape[1]), "n": int(pts.shape[0]),
           "points": pts.tolist(), "pinned": sorted(int(i) for i in pinned),
           "meta": {"writer": "perfbench"}}
    path.write_text(json.dumps(doc) + "\n")
    return path


def read_points(path: Path) -> np.ndarray:
    return np.asarray(json.loads(Path(path).read_text())["points"], float)


def box_corners(d: int) -> np.ndarray:
    return np.array(list(itertools.product((0.0, 1.0), repeat=d)))


def normal_grid(gen, n: int, radius: float = 3.0, ring: int = 16):
    """n points: a fixed ring of ``ring`` points on a circle, then normal2d
    draws inside the ring's inscribed circle.

    The ring fixes the hull, so about 1.2% of normal2d samples are
    exterior on every seed.  With a free hull the extended error swung
    by a third between seeds (exterior samples near a few extreme points),
    which no grid_error bound could follow.
    """
    angles = 2.0 * np.pi * np.arange(ring) / ring
    pts = [radius * np.column_stack([np.cos(angles), np.sin(angles)])]
    r_in = radius * np.cos(np.pi / ring)
    need = n - ring
    while need > 0:
        x = gen.standard_normal((2 * need, 2))
        x = x[(x * x).sum(axis=1) < r_in * r_in][:need]
        pts.append(x)
        need -= len(x)
    return np.vstack(pts)


def product_points(m: int) -> np.ndarray:
    axis = np.linspace(0.0, 1.0, m + 1)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass
class Inputs:
    workload: str
    seed: int
    size: dict
    workdir: Path
    streams: dict
    files: dict = field(default_factory=dict)


@dataclass
class Rep:
    """One repetition of a workload's command sequence."""

    stages: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    # the same stage times in units of the reference kernel (see Runner)
    stage_refs: dict = field(
        default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    mc_samples: int = 0
    grid_error: float = math.nan
    payloads: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.stages.values())

    @property
    def wall_ref(self) -> float:
        return sum(self.stage_refs.values())

    @property
    def estimator_ref(self) -> float:
        return self.stage_refs["eval"] + self.stage_refs["cubature"]


def make_inputs(workload: str, seed: int, workdir: Path,
                size: str = "full") -> Inputs:
    """Generate a workload's inputs from the seed and write its grids."""
    idx = list(WHY).index(workload)
    ss = np.random.SeedSequence([seed, idx])
    train_s, eval_s, cub_s, check_s, grid_s = (
        int(v) for v in ss.generate_state(5))
    inp = Inputs(workload, seed, SIZES[size][workload], workdir,
                 {"train": train_s, "eval": eval_s, "cubature": cub_s,
                  "check": check_s})
    gen = np.random.default_rng(grid_s)
    sz = inp.size
    if workload == "eval2d":
        inp.files["grid"] = write_grid(workdir / "grid.json",
                                       normal_grid(gen, sz["n"]))
    elif workload == "ladder":
        inp.files["grid"] = write_grid(workdir / "product.json",
                                       product_points(sz["cub_m"]))
    elif workload == "lp3d":
        for k in range(sz["grids"]):
            pts = np.vstack([box_corners(3), gen.random((sz["n"] - 8, 3))])
            inp.files[lp3d_key(k)] = write_grid(workdir / f"grid3_{k}.json",
                                                pts, pinned=range(8))
    return inp


def lp3d_key(k: int) -> str:
    """lp3d writes several grids; the first is "grid" like elsewhere."""
    return "grid" if k == 0 else f"grid{k}"


class Runner:
    """Issues the calls of one repetition and times them by stage.

    Given a ``reference`` kernel (a callable returning its own time in
    seconds), the runner runs it before the first call and after every
    call, and also books each call's time divided by the mean of the two
    kernel times on either side of it.
    """

    def __init__(self, checks: Checks, tracer=None, reference=None):
        self.checks = checks
        self.tracer = tracer
        self.reference = reference
        self.reference_times = [] if reference is None else [reference()]

    def stage(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(f"bench.{name}")

    def _timed(self, rep: Rep, stage: str, call):
        """Run ``call`` inside the stage's clock; a crash is a failure."""
        with self.stage(stage):
            t0 = perf_counter()
            try:
                result, crashed = call(), False
            except Exception:  # counted as a failed command, run goes on
                traceback.print_exc()
                result, crashed = None, True
            took = perf_counter() - t0
            rep.stages[stage] += took
        if self.reference is not None:
            before, after = self.reference_times[-1], self.reference()
            self.reference_times.append(after)
            rep.stage_refs[stage] += 2.0 * took / (before + after)
        return result, crashed

    def cli(self, rep: Rep, stage: str, key: str, argv: list[str]):
        """Run one CLI command in-process; returns its JSON payload."""
        cli = sys.modules["dualquant.cli"]
        out, err = StringIO(), StringIO()

        def call():
            with redirect_stdout(out), redirect_stderr(err):
                return cli.main(argv)

        rc, _ = self._timed(rep, stage, call)
        self.checks.command(rc == 0)
        if rc != 0:
            sys.stderr.write(f"command failed ({rc}): {' '.join(argv)}\n"
                             f"{err.getvalue()[-2000:]}")
            return None
        text = out.getvalue()
        rep.fingerprints[key] = sha256(text)
        rep.payloads[key] = json.loads(text)
        return rep.payloads[key]

    def api(self, rep: Rep, stage: str, key: str, fn, *args, **kwargs):
        """Call a package function; returns its result or None."""
        result, crashed = self._timed(rep, stage,
                                      lambda: fn(*args, **kwargs))
        self.checks.command(not crashed)
        if not crashed:
            rep.payloads[key] = result
        return result


# --- repetitions -------------------------------------------------------------


def run_rep(inp: Inputs, runner: Runner) -> Rep:
    return {"train2d": _rep_train2d, "eval2d": _rep_eval2d,
            "ladder": _rep_ladder, "lp3d": _rep_lp3d}[inp.workload](
                inp, runner, Rep())


def _rep_train2d(inp: Inputs, run: Runner, rep: Rep) -> Rep:
    sz, st = inp.size, inp.streams
    # relative: trainnd echoes --out, and the stdout is fingerprinted
    trained = Path(os.path.relpath(inp.workdir / "trained.json"))
    run.cli(rep, "train", "trainnd", [
        "trainnd", "--dist", "uniform2d", "--n", str(sz["n"]),
        "--steps", str(sz["steps"]), "--pin", "corners",
        "--refine-iters", str(sz["refine_iters"]),
        "--samples", str(sz["final_samples"]), "--seed", str(st["train"]),
        "--out", str(trained), "--json"])
    if trained.exists():
        rep.fingerprints["trained_points"] = points_sha(read_points(trained))
    ev = run.cli(rep, "eval", "eval", [
        "eval", "--grid", str(trained), "--dist", "uniform2d", "--extended",
        "--compare-voronoi", "--samples", str(sz["eval_samples"]),
        "--seed", str(EVAL_SEED), "--json"])
    run.cli(rep, "cubature", "cubature", [
        "cubature", "--grid", str(trained), "--dist", "uniform2d",
        "--f", "cos", "--extended", "--samples", str(sz["cub_samples"]),
        "--seed", str(st["cubature"]), "--json"])
    rep.mc_samples = 2 * sz["eval_samples"] + 2 * sz["cub_samples"]
    if ev is not None:
        rep.grid_error = ev["dual"]["value"]
    return rep


def _rep_eval2d(inp: Inputs, run: Runner, rep: Rep) -> Rep:
    sz, st = inp.size, inp.streams
    grid = str(inp.files["grid"])
    common = ["--samples", str(sz["samples"]), "--threads",
              str(sz["threads"]), "--json"]
    ev = run.cli(rep, "eval", "eval", [
        "eval", "--grid", grid, "--dist", "normal2d", "--extended",
        "--compare-voronoi", "--seed", str(EVAL_SEED)] + common)
    run.cli(rep, "cubature", "cubature", [
        "cubature", "--grid", grid, "--dist", "normal2d", "--f", "cos",
        "--extended", "--seed", str(st["cubature"])] + common)
    rep.mc_samples = 4 * sz["samples"]
    if ev is not None:
        rep.grid_error = ev["dual"]["value"]
    return rep


def _rep_ladder(inp: Inputs, run: Runner, rep: Rep) -> Rep:
    sz, st = inp.size, inp.streams
    t1 = run.cli(rep, "train", "train1d", [
        "train1d", "--dist", "normal:0,1", "--n", str(sz["n1d"]),
        "--mode", "extended", "--seed", str(st["train"]), "--json"])
    run.cli(rep, "eval", "rate_theoretical", [
        "rate-table", "--dist", "uniform:0,1", "--kind", "theoretical",
        "--sizes", ",".join(map(str, sz["theo_sizes"])), "--json"])
    run.cli(rep, "eval", "rate_product", [
        "rate-table", "--dist", "uniform2d", "--kind", "product",
        "--sizes", ",".join(map(str, sz["prod_sizes"])),
        "--samples", str(sz["prod_samples"]), "--seed", str(st["eval"]),
        "--json"])
    run.cli(rep, "cubature", "cubature", [
        "cubature", "--grid", str(inp.files["grid"]), "--dist", "uniform2d",
        "--f", "quadratic", "--samples", str(sz["cub_samples"]),
        "--seed", str(st["cubature"]), "--json"])
    rep.mc_samples = (len(sz["prod_sizes"]) * sz["prod_samples"]
                      + 2 * sz["cub_samples"])
    if t1 is not None:
        rep.grid_error = t1["error"]
        rep.fingerprints["trained_points"] = points_sha(t1["points"])
    return rep


def cube() -> object:
    dist = sys.modules["dualquant.distributions"]
    return dist.make_uniform_box([0.0] * 3, [1.0] * 3, name="cube")


def _rep_lp3d(inp: Inputs, run: Runner, rep: Rep) -> Rep:
    import dualquant as dq

    sz, st = inp.size, inp.streams
    geometry, metrics = dq.geometry, dq.metrics
    cubature, optimnd = dq.cubature, dq.optimnd
    Q = geometry.EUCLIDEAN_QUADRATIC
    RngStream = dq.RngStream
    U = cube()
    grids = []
    for k in range(sz["grids"]):
        loaded = run.api(rep, "eval", f"load{k}", geometry.load_grid,
                         inp.files[lp3d_key(k)])
        if loaded is not None:
            grids.append(loaded[0])
    errors = []
    for k in range(sz["trainings"]):
        report = run.api(rep, "train", f"train{k}", optimnd.train, U,
                         sz["n"], lp3d_train_config(inp, k, sz["steps"]))
        if report is None:
            continue
        rep.fingerprints[f"trained_points{k}"] = points_sha(
            report.grid.points)
        est = run.api(rep, "eval", f"grid_error{k}", metrics.mc_dq_error,
                      report.grid, U, Q, sz["err_samples"],
                      RngStream(EVAL_SEED), extended=True)
        if est is not None:
            errors.append(est.value)
    if errors:
        rep.grid_error = float(np.mean(errors))
    if grids:
        run.api(rep, "train", "mc_gradient", optimnd.mc_gradient, grids[0],
                U, Q, sz["grad_samples"], RngStream(st["train"]))
    for k, grid in enumerate(grids):
        run.api(rep, "eval", f"mc_dq_error{k}", metrics.mc_dq_error, grid,
                U, Q, sz["samples"], RngStream(st["eval"] + k),
                extended=True)
        run.api(rep, "cubature", f"weights{k}", cubature.weights, grid, U,
                Q, sz["samples"], RngStream(st["cubature"] + k),
                extended=True)
        run.api(rep, "cubature", f"second_order{k}",
                cubature.second_order_report, grid, U, Q,
                lambda x: float(np.cos(np.sum(x))), 3.0, sz["samples"],
                RngStream(st["cubature"] + k), extended=True)
    rep.mc_samples = (3 * sz["grids"] * sz["samples"]
                      + sz["trainings"] * sz["err_samples"])
    for key, result in rep.payloads.items():
        if not key.startswith(("load", "train")):
            rep.fingerprints[key] = sha256(_numbers(result))
    return rep


def lp3d_train_config(inp: Inputs, k: int, steps: int):
    import dualquant as dq

    return dq.optimnd.TrainConfig(steps=steps, seed=inp.streams["train"] + k,
                                  anchors=tuple(map(tuple, box_corners(3))))


def _numbers(result) -> str:
    """Stable text of an API result's numbers, for fingerprints."""
    if isinstance(result, np.ndarray):
        return json.dumps(result.tolist())
    fields = {k: v for k, v in vars(result).items() if k != "grid"}
    return json.dumps({k: np.asarray(v).tolist() for k, v in fields.items()},
                      sort_keys=True)


# --- checks ------------------------------------------------------------------


def check_outputs(inp: Inputs, reps: list[Rep], chk: Checks) -> dict:
    """Check one run's outputs and make the numeric cross-checks.

    Returns the measured agreement figures the traced run reports.
    """
    import dualquant as dq

    info = {}
    if len(reps) > 1:
        chk.equal("repeat.fingerprints_identical",
                  all(r.fingerprints == reps[0].fingerprints for r in reps),
                  True)
    rep = reps[0]
    p = rep.payloads
    w = inp.workload
    chk.record("grid_error.finite_positive",
               math.isfinite(rep.grid_error) and rep.grid_error > 0,
               value=rep.grid_error)
    if "eval" in p:
        chk.equal("eval.dual_ge_voronoi", p["eval"]["dual_ge_voronoi"], True)

    # cubature weights: nonnegative, sum to one, exact on an affine f
    if w == "lp3d":
        mean = MEANS["cube"]
        tables = []
        for k in range(inp.size["grids"]):
            table = p.get(f"weights{k}")
            so = p.get(f"second_order{k}")
            tables.append(None if table is None or so is None else (
                table.grid.points, np.asarray(table.weights),
                table.n_samples, so.satisfied))
    else:
        mean = MEANS["normal2d" if w == "eval2d" else "uniform2d"]
        cub = p.get("cubature")
        points = read_points(inp.workdir / "trained.json" if w == "train2d"
                             else inp.files["grid"])
        tables = [None if cub is None else (
            points, np.asarray(cub["weights"], float), cub["n_samples"],
            cub["satisfied"])]
    worst_z = 0.0
    for table in tables:
        if table is None:
            chk.record("cubature.ran", False)
            continue
        points, weights, n_w, satisfied = table
        chk.record("cubature.weights_nonnegative", weights.min() >= 0.0,
                   value=weights.min())
        chk.close("cubature.weights_sum_to_one", weights.sum(), 1.0, 1e-9)
        a, b = AFFINE[points.shape[1]]
        f = points @ a + b
        est = float(weights @ f)
        se = math.sqrt(max(float(weights @ f ** 2) - est ** 2, 0.0) / n_w)
        z = abs(est - float(mean @ a + b)) / se
        worst_z = max(worst_z, z)
        chk.at_most("cubature.affine_exact_within_5se", z, 5.0)
        chk.equal("cubature.second_order_satisfied", satisfied, True)
    info["affine_err_se"] = worst_z

    if w == "ladder":
        if "rate_theoretical" in p:
            chk.close("ladder.theoretical_slope",
                      p["rate_theoretical"]["slope"], -1.0, 1e-6)
        if "rate_product" in p:
            chk.close("ladder.product_slope", p["rate_product"]["slope"],
                      -0.5, 0.05)
        if "train1d" in p:
            chk.equal("ladder.train1d_converged", p["train1d"]["converged"],
                      True)

    gen = np.random.default_rng(inp.streams["check"])
    if w == "lp3d":
        info["oracle_max_rel_err"] = _lp_vs_oracle(
            chk, read_points(inp.files["grid"])[:16], gen, dq)
    else:
        if w == "ladder":
            grid2 = read_points(inp.files["grid"])
            sub = product_points(inp.size["oracle_m"])
        else:
            grid2 = points
            sub = grid2[:24]
        dist = dq.distributions.parse_distribution(
            "normal2d" if w == "eval2d" else "uniform2d")
        info["fast_max_rel_err"] = _fast_vs_lp(chk, grid2, dist, inp, dq)
        info["oracle_max_rel_err"] = _lp_vs_oracle(chk, sub, gen, dq)
    if w in ("train2d", "lp3d"):
        _trained_beats_initial(chk, inp, rep, dq)
    return info


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-12)


def _fast_vs_lp(chk: Checks, points, dist, inp: Inputs, dq) -> float:
    """Delaunay fast path against the LP on 16 queries of the workload."""
    from dualquant.errors import InfeasibleError

    grid = dq.geometry.Grid(points)
    Q = dq.geometry.EUCLIDEAN_QUADRATIC
    X = np.asarray(dist.sampler(dq.RngStream(inp.streams["check"]), 16))
    tri = dq.delaunay.triangulate(grid)
    fast = dq.delaunay.batch_values(tri, X)
    inside = dq.delaunay.hull_mask(tri, X)
    worst, agree = 0.0, True
    for x, v, ins in zip(X, fast, inside):
        try:
            lp = dq.lp.local_dq_value(grid, x, Q)
        except InfeasibleError:
            agree &= not ins
            continue
        agree &= bool(ins)
        worst = max(worst, _rel(max(v, 0.0), lp))
    chk.equal("delaunay.hull_agrees_with_lp", agree, True)
    chk.at_most("delaunay.fast_path_vs_lp_rel_err", worst, 1e-7)
    return worst


def _lp_vs_oracle(chk: Checks, points, gen, dq) -> float:
    """LP value against basis enumeration on queries inside the hull."""
    grid = dq.geometry.Grid(points)
    Q = dq.geometry.EUCLIDEAN_QUADRATIC
    d = grid.dim
    worst = 0.0
    for _ in range(6):
        pick = gen.choice(grid.n, size=d + 1, replace=False)
        lam = gen.dirichlet(np.ones(d + 1))
        x = lam @ grid.points[pick]
        lp = dq.lp.local_dq_value(grid, x, Q)
        oracle = dq.lp.enumerate_bases_oracle(grid, x, Q)
        worst = max(worst, _rel(lp, oracle))
    chk.at_most("lp.lp_vs_oracle_rel_err", worst, 1e-7)
    return worst


def _trained_beats_initial(chk: Checks, inp: Inputs, rep: Rep, dq) -> None:
    """Error of the zero-step grid (same seed, same pins) at the fixed
    evaluation stream must exceed the trained grid's."""
    Q = dq.geometry.EUCLIDEAN_QUADRATIC
    sz = inp.size
    if inp.workload == "train2d":
        dist = dq.distributions.parse_distribution("uniform2d")
        cfg = dq.optimnd.TrainConfig(
            steps=0, seed=inp.streams["train"],
            anchors=tuple(map(tuple, box_corners(2))))
        pairs = [(cfg, rep.grid_error, sz["eval_samples"])]
    else:
        dist = cube()
        pairs = [(lp3d_train_config(inp, k, 0),
                  getattr(rep.payloads.get(f"grid_error{k}"), "value",
                          math.nan), sz["err_samples"])
                 for k in range(sz["trainings"])]
    for cfg, trained, samples in pairs:
        init = dq.optimnd.train(dist, sz["n"], cfg).grid
        before = dq.metrics.mc_dq_error(init, dist, Q, samples,
                                        dq.RngStream(EVAL_SEED),
                                        extended=True).value
        chk.less("train.trained_beats_initial", trained, before)
