#!/usr/bin/env python3
"""The dualquant benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  With ``--trace 0`` the workload's
command sequence repeats until ``--seconds`` would be exceeded (at least
once), a fixed reference kernel runs beside every call, and each timing
is the median over the repetitions of their time in units of that
kernel's (see ``end_to_end``); set-up time is in seconds.
With ``--trace 1`` one untraced and one traced repetition run, and the
per-layer metrics come from the spans and from short timings on the
workload's inputs.  Both modes check the outputs.

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full report (provenance, fingerprints, stage times, checks), also
written under ``.perfbench/results/``.  The exit code is 0 only when
every command and check passed; 2 when the checkout has no package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

DEFAULT_SEED = 1
# Not used while the benchmark or a change was tuned; re-check claims here.
HELD_OUT_SEED = 4642
SETUP_REPEATS = 5
WORKLOADS = ("train2d", "eval2d", "ladder", "lp3d")  # workloads.WHY order

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("eval_ref", "ref"),
              ("cubature_ref", "ref"), ("mc_samples_per_ref", "1/ref"),
              ("grid_error", "mse"), ("peak_rss_mb", "MB"))

# Single-threaded linear algebra and MC: every workload is one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="'small' is the self-test's reduced size")
    ap.add_argument("--setup-only", metavar="DIR",
                    help=argparse.SUPPRESS)  # one timed set-up, in a child
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def setup_only(args) -> int:
    """Child process body: import the package, write the inputs."""
    t0 = perf_counter()
    import dualquant.cli  # noqa: F401  (what the timed set-up imports)

    import_ms = (perf_counter() - t0) * 1e3
    import workloads

    workloads.make_inputs(args.workload, args.seed, Path(args.setup_only),
                          args.size)
    print(json.dumps({"import_ms": import_ms}))
    return 0


def timed_setups(args, workroot: Path) -> tuple[list, list]:
    """Interpreter start to inputs written, in fresh child processes."""
    seconds, import_ms = [], []
    for i in range(SETUP_REPEATS):
        target = workroot / f"setup{i}"
        target.mkdir()
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--size", args.size,
             "--setup-only", str(target)],
            capture_output=True, text=True, timeout=120)
        seconds.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr[-2000:]}")
        import_ms.append(json.loads(proc.stdout.splitlines()[-1])["import_ms"])
    return seconds, import_ms


def provenance(args, threads: int) -> dict:
    import numpy
    import scipy

    def sysconf(name):
        try:
            return os.sysconf(name)
        except (ValueError, OSError):
            return None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    pages, page_size = sysconf("SC_PHYS_PAGES"), sysconf("SC_PAGE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2_bytes": sysconf("SC_LEVEL2_CACHE_SIZE"),
        "l3_bytes": sysconf("SC_LEVEL3_CACHE_SIZE"),
        "ram_bytes": pages * page_size if pages and page_size else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "threads": threads,
        "size": args.size,
    }


def reference_s() -> float:
    """Seconds the fixed reference kernel takes on this host, now.

    Interpreter work and small numpy calls, the mix the package's
    hot loops are made of; about 11 ms on an idle Xeon core.  It does
    not touch the package, so a change to the program never moves it.
    Keep it fixed: every ``*_ref`` figure is measured in its units.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    v = np.sin(np.arange(4096.0))
    t0 = perf_counter()
    acc, table = 0.0, {}
    for i in range(20_000):
        acc += i * 0.5
        table[i & 255] = acc
    for _ in range(100):
        a @ a
        np.argsort(v)
        np.sqrt(v * v).sum()
    return perf_counter() - t0


def measure(inp, runner, seconds: float) -> list:
    """Repeat until another repetition would overrun ``seconds``."""
    import workloads

    reps = []
    start = perf_counter()
    while True:
        reps.append(workloads.run_rep(inp, runner))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:
            return reps


def end_to_end(reps: list, setups: list, peak_rss_mb: float) -> dict:
    """Timings of the program in reference units, set-up in seconds.

    The host's speed drifts by up to 2x over minutes and moves the
    program and the reference kernel beside it together, so their ratio
    holds still where seconds do not.  Each call is divided by the
    kernel runs on either side of it (``workloads.Runner``); the figure
    is the median over the run's repetitions.
    """
    med = statistics.median
    values = {
        "wall_ref": med(r.wall_ref for r in reps),
        "setup_s": med(setups),
        "eval_ref": med(r.stage_refs["eval"] for r in reps),
        "cubature_ref": med(r.stage_refs["cubature"] for r in reps),
        "mc_samples_per_ref": med(r.mc_samples / r.estimator_ref
                                  if r.estimator_ref > 0 else 0.0
                                  for r in reps),
        "grid_error": reps[0].grid_error,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": _finite(values[name]), "unit": unit}
            for name, unit in END_TO_END}


def seconds_summary(reps: list, reference_times: list) -> dict:
    """Medians in plain seconds, for the report only: on this host they
    drift too much to bound."""
    med = statistics.median
    out = {"wall_s": med(r.wall for r in reps),
           "eval_s": med(r.stages["eval"] for r in reps),
           "cubature_s": med(r.stages["cubature"] for r in reps)}
    if reference_times:
        out["reference_s"] = med(reference_times)
    return out


def _finite(x):
    x = float(x)
    return x if math.isfinite(x) else None


def run(args) -> int:
    import layers
    import tracing
    import workloads
    from checks import Checks

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # a fixed path: trainnd echoes its --out path, which is fingerprinted
    workroot = OUT / "work" / run_id
    shutil.rmtree(workroot, ignore_errors=True)
    workroot.mkdir(parents=True)
    try:
        setups, import_ms = timed_setups(args, workroot)
        import dualquant.cli  # noqa: F401

        inputs_dir = workroot / "inputs"
        inputs_dir.mkdir()
        inp = workloads.make_inputs(args.workload, args.seed, inputs_dir,
                                    args.size)
        threads = inp.size.get("threads", 1)
        chk = Checks()
        predictions = {}
        if args.trace == 0:
            runner = workloads.Runner(chk, reference=reference_s)
            reps = measure(inp, runner, args.seconds)
            reference_times = runner.reference_times
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            info = workloads.check_outputs(inp, reps, chk)
            metrics = end_to_end(reps, setups, peak)
        else:
            untraced = workloads.run_rep(inp, workloads.Runner(chk))
            tracer = tracing.Tracer(run_id)
            with tracing.instrument(tracer):
                traced = workloads.run_rep(inp,
                                           workloads.Runner(chk, tracer))
            reps = [untraced, traced]
            reference_times = []
            info = workloads.check_outputs(inp, reps, chk)
            metrics, predictions = layers.per_layer(
                inp, untraced, traced, tracer, info, import_ms, chk)
        report = {
            "run_id": run_id,
            "workload": args.workload,
            "why": workloads.WHY[args.workload],
            "provenance": provenance(args, threads),
            "seconds": args.seconds,
            "repetitions": len(reps),
            "stage_seconds": [r.stages for r in reps],
            "stage_refs": [r.stage_refs for r in reps],
            "median_seconds": seconds_summary(reps, reference_times),
            "setup_seconds": setups,
            "fingerprints": reps[0].fingerprints,
            "checks": chk.results,
            "predictions": predictions,
            "metrics": metrics,
        }
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{run_id}.json").write_text(json.dumps(report, indent=1))
        if args.trace:
            (results / f"{run_id}.spans.json").write_text(
                json.dumps(tracer.dump()))
        for failure in chk.failures():
            print(f"check failed: {failure}", file=sys.stderr)
        print(json.dumps(report))
        print(json.dumps({"correct": chk.failed == 0,
                          "attempted": chk.attempted,
                          "failed": chk.failed,
                          "metrics": metrics}))
        return 0 if chk.failed == 0 else 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "dualquant" / "__init__.py").is_file():
        print(f"error: no dualquant package under {SRC}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        return setup_only(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
