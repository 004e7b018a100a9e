"""Command-line surface: training, evaluation, cubature, rates, figures.

Every command takes ``--seed`` and is reproducible for a fixed seed;
``--json`` switches stdout to a machine-readable report, and the full
effective configuration is always logged to stderr.  A ``--config``
file of flat key=value lines supplies defaults that explicit flags
override.  Exit codes: 0 success, 1 numeric failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .cubature import expect, weights_and_report
from .distributions import DistributionSpec, parse_distribution
from .errors import DualQuantError, GridFormatError
from .geometry import EUCLIDEAN_QUADRATIC, Grid, NormSpec, load_grid, save_grid
from .metrics import (
    ErrorEstimate,
    exact_1d_dq_error,
    exact_1d_voronoi_error,
    mc_dq_error,
    mc_voronoi_error,
    product_grid,
    rate_fit,
)
from .optim1d import newton_solve
from .optimnd import TrainConfig, train
from .rng import RngStream
from .svgplot import write_figure

__all__ = ["main"]


def _json_default(obj):
    """``json.dumps`` hook: numpy arrays and scalars, and paths."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _expand_config(argv: list[str]) -> list[str]:
    """Splice `--config FILE` key=value lines in as flags at that spot.

    Flags written after --config on the command line therefore win over
    the file (argparse keeps the last occurrence).
    """
    out = []
    tokens = iter(argv)
    for tok in tokens:
        flag, eq, path = tok.partition("=")
        if flag != "--config":
            out.append(tok)
            continue
        if not eq:
            path = next(tokens, None)
        if not path:  # a bare trailing --config, or --config=
            raise ValueError("--config needs a file argument")
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"config line is not key=value: {line!r}")
            key = "--" + key.strip().replace("_", "-")
            val = val.strip()
            if val.lower() == "true":
                out.append(key)
            elif val.lower() != "false":
                out.extend([key, val])
    return out


def _log_config(cmd: str, args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "json")}
    cfg["command"] = cmd
    print(f"config: {json.dumps(cfg, sort_keys=True)}", file=sys.stderr)


def _emit(payload: dict, human: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True,
                         default=_json_default))
    else:
        for line in human:
            print(line)


def _estimate_dict(est, spec: NormSpec, extended: bool) -> dict:
    """An ErrorEstimate, or an exact value: no sampling error, no samples."""
    if isinstance(est, ErrorEstimate):
        value, std, n = est.value, est.std_error, est.n_samples
    else:
        value, std, n = est, 0.0, 0
    return {"value": value, "std_error": std, "n_samples": n, "p": spec.p,
            "norm": spec.kind, "extended": extended}


def _parse_points(text: str) -> tuple[tuple[float, ...], ...]:
    pts = tuple(tuple(float(v) for v in part.split(","))
                for part in text.split(";") if part.strip())
    if not pts:
        raise ValueError("no points given")
    return pts


def cmd_train1d(args) -> tuple[dict, list[str]]:
    dist = parse_distribution(args.dist)
    rep = newton_solve(dist, args.n, mode=args.mode, tol=args.tol,
                       max_iter=args.max_iter)
    payload = {
        "points": rep.grid.points[:, 0],
        "iterations": rep.iterations,
        "final_gradient_norm": rep.final_gradient_norm,
        "converged": rep.converged,
    }
    human = [f"trained 1D grid: n={args.n} mode={args.mode} "
             f"iterations={rep.iterations} "
             f"grad_norm={rep.final_gradient_norm:.3e}"]
    err = exact_1d_dq_error(rep.grid, dist, extended=args.mode == "extended")
    payload["error"] = err
    human.append(f"exact quadratic error: {err:.12g}")
    human.append("points: " + " ".join(f"{v:.12g}"
                                       for v in rep.grid.points[:, 0]))
    if args.out:
        save_grid(rep.grid, args.out,
                  meta={"command": "train1d", "dist": args.dist,
                        "mode": args.mode, "seed": args.seed})
        payload["out"] = args.out
        human.append(f"wrote {args.out}")
    return payload, human


def cmd_trainnd(args) -> tuple[dict, list[str]]:
    dist = parse_distribution(args.dist)
    if args.pin is None:
        anchors = ()
    elif args.pin == "corners":
        anchors = product_grid(dist.box("--pin corners"), 1).points
    else:
        anchors = _parse_points(args.pin)
    cfg = TrainConfig(steps=args.steps, a=args.a, b=args.b, seed=args.seed,
                      anchors=anchors, trace_every=args.trace_every,
                      trace_samples=args.trace_samples,
                      refine_iters=args.refine_iters,
                      refine_samples=args.refine_samples)
    rep = train(dist, args.n, cfg)
    est = mc_dq_error(rep.grid, dist, EUCLIDEAN_QUADRATIC, args.samples,
                      RngStream(args.seed), extended=True,
                      threads=args.threads)
    payload = {
        "n": args.n,
        "steps": args.steps,
        "outside_fraction": rep.outside_fraction,
        "error": _estimate_dict(est, EUCLIDEAN_QUADRATIC, True),
        "trace": [[s, e.value, e.std_error] for s, e in rep.error_trace],
    }
    human = [f"trained grid: n={args.n} steps={args.steps} "
             f"seed={args.seed} outside_fraction={rep.outside_fraction:.4f}",
             f"extended MC error: {est.value:.8g} "
             f"(std {est.std_error:.2g}, {est.n_samples} samples)"]
    if args.out:
        save_grid(rep.grid, args.out,
                  meta={"command": "trainnd", "dist": args.dist,
                        "steps": args.steps, "seed": args.seed})
        payload["out"] = args.out
        human.append(f"wrote {args.out}")
    else:
        payload["points"] = rep.grid.points
    return payload, human


def cmd_eval(args) -> tuple[dict, list[str]]:
    grid, _ = load_grid(args.grid)
    dist = parse_distribution(args.dist)
    spec = NormSpec(args.norm, args.p)
    vor = None
    if args.mode == "exact":
        if args.p != 2:
            raise ValueError("exact mode covers p=2 only; use --mode mc")
        dual = exact_1d_dq_error(grid, dist, extended=args.extended)
        if args.compare_voronoi:
            vor = exact_1d_voronoi_error(grid, dist)
    else:
        rng = RngStream(args.seed)
        dual = mc_dq_error(grid, dist, spec, args.samples, rng,
                           extended=args.extended, threads=args.threads)
        if args.compare_voronoi:
            vor = mc_voronoi_error(grid, dist, spec, args.samples, rng,
                                   threads=args.threads)
    dual = _estimate_dict(dual, spec, args.extended)
    payload = {"dual": dual}
    human = [f"dual error: {dual['value']:.10g} "
             f"(std {dual['std_error']:.2g})"]
    if vor is not None:
        vor = _estimate_dict(vor, spec, True)
        payload["voronoi"] = vor
        payload["dual_ge_voronoi"] = bool(dual["value"] >= vor["value"])
        human.append(f"voronoi error: {vor['value']:.10g} "
                     f"(std {vor['std_error']:.2g})")
        human.append(f"dual >= voronoi: {payload['dual_ge_voronoi']}")
    return payload, human


def _make_integrand(text: str, lip_flag, grid: Grid, dist: DistributionSpec):
    """F and the Lipschitz constant of F': ``lip_flag`` if given, else
    derived.  F works along the last axis, so it maps one point to a
    value and an (m, d) block to m values."""
    d = grid.dim
    poly = np.polynomial.polynomial

    def sum_range():
        lo, hi = dist.box(f"--f {text} without --lip")
        return float(lo.sum()), float(hi.sum())

    def poly_lip(asc):
        if len(asc) <= 2:
            return 0.0  # affine in the coordinate sum
        s = np.linspace(*sum_range(), 1025)
        return float(d * np.abs(poly.polyval(s, poly.polyder(asc, 2))).max())

    if text == "quadratic":
        F = lambda X: np.vecdot(X, X)
        derive = lambda: 2.0
    elif text == "cos":
        F = lambda X: np.cos(X.sum(axis=-1))
        derive = lambda: float(d)  # Hessian is -cos(s) * ones outer ones
    elif text == "exp":
        F = lambda X: np.exp(X.sum(axis=-1))
        derive = lambda: float(d * np.exp(sum_range()[1]))
    elif text.startswith("custom-poly:"):
        asc = np.asarray([float(v) for v in text.split(":", 1)[1].split(",")])
        F = lambda X: poly.polyval(X.sum(axis=-1), asc)
        derive = lambda: poly_lip(asc)
    else:
        raise ValueError(f"unknown integrand {text!r}; use quadratic, exp, "
                         "cos, or custom-poly:c0,c1,...")
    if lip_flag is not None:
        return F, float(lip_flag)
    return F, derive()


def cmd_cubature(args) -> tuple[dict, list[str]]:
    grid, _ = load_grid(args.grid)
    dist = parse_distribution(args.dist)
    F, lip = _make_integrand(args.f, args.lip, grid, dist)
    table, rep = weights_and_report(grid, dist, EUCLIDEAN_QUADRATIC, F, lip,
                                    args.samples, RngStream(args.seed),
                                    extended=args.extended,
                                    threads=args.threads)
    payload = {
        "weights": table.weights,
        "expect": expect(table, F),
        "f": args.f,
        "f_prime_lipschitz": lip,
        "cubature_error": rep.cubature_error,
        "bound": rep.bound,
        "satisfied": rep.satisfied,
        "error_std": rep.error_std,
        "bound_std": rep.bound_std,
        "n_samples": rep.n_samples,
    }
    human = [
        "weights: " + " ".join(f"{w:.6f}" for w in table.weights),
        f"cubature value: {payload['expect']:.10g}",
        f"error {rep.cubature_error:.6g} vs bound {rep.bound:.6g} "
        f"(Lip {lip:.4g}) -> satisfied={rep.satisfied}",
    ]
    return payload, human


def cmd_rate_table(args) -> tuple[dict, list[str]]:
    dist = parse_distribution(args.dist)
    sizes = [int(v) for v in args.sizes.split(",") if v.strip()]
    rows = []  # (n, size, error); the size drives the rate
    if args.kind == "theoretical":
        lo, hi = dist.box("a theoretical ladder")
        for n in sizes:
            err = exact_1d_dq_error(Grid(np.linspace(lo, hi, n)), dist)
            rows.append((n, n - 1, err))  # (n-1)^-p scaling is exact
    else:
        if dist.dim != 2:
            raise ValueError("product ladders are two-dimensional")
        box = dist.box("a product ladder")
        for m in sizes:
            grid = product_grid(box, m)
            est = mc_dq_error(grid, dist, EUCLIDEAN_QUADRATIC, args.samples,
                              RngStream(args.seed), extended=args.extended,
                              threads=args.threads)
            rows.append((grid.n, m * m, est.value))  # m^d cells
    slope = rate_fit([r[1] for r in rows], [r[2] for r in rows], p=2)
    human = ["n,size,err_root,scaled"]
    table_rows = []
    for n, size, err in rows:
        root = err ** 0.5
        scaled = n ** (1.0 / dist.dim) * root
        table_rows.append({"n": n, "size": size, "err_root": root,
                           "scaled": scaled})
        human.append(f"{n},{size},{root:.12g},{scaled:.12g}")
    csv_text = "\n".join(human) + "\n"
    payload = {"kind": args.kind, "rows": table_rows, "slope": slope}
    human.append(f"fitted slope: {slope:.4f}")
    if args.out:
        Path(args.out).write_text(csv_text)
        payload["out"] = args.out
        human.append(f"wrote {args.out}")
    return payload, human


def cmd_export_svg(args) -> tuple[dict, list[str]]:
    grid, _ = load_grid(args.grid)
    out = write_figure(grid, args.out, show_hull=not args.no_hull,
                       title=args.title)
    payload = {"svg": out, "csv": out.with_suffix(".csv"), "n": grid.n}
    human = [f"wrote {out} and {out.with_suffix('.csv')}"]
    return payload, human


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualquant",
        description="Dual quantization grids: train, evaluate, integrate.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p: argparse.ArgumentParser, threads: str = ""):
        p.add_argument("--seed", type=int, default=0,
                       help="random seed (default 0)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON on stdout")
        p.add_argument("--config", help=argparse.SUPPRESS)
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help=f"worker threads for {threads} (default 1)")

    p = sub.add_parser("train1d", help="1D Newton grid training")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("compact", "extended"),
                   default="compact")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--out", help="grid file to write (.json or .csv)")
    common(p)
    p.set_defaults(func=cmd_train1d)

    p = sub.add_parser("trainnd", help="stochastic multi-D grid training")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=100.0)
    p.add_argument("--pin",
                   help="'corners' or explicit points 'x,y;x,y;...'")
    p.add_argument("--trace-every", type=int, default=0)
    p.add_argument("--trace-samples", type=int, default=4096)
    p.add_argument("--refine-iters", type=int, default=0)
    p.add_argument("--refine-samples", type=int, default=50_000)
    p.add_argument("--samples", type=int, default=100_000,
                   help="MC samples for the final error estimate")
    p.add_argument("--out", help="grid file to write (.json or .csv)")
    common(p, threads="the final error estimate's MC shards; training, "
                      "refine and its gradients run on one thread")
    p.set_defaults(func=cmd_trainnd)

    p = sub.add_parser("eval", help="error of a grid file")
    p.add_argument("--grid", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--mode", choices=("mc", "exact"), default="mc")
    p.add_argument("--norm", choices=("l1", "l2", "linf"), default="l2")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--extended", action="store_true")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--compare-voronoi", action="store_true",
                   help="also report the nearest-neighbour error")
    common(p, threads="MC shards")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cubature", help="weights and second-order report")
    p.add_argument("--grid", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--f", required=True,
                   help="quadratic | exp | cos | custom-poly:c0,c1,... "
                        "(exp/cos/poly act on the coordinate sum)")
    p.add_argument("--lip", type=float,
                   help="Lipschitz constant of F' (default: derived)")
    p.add_argument("--extended", action="store_true")
    p.add_argument("--samples", type=int, default=200_000)
    common(p, threads="MC shards")
    p.set_defaults(func=cmd_cubature)

    p = sub.add_parser("rate-table",
                       help="error ladder over grid sizes + fitted slope")
    p.add_argument("--dist", required=True)
    p.add_argument("--kind", choices=("theoretical", "product"),
                   default="theoretical")
    p.add_argument("--sizes", required=True,
                   help="comma list: n values (theoretical) or m values "
                        "(product)")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--extended", action="store_true")
    p.add_argument("--out", help="CSV file to write")
    common(p, threads="MC shards")
    p.set_defaults(func=cmd_rate_table)

    p = sub.add_parser("export-svg", help="SVG figure of a 2D grid")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--title")
    p.add_argument("--no-hull", action="store_true")
    common(p)
    p.set_defaults(func=cmd_export_svg)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _expand_config(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    _log_config(args.command, args)
    try:
        payload, human = args.func(args)
    except (DualQuantError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        usage = (GridFormatError, FileNotFoundError, ValueError)
        return 2 if isinstance(exc, usage) else 1
    _emit(payload, human, args.json)
    return 0
