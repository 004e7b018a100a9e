#!/usr/bin/env python3
"""Self-test of the benchmark harness at reduced size.

    python3 perfbench/selftest.py

1. Every metric named in BENCHMARK.json appears, with its unit, in a
   small run of every workload in both modes, and those runs pass.
2. Inputs are identical for the same seed and differ across seeds.
3. A check fed a wrong value registers as a failure.
4. In a directory holding only BENCHMARK.json and the benchmark's own
   files, the command exits non-zero without printing a result.

Exits 0 when all of these hold.  Scratch files go under .perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (sets single-threaded BLAS before numpy loads)
import workloads as wl  # noqa: E402
from checks import Checks  # noqa: E402

problems: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def small_run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def metrics_named(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            proc = small_run(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit code 0")
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{tag}: result line is JSON")
                continue
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{tag}: all checks pass")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{tag}: every {key} metric with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{tag}: every value is a number")


def inputs_follow_seed(scratch: Path) -> None:
    def digest(workload, seed, name):
        d = scratch / f"{workload}-{seed}-{name}"
        d.mkdir(parents=True)
        inp = wl.make_inputs(workload, seed, d, "small")
        files = {k: Path(p).read_bytes() for k, p in inp.files.items()}
        return inp.streams, files

    for workload in run.WORKLOADS:
        a = digest(workload, 5, "a")
        b = digest(workload, 5, "b")
        c = digest(workload, 6, "c")
        expect(a == b, f"{workload}: same seed, same inputs")
        expect(a[0] != c[0] and all(a[1][k] != c[1][k] for k in a[1]
                                    if workload != "ladder"),
               f"{workload}: other seed, other inputs")


def wrong_value_fails(scratch: Path) -> None:
    chk = Checks()
    chk.close("slope", -0.7, -0.5, 0.05)
    expect(chk.failed == 1 and chk.attempted == 1,
           "a value outside its tolerance counts as a failure")
    chk = Checks()
    chk.close("nan", float("nan"), 0.0, 1.0)
    expect(chk.failed == 1, "NaN never passes a closeness check")

    import dualquant.cli  # noqa: F401

    d = scratch / "tamper"
    d.mkdir()
    inp = wl.make_inputs("ladder", 3, d, "small")
    chk = Checks()
    rep = wl.run_rep(inp, wl.Runner(chk))
    clean = wl.check_outputs(inp, [rep], chk)
    expect(chk.failed == 0 and clean, "untampered ladder outputs pass")
    rep.payloads["rate_product"]["slope"] = -0.7
    rep.payloads["cubature"]["weights"][0] += 0.01
    chk = Checks()
    wl.check_outputs(inp, [rep], chk)
    names = {r["name"] for r in chk.failures()}
    expect({"ladder.product_slope", "cubature.weights_sum_to_one"} <= names,
           "tampered slope and weights register as failures")


def bare_directory_fails(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = small_run("ladder", 0, cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the package: non-zero exit, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
           == list(wl.WHY), "BENCHMARK.json names the harness's workloads")
    scratch = ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        inputs_follow_seed(scratch)
        wrong_value_fails(scratch)
        bare_directory_fails(scratch)
        metrics_named(spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
