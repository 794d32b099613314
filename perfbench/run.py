"""The chbrinkman benchmark: one command, each workload in a fresh process.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S
                             --trace 0|1

Run from the root of a checkout.  The workloads and the metrics with their
units are read from ``BENCHMARK.json`` beside ``perfbench/``.  For each
workload it times set-up in ``SETUP_SAMPLES`` separate processes, spread
before and after the one that runs the workload so that a slow minute of the
machine weighs on few of them.  It drives a single-threaded closed loop for
``--seconds`` (one simulation; the next call is issued when the previous one
returns), checks the outputs, and prints every metric by name with its unit.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` operations, and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload and prefixes each metric with its
workload name.

BLAS and OpenMP pools are pinned to one thread in every child process.
Outputs, recorded counts and span files go to ``.bench_build/`` in the
checkout.  Exits 1 without a result when the checkout holds no chbrinkman
sources or a workload process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 15
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 100  # on top of --seconds
THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def contract():
    """(workload names, end-to-end units, per-layer units) of
    ``BENCHMARK.json``, each metric mapped to its unit in file order."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def units(key):
        return {m["name"]: m["unit"] for m in spec[key]}

    return ([w["name"] for w in spec["workloads"]], units("end_to_end"),
            units("per_layer"))


class BenchError(RuntimeError):
    pass


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def start_workload(args, workload, setup_only):
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **THREADS, "PYTHONHASHSEED": "0"}
    return now(), subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                   env=env)


def finish(started, proc, timeout):
    """(set-up seconds, last stdout line) of a workload process."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines
             if line.startswith("ready ")]
    if not ready:
        raise BenchError("workload process never finished set-up")
    return ready[0] - started, lines[-1]


def setup_samples(args, workload, n):
    return [finish(*start_workload(args, workload, True), SETUP_TIMEOUT_S)[0]
            for _ in range(n)]


def run_workload(args, workload, end_to_end, per_layer):
    """The result object of one workload, with its metrics."""
    before = (SETUP_SAMPLES - 1) // 2
    setups = setup_samples(args, workload, before)
    setup, line = finish(*start_workload(args, workload, False),
                         args.seconds + RUN_TIMEOUT_S)
    setups += [setup] + setup_samples(args, workload,
                                      SETUP_SAMPLES - 1 - before)
    raw = json.loads(line)

    ops = raw["op_times"]
    episodes = len(raw["run_s"])
    if args.trace:
        values = dict(raw["per_layer"])
        values["cli.vtk_bytes"] = raw["vtk_bytes"] / max(episodes, 1)
        values["trace.run_s"] = statistics.median(raw["run_s"])
        units = per_layer
    else:
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(raw["run_s"]),
            "op_s_p50": statistics.median(ops),
            "op_s_p87.5": statistics.quantiles(ops, n=8, method="inclusive")[
                -1] if len(ops) > 1 else ops[0],
            "cells_per_s": statistics.median(
                c / s for c, s in zip(raw["cells"], raw["run_s"])),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = end_to_end
    beyond = sum(t > values.get("op_s_p87.5", float("inf")) for t in ops)
    print(f"{workload}: variant {raw['variant']}, {episodes} episode(s), "
          f"{len(ops)} timed operations"
          + ("" if args.trace else f", {beyond} beyond p87.5")
          + f", set-up samples {sorted(round(s, 3) for s in setups)}")
    print(f"{workload}: ops_failed_share = {raw['failed']}/"
          f"{raw['attempted']}")
    for problem in raw["failures"]:
        print(f"{workload}: FAILED {problem}")
    for name, unit in units.items():
        print(f"{workload}: {name} = {values[name]:.6g} {unit}")
    return {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"], "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="name or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads, end_to_end, per_layer = contract()
    if args.workload not in (*workloads, "all"):
        parser.error(f"unknown workload {args.workload!r}")
    if not (Path.cwd() / "src" / "chbrinkman" / "__init__.py").is_file():
        print("error: run from the root of a chbrinkman checkout "
              "(src/chbrinkman not found)", file=sys.stderr)
        return 1
    names = workloads if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(args, name, end_to_end, per_layer)
                   for name in names}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
