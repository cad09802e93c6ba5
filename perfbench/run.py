#!/usr/bin/env python3
"""Sperke benchmark: build perfbench_world from this checkout and run a workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload vod_fleet|edge_traced|live_crowd|all
                             [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds perfbench/CMakeLists.txt (the library
sources under src/ plus the program in perfbench/src/) into
.bench_build/perfbench; later runs only rebuild what changed. Each workload
runs in its own process. Its output is passed through: one "name value unit"
line per metric, "#" lines with the output digest and notes, and, last, one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a traced run of the same inputs (its spans land in
.bench_build/perfbench-out/). The result is checked against BENCHMARK.json:
a run that does not report exactly the listed metrics, with their units,
exits non-zero. --workload all runs the three workloads one after another
and ends with one JSON object whose metric names are prefixed by workload.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
WORKLOADS = ("vod_fleet", "edge_traced", "live_crowd")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        fail(f"{ROOT} is not a checkout with src/ and BENCHMARK.json")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed ({done.returncode}): {' '.join(step)}")
    return BUILD / "perfbench_world"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(exe, workload, args):
    OUT.mkdir(parents=True, exist_ok=True)
    command = [str(exe), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(OUT)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"{workload} exited with {done.returncode} and no result")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = expected_metrics(args.trace)
    if reported != wanted:
        missing = sorted(set(wanted) - set(reported))
        extra = sorted(set(reported) - set(wanted))
        units = sorted(n for n in set(wanted) & set(reported) if wanted[n] != reported[n])
        print(json.dumps(result))
        fail(f"{workload} metrics differ from BENCHMARK.json: missing {missing}, "
             f"unlisted {extra}, wrong unit {units}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    exe = build()
    if args.workload != "all":
        print(json.dumps(run_workload(exe, args.workload, args)))
        return
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(exe, workload, args)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(total))


if __name__ == "__main__":
    main()
