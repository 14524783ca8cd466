#!/usr/bin/env python3
"""Builds the COLT benchmark and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload tune_shifting --seed 1 --seconds 10 --trace 0

The first run configures and builds an optimised (Release) binary in
.bench_build/; later runs rebuild only what changed. The last line of
standard output is the run's JSON result. Build output goes to standard
error.

  python3 perfbench/run.py --workload serve_read --seed 1 --seconds 10 \\
      --trace 0 --repeat 10

runs the workload ten times with seeds 1..10 and prints, for each metric,
its median, quartiles and spread (interquartile range over median).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "colt_perfbench")
WORKLOADS = ("tune_shifting", "serve_read", "htap_mixed")
# run.py exits within this bound even when the benchmark hangs.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; output to stderr."""
    generated = [os.path.join(BUILD_DIR, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "colt_perfbench"],
                   check=True, stdout=sys.stderr)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns (stdout lines, parsed result)."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark exited {proc.returncode}")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected_metrics(trace):
        raise RuntimeError("metrics differ from BENCHMARK.json")
    return lines, result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def repeat(args):
    runs = []
    for i in range(args.repeat):
        _, result = run_once(args.workload, args.seed + i, args.seconds,
                             args.trace)
        runs.append(result)
        print(f"seed {args.seed + i}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)
    summary = {}
    print(f"{'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "unit": first["unit"]}
        print(f"{name:32s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f}")
    failed_share = sorted({r["failed"] / r["attempted"] for r in runs})
    print(json.dumps({"workload": args.workload, "runs": len(runs),
                      "all_correct": all(r["correct"] for r in runs),
                      "failed_shares": failed_share, "metrics": summary}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times (seeds seed..seed+N-1) and "
                             "summarize each metric")
    args = parser.parse_args()
    try:
        build()
        if args.repeat > 0:
            repeat(args)
        else:
            lines, _ = run_once(args.workload, args.seed, args.seconds,
                                args.trace)
            print("\n".join(lines))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
