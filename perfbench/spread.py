#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median and
quartile spread (IQR / median), the steadiness test BENCHMARK.json's
bounds are checked against. With `--sets 2` the seeds are run twice and
each metric's second median, on the next seeds, is compared with the
first: a shift of more than the metric's bound means two sets of runs of
the same code disagree.

    python3 perfbench/spread.py --workload query --runs 10 [--sets 2] [--trace 0] [--first-seed 1]

Run from the repository root after building the benchmark
(`cargo build --release --manifest-path perfbench/Cargo.toml`).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", default=None)
    parser.add_argument("--binary", default=None,
                        help="benchmark executable (default: the cargo release build)")
    args = parser.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    binary = args.binary or os.path.join(target, "release", "nhpp-perfbench")

    medians = []
    for number in range(1, args.sets + 1):
        values = run_set(args, binary, seconds, args.first_seed + (number - 1) * args.runs)
        medians.append(report(args, number, values, bounds))
    for number in range(2, args.sets + 1):
        print(f"\nset {number} against set 1 (median shift / median):")
        for name, first in medians[0].items():
            shift = (medians[number - 1][name] - first) / first if first else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if abs(shift) <= bound else "OVER BOUND")
            print(f"  {name:<40} {first:12.4f} -> {medians[number - 1][name]:12.4f}  "
                  f"shift {shift:+7.4f}  {flag}")


def run_set(args, binary, seconds, first_seed):
    values = {}
    for seed in range(first_seed, first_seed + args.runs):
        started = time.monotonic()
        out = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(seed),
             "--seconds", seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        wall = time.monotonic() - started
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(out.stdout)
            sys.exit(f"seed {seed}: incorrect")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({wall:.1f} s): " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
    return values


def report(args, number, values, bounds):
    print(f"\n{args.workload} trace={args.trace}, set {number}, {args.runs} runs:")
    worst = 0.0
    medians = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        medians[name] = med
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            worst = max(worst, spread / bound)
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER BOUND")
        print(f"  {name:<40} median {med:12.4f}  spread {spread:7.4f}  "
              f"bound {bound if bound is not None else '-':<5} {flag}")
    if args.trace == "0":
        print(f"  worst spread / bound: {worst:.3f}")
    return medians


if __name__ == "__main__":
    main()
