#!/usr/bin/env python3
"""A/A check of the benchmark: run the same code in several sets of seeded
runs and print, per workload and end-to-end metric, each set's median and
quartiles, the spread (interquartile distance over the median) and whether
it stays within the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/aa.py                      # 2 sets x 10 seeds, every workload
    python3 perfbench/aa.py --sets 1 --runs 5 --workloads kv-open
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=None, help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=None, help="override run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")

    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = [run_once(command, workload, args.seed_base + i, seconds, args.trace)
                    for i in range(args.runs)]
            bad = [r for r in runs if not r["correct"] or r["failed"]]
            if bad:
                ok = False
                print(f"{workload}: set {s + 1}: {len(bad)} runs failed a check")
            sets.append(runs)
        print(f"\n== {workload}: {args.sets} sets x {args.runs} runs, {seconds} s each")
        print(f"{'metric':34} {'set':>3} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3, sp = spread(values)
                medians.append(q2)
                flag = ""
                if bound is not None and name != "setup_s" and sp > bound:
                    flag, ok = " SPREAD", False
                print(f"{name:34} {s + 1:>3} {q1:>14.6g} {q2:>14.6g} {q3:>14.6g} "
                      f"{sp:>8.3f} {bound if bound is not None else '-':>6}{flag}")
            if bound is not None and len(medians) > 1:
                lower = m["better"] == "lower"
                worse = (medians[1] - medians[0]) if lower else (medians[0] - medians[1])
                if medians[0] and worse / abs(medians[0]) > bound:
                    ok = False
                    print(f"{name:34}     second median worse by {worse / abs(medians[0]):.3f} > {bound}")
    print("\nA/A", "within bounds" if ok else "OUT OF BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
