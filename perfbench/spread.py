#!/usr/bin/env python3
"""Spread report: the evidence for the bounds in BENCHMARK.json.

Runs the benchmark several times per workload, each run with another seed,
for run_seconds of BENCHMARK.json, and prints for every end-to-end metric
the median, the quartiles, the spread (distance between the quartiles as a
share of the median, the figure the bounds are checked against) and the
max/min ratio. With two or more sets, each set uses seeds of its own, and
the report ends with each metric's change from the first set's median to
every later set's, in the metric's worse direction. Run from the
repository root:

    python3 perfbench/spread.py --runs 10 --seed0 1000 --sets 2
    python3 perfbench/spread.py --workloads stream_dense --runs 5 --sets 1

A spread at or above a third of the metric's bound, and a change of the
median beyond the bound, are flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run_set(bench, names, runs, seed0, bounds):
    """Runs one set and prints its table; returns the medians per workload."""
    medians = {}
    ok = True
    for name in names:
        results = []
        for i in range(runs):
            seed = seed0 + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.time() - t0
            lines = p.stdout.strip().splitlines()
            env = next((l for l in lines if l.startswith("env ")), "env ?")
            if p.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                ok = False
            print(f"{name} seed {seed}: {wall:.1f}s correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} | {env[4:]}", flush=True)
            results.append(res)
        if len(results) < 2:
            ok = False
            continue
        print(f"\n{name}: {len(results)} runs, seeds {seed0}-{seed0 + runs - 1}, "
              f"{bench['run_seconds']}s each")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'max/min':>8}")
        medians[name] = {}
        for metric in sorted(results[0]["metrics"]):
            vals = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(vals)
            medians[name][metric] = med
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            lo = min(vals)
            ratio = max(vals) / lo if lo > 0 else float("nan")
            bound = bounds[metric]["bound"]
            flag = ""
            if metric != "setup_s" and spread >= bound / 3:
                flag = f"  <-- spread >= bound/3 ({bound}/3)"
            print(f"  {metric:32} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {ratio:8.3f}{flag}")
        print(flush=True)
    return medians, ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1000, help="first seed; run i of set s uses seed0+s*runs+i")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs whose medians are compared")
    ap.add_argument("--workloads", default="", help="comma-separated; default all in BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    ok = True
    for s in range(args.sets):
        print(f"=== set {s + 1} of {args.sets}\n", flush=True)
        medians, set_ok = run_set(bench, names, args.runs, args.seed0 + s * args.runs, bounds)
        sets.append(medians)
        ok = ok and set_ok
    for s in range(1, len(sets)):
        print(f"=== change of the median, set 1 -> set {s + 1} (positive = worse)\n")
        for name in names:
            if name not in sets[0] or name not in sets[s]:
                continue
            print(f"{name}:")
            print(f"  {'metric':32} {'set 1':>12} {f'set {s + 1}':>12} {'worse by':>9} {'bound':>6}")
            for metric, first in sorted(sets[0][name].items()):
                later = sets[s][name][metric]
                m = bounds[metric]
                sign = 1 if m["better"] == "lower" else -1
                worse = sign * (later - first) / first if first else 0.0
                flag = "  <-- beyond bound" if worse > m["bound"] else ""
                print(f"  {metric:32} {first:12.4f} {later:12.4f} {worse:9.3f} {m['bound']:6.2f}{flag}")
            print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
