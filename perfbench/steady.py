#!/usr/bin/env python3
"""Steadiness check: runs every workload of BENCHMARK.json once per seed
1-10, each run as long as its run_seconds, and prints, per end-to-end
metric, the median and quartiles of its values against its bound.

    python3 perfbench/steady.py

Spread is (q3 - q1) / median with statistics.quantiles(values, n=4). A
metric is steady when its spread is below a third of its bound. The share
of failed operations must be identical in every run. Exits 1 when any
metric is not steady or any run is not correct.
"""
import fractions
import json
import os
import statistics
import sys

import run as bench

ROOT = bench.ROOT
SEEDS = range(1, 11)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds):
    code, lines = bench.run(binary, [
        "--workload", workload, "--seed", str(seed), "--seconds",
        str(seconds), "--trace", "0"])
    if code != 0 or not lines:
        sys.exit("perfbench: %s seed %d exited %d" % (workload, seed, code))
    return json.loads(lines[-1])


def main():
    s = spec()
    binary = bench.build()
    bounds = {m["name"]: m for m in s["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in s["workloads"]):
        values = {name: [] for name in bounds}
        shares = set()
        for seed in SEEDS:
            result = run_once(binary, workload, seed, s["run_seconds"])
            if not result["correct"]:
                print("%s seed %d: correct=false" % (workload, seed))
                steady = False
            shares.add(fractions.Fraction(result["failed"],
                                          result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (n, v[-1]) for n, v in values.items())))
            sys.stdout.flush()
        print("\n%s (%d runs)" % (workload, len(SEEDS)))
        print("  %-24s %14s %14s %14s %8s %7s  %s" % (
            "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
        for name, m in bounds.items():
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if spread < m["bound"] / 3:
                verdict = "steady"
            else:
                verdict = "NOT STEADY"
                steady = False
            print("  %-24s %14.6g %14.6g %14.6g %8.4f %7.3f  %s" % (
                name, q1, med, q3, spread, m["bound"], verdict))
        print("  failed share of operations: %s" % ", ".join(
            str(x) for x in sorted(shares)))
        if len(shares) != 1:
            steady = False
        print()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
