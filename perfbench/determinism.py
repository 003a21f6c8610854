#!/usr/bin/env python3
"""Determinism cross-check: two runs of each workload with one seed must
print the same trace hash and event count and the same virtual-time
metrics; a run with a seed not used during development must pass every
correctness check.

    python3 perfbench/determinism.py

The seed is 1; the unseen seed is 90001. Each run repeats its round at
least four times and itself requires every round to reproduce the first,
so this compares eight identical rounds.
"""
import json
import sys

import run as bench

VIRTUAL = ("sink_delay_p50_ms", "sink_delay_p99_ms", "sink_delay_p999_ms",
           "wire_bytes_per_sample")
WORKLOADS = ("paper_10hz", "etl_city", "fed_qos")
SEED = 1
UNSEEN_SEED = 90001


def once(binary, workload, seed):
    code, lines = bench.run(binary, ["--workload", workload, "--seed",
                                     str(seed), "--seconds", "0.1",
                                     "--trace", "0"])
    if code != 0:
        sys.exit("perfbench: %s seed %d exited %d" % (workload, seed, code))
    hash_line = next(l for l in lines if l.startswith("determinism:"))
    result = json.loads(lines[-1])
    virtual = {k: result["metrics"][k]["value"] for k in VIRTUAL}
    return hash_line, virtual, result


def main():
    binary = bench.build()
    ok = True
    for w in WORKLOADS:
        h1, v1, r1 = once(binary, w, SEED)
        h2, v2, r2 = once(binary, w, SEED)
        same = h1 == h2 and v1 == v2 and r1["attempted"] == r2["attempted"]
        print("%-10s seed %d: %s | %s" % (w, SEED, h1,
                                          "identical" if same else "DIFFERENT"))
        if not same:
            print("  first:  %s %s\n  second: %s %s" % (h1, v1, h2, v2))
        _, _, r3 = once(binary, w, UNSEEN_SEED)
        passed = r3["correct"] and r3["failed"] == 0
        print("%-10s seed %d: correct=%s failed=%d of %d" % (
            w, UNSEEN_SEED, r3["correct"], r3["failed"], r3["attempted"]))
        ok = ok and same and passed and r1["correct"]
    print("determinism: %s" % ("ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
