#!/usr/bin/env python3
"""Builds and runs the IFoT full-stack benchmark.

    python3 perfbench/run.py --workload <paper_10hz|etl_city|fed_qos> \\
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and compiles
perfbench/ (which compiles the repository's src/ tree) into the build
directory: $CARGO_TARGET_DIR when set, else .bench_build. Build output goes
to stderr; stdout carries the benchmark's report, whose last line is the
JSON result. A traced run writes its span file to <build>/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "ifot_perfbench"


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and compiles; returns the binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, BINARY)


def run(binary, args):
    """Runs the benchmark binary with `args`; returns its stdout lines."""
    r = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                       stderr=sys.stderr, text=True)
    return r.returncode, r.stdout.splitlines()


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--districts", type=int, default=0,
                   help="etl_city/fed_qos district count (scaling runs)")
    p.add_argument("--self-test", action="store_true",
                   help="negative self-test of the correctness checks")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")
    binary = build()
    if a.self_test:
        args = ["--self-test"]
    else:
        args = ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", repr(a.seconds), "--trace", str(a.trace)]
        if a.districts:
            args += ["--districts", str(a.districts)]
        if a.trace:
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            args += ["--trace-out", os.path.join(
                traces, "%s-%d.jsonl" % (a.workload, a.seed))]
    code, lines = run(binary, args)
    for line in lines:
        print(line)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
