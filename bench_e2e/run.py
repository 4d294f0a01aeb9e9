#!/usr/bin/env python3
"""Build bench_e2e from source and run one end-to-end benchmark workload.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds T --trace 0|1

Works from any directory of a checkout. Each call configures (CMake,
Release) and builds into .bench_build/ at the repository root; only the
first call compiles anything. Build output goes to standard error. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of the traced run with --trace 1. The exit status is bench_e2e's.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: no hcrl sources under {ROOT}; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "bench_e2e"), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [str(BUILD / "bench_e2e"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run.py: bench_e2e printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
