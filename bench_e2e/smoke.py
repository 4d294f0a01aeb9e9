#!/usr/bin/env python3
"""Smoke test for bench_e2e: every workload at 1 % scale, plus one traced run.

    python3 bench_e2e/smoke.py .bench_build/bench_e2e

Checks that each run exits 0, that its last line is a JSON object with the
expected keys, and that its metric names and units are exactly the
end-to-end (untraced) or per-layer (traced) set declared in BENCHMARK.json.
Registered as the ctest `bench_e2e_smoke` of the bench_e2e build.
"""
import json
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
KEYS = {"workload", "seed", "scale", "traced", "correct", "attempted", "failed", "metrics"}


def run(binary, workload, traced, expected):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "0", "--scale", "0.01"]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    label = f"{workload}{' --traced' if traced else ''}"
    if proc.returncode != 0:
        return f"{label}: exit {proc.returncode}"
    row = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(row) != KEYS:
        return f"{label}: keys {sorted(row)}"
    if not row["correct"] or row["failed"] != 0 or row["attempted"] < 1:
        return f"{label}: correct={row['correct']} failed={row['failed']}"
    units = {name: m["unit"] for name, m in row["metrics"].items()}
    if units != expected:
        return f"{label}: metrics {units} != BENCHMARK.json {expected}"
    return None


def main():
    binary = sys.argv[1]
    spec = json.loads(BENCHMARK.read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    errors = [run(binary, w, False, end_to_end) for w in workloads]
    errors.append(run(binary, "paper-hier-m30", True, per_layer))  # both tiers learn
    errors = [e for e in errors if e]
    for e in errors:
        print("bench_e2e_smoke:", e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
