#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs against the bounds in BENCHMARK.json.

    python3 bench_e2e/compare.py BASE.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

Each input holds bench_e2e output lines, one JSON object per line (lines
that are not JSON objects are skipped). Untraced lines are compared on the
end-to-end metrics; traced lines only summarised, since per-layer metrics
carry no bound. For every workload and metric it prints the median and
quartiles of each side and a verdict:

  ok          NEW's median is not worse than BASE's by more than the bound
  worse       it is worse by more than the bound
  unresolved  BASE's interquartile range exceeds the bound, and not every
              NEW run beats every BASE run

Exits 1 when any verdict is "worse". Standard library only.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    """{(workload, traced): {metric: [values]}} from one JSONL file."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(row, dict) or "workload" not in row:
            continue
        key = (row["workload"], bool(row.get("traced")))
        for name, metric in row.get("metrics", {}).items():
            runs.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """(verdict, how much worse NEW's median is, as a share of BASE's).

    End-to-end metrics are never 0, so BASE's median is a safe divisor.
    """
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nmed - bmed) / bmed
    if (b3 - b1) / bmed > bound:
        beats_all = all(sign * (n - b) < 0 for n in new for b in base)
        return ("ok" if beats_all else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def fmt(x):
    return f"{x:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    base, new = load_runs(args.base), load_runs(args.new)
    any_worse = False
    # gain: how much better NEW's median is than BASE's, as a share of BASE's.
    header = f"{'metric':32} {'base q1/median/q3':>36} {'new q1/median/q3':>36}  {'gain':>8}  verdict"
    for workload in [w["name"] for w in spec["workloads"]]:
        for traced, metrics in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            b_runs, n_runs = base.get((workload, traced)), new.get((workload, traced))
            if not b_runs or not n_runs:
                continue
            print(f"\n== {workload}{' (traced)' if traced else ''}: "
                  f"{len(next(iter(b_runs.values())))} base runs, "
                  f"{len(next(iter(n_runs.values())))} new runs")
            print(header)
            for m in metrics:
                b, n = b_runs.get(m["name"]), n_runs.get(m["name"])
                if not b or not n:
                    continue
                bq, nq = quartiles(b), quartiles(n)
                line = (f"{m['name']:32} {'/'.join(map(fmt, bq)):>36} "
                        f"{'/'.join(map(fmt, nq)):>36}")
                if "bound" not in m:
                    print(line)
                    continue
                v, worse_by = verdict(b, n, m["better"], m["bound"])
                any_worse |= v == "worse"
                gain = 0.0 - 100 * worse_by  # 0.0 - x turns -0.0 into +0.0
                print(f"{line}  {gain:+7.2f}%  {v} (bound {100 * m['bound']:g}%)")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
