#!/usr/bin/env python3
"""Compare two BENCH_micro.json files cell by cell.

Usage:
    python3 scripts/bench_micro_diff.py BASE.json NEW.json

Prints one line per cell found in both files: the base and new median real
time in nanoseconds and their ratio NEW/BASE (above 1 is slower). Cells
found in only one file are listed after the table. Both files must use the
schema that scripts/bench_to_json.py writes.

The diff only reports: it exits 0 whenever both files parse, and 1 when
either does not. A failing noise band needs a committed baseline measured
on the host that runs the comparison.
"""

import json
import sys

SCHEMA = "hcrl-bench-micro-v1"


def load_cells(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        raise SystemExit(f"{path}: {err}")
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: not a {SCHEMA} file")
    cells = {}
    for name, entry in doc.get("cells", {}).items():
        try:
            cells[name] = float(entry["real_time_ns"])
        except (KeyError, TypeError, ValueError):
            raise SystemExit(f"{path}: cell '{name}' has no real_time_ns")
    return cells


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    base_path, new_path = argv[1], argv[2]
    base = load_cells(base_path)
    new = load_cells(new_path)

    common = sorted(set(base) & set(new))
    width = max([len("cell")] + [len(name) for name in common])
    print(f"{'cell':<{width}}  {'base_ns':>14}  {'new_ns':>14}  {'new/base':>8}")
    for name in common:
        ratio = new[name] / base[name] if base[name] > 0 else float("inf")
        print(f"{name:<{width}}  {base[name]:>14.6g}  {new[name]:>14.6g}  {ratio:>8.3f}")
    for path, only in ((base_path, set(base) - set(new)), (new_path, set(new) - set(base))):
        if only:
            print(f"only in {path}: {', '.join(sorted(only))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
