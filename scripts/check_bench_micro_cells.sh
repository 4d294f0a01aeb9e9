#!/usr/bin/env bash
# Perf-trajectory guard: the `cells` of BENCH_micro.json must be exactly the
# cells bench_micro registers. A cell deleted from bench_micro would
# otherwise leave a stale row in the committed trajectory, and a new cell
# would have no row to diff against.
#
# Usage: check_bench_micro_cells.sh <bench_micro-binary> <BENCH_micro.json>
set -euo pipefail

BENCH=${1:?usage: check_bench_micro_cells.sh <bench_micro-binary> <BENCH_micro.json>}
JSON=${2:?usage: check_bench_micro_cells.sh <bench_micro-binary> <BENCH_micro.json>}

registered=$("$BENCH" --benchmark_list_tests | sort -u)
recorded=$(python3 -c 'import json, sys; print("\n".join(json.load(open(sys.argv[1]))["cells"]))' \
  "$JSON" | sort -u)

stale=$(comm -13 <(echo "$registered") <(echo "$recorded"))
unrecorded=$(comm -23 <(echo "$registered") <(echo "$recorded"))
for name in $stale; do
  echo "FAIL: $JSON has a row for '$name', which bench_micro does not register" >&2
done
for name in $unrecorded; do
  echo "FAIL: bench_micro registers '$name', which has no row in $JSON" >&2
done
if [ -n "$stale$unrecorded" ]; then
  echo "BENCH_micro.json cells and bench_micro cells differ" >&2
  exit 1
fi
echo "BENCH_micro.json holds exactly the $(wc -l <<<"$registered") cells bench_micro registers"
