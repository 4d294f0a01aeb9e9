#!/usr/bin/env bash
# Paper-figure driver smoke: run every bench that regenerates a figure, a
# table or an ablation of the paper at a toy scale (300 jobs, two workers)
# and fail on any nonzero exit, so the drivers cannot rot between full runs.
# A malformed HCRL_BENCH_JOBS must fail with exit 1 and name the variable.
#
# Usage: bench_paper_smoke.sh <bench-build-dir>
set -u

BENCH_DIR=${1:?usage: bench_paper_smoke.sh <bench-build-dir>}
export HCRL_BENCH_JOBS=300 HCRL_BENCH_THREADS=2

failures=0
for bench in bench_fig8 bench_fig9 bench_fig10 bench_table1 bench_ablation_dnn \
             bench_ablation_predictor; do
  output_file=$(mktemp)
  "$BENCH_DIR/$bench" >"$output_file" 2>&1
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAIL: $bench exited $code:" >&2
    sed 's/^/    /' "$output_file" >&2
    failures=$((failures + 1))
  else
    echo "ok: $bench"
  fi
  rm -f "$output_file"
done

# Expect-failure probe: a count with a suffix is an error, not 3 jobs.
output_file=$(mktemp)
HCRL_BENCH_JOBS=3x00 "$BENCH_DIR/bench_table1" >"$output_file" 2>&1
code=$?
if [ "$code" -ne 1 ] || ! grep -q "HCRL_BENCH_JOBS" "$output_file"; then
  echo "FAIL: bench_table1 with HCRL_BENCH_JOBS=3x00 exited $code (want 1, naming the variable):" >&2
  sed 's/^/    /' "$output_file" >&2
  failures=$((failures + 1))
else
  echo "ok: bench_table1 rejects HCRL_BENCH_JOBS=3x00"
fi
rm -f "$output_file"

if [ "$failures" -ne 0 ]; then
  echo "$failures paper-figure driver(s) failed" >&2
  exit 1
fi
echo "every paper-figure driver exits 0 at $HCRL_BENCH_JOBS jobs"
