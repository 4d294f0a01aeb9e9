#!/usr/bin/env bash
# Kill-and-resume smoke for the tournament's crash-safe journal:
#
#   1. run a small faulty grid to completion (reference, no journal)
#   2. run the same grid with --journal and SIGKILL it mid-grid
#   3. resume: journaled cells must be skipped, and the final leaderboard and
#      cells CSVs must be byte-identical to the reference
#   4. resume again: nothing left to run — the journal must not grow and the
#      outputs must not change
#
# Usage: tournament_resume_smoke.sh <build-dir>
set -eu

BUILD_DIR=${1:?usage: tournament_resume_smoke.sh <build-dir>}
TOURNAMENT="$BUILD_DIR/examples/tournament"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# 3 combos x 2 scenarios = 6 cells. --no-timing makes the CSVs fully
# deterministic, so byte-for-byte diffs are the pass criterion.
ARGS=(--combos "round-robin+always-on,least-loaded+immediate-sleep,first-fit-packing+fixed-timeout-60"
      --scenarios "tiny/least-loaded-faulty,tiny/round-robin-faulty"
      --jobs 60000 --workers 1 --no-timing)
JOURNAL="$WORK/journal.csv"
mkdir -p "$WORK/ref" "$WORK/killed" "$WORK/resumed" "$WORK/resumed2"

echo "== reference run (no journal)"
"$TOURNAMENT" "${ARGS[@]}" --out-dir "$WORK/ref" >/dev/null

echo "== journaled run, killed mid-grid"
"$TOURNAMENT" "${ARGS[@]}" --journal "$JOURNAL" --out-dir "$WORK/killed" >/dev/null 2>&1 &
PID=$!
# Wait until at least one cell record (magic line + 1) has been flushed,
# then kill hard — no chance to finish the write loop cleanly.
for _ in $(seq 1 400); do
  lines=$( { wc -l <"$JOURNAL"; } 2>/dev/null || echo 0)
  [ "$lines" -ge 2 ] && break
  sleep 0.02
done
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

lines=$( { wc -l <"$JOURNAL"; } 2>/dev/null || echo 0)
if [ "$lines" -lt 2 ]; then
  echo "FAIL: journal never got a record before the kill" >&2
  exit 1
fi
if [ "$lines" -ge 7 ]; then
  echo "note: grid finished before the kill landed ($((lines - 1))/6 cells journaled);"
  echo "      the resume below still proves the skip path."
fi
echo "   journaled cells at kill: $((lines - 1))/6"

echo "== resume"
"$TOURNAMENT" "${ARGS[@]}" --journal "$JOURNAL" --out-dir "$WORK/resumed" >/dev/null
diff -u "$WORK/ref/leaderboard.csv" "$WORK/resumed/leaderboard.csv"
diff -u "$WORK/ref/cells.csv" "$WORK/resumed/cells.csv"
echo "   resumed output is byte-identical to the reference"

echo "== second resume (everything journaled)"
cp "$JOURNAL" "$WORK/journal.before"
"$TOURNAMENT" "${ARGS[@]}" --journal "$JOURNAL" --out-dir "$WORK/resumed2" >/dev/null
cmp "$JOURNAL" "$WORK/journal.before"
diff -u "$WORK/resumed/cells.csv" "$WORK/resumed2/cells.csv"
echo "   journal unchanged, output unchanged"

echo "tournament journal kill-and-resume smoke passed"
