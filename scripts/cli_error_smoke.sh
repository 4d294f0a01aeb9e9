#!/usr/bin/env bash
# CLI error-path smoke: every user mistake must exit 1 with a one-line
# `error: <what>` on stderr — no stack traces, no std::terminate, no exit 0.
# Count arguments are strict: a sign, a suffix or an out-of-range value is a
# mistake too.
#
# Usage: cli_error_smoke.sh <build-dir>
set -u

BUILD_DIR=${1:?usage: cli_error_smoke.sh <build-dir>}
FIXTURES="$(cd "$(dirname "$0")/.." && pwd)/data/traces"
RUN_EXPERIMENT="$BUILD_DIR/examples/run_experiment"
TOURNAMENT="$BUILD_DIR/examples/tournament"
TRACE_TOOLS="$BUILD_DIR/examples/trace_tools"
QUICKSTART="$BUILD_DIR/examples/quickstart"
TRADEOFF_EXPLORER="$BUILD_DIR/examples/tradeoff_explorer"
WORKLOAD_PREDICTION="$BUILD_DIR/examples/workload_prediction"

failures=0

# expect_error <description> [<pattern>] -- <command...>
# Passes when the command exits 1 AND prints "error:" on stderr, followed on
# the same line by <pattern> (an extended regex) when one is given.
expect_error() {
  local desc=$1 pattern=""
  shift
  if [ "$1" != "--" ]; then
    pattern=$1
    shift
  fi
  shift
  local stderr_file
  stderr_file=$(mktemp)
  "$@" >/dev/null 2>"$stderr_file"
  local code=$?
  if [ "$code" -ne 1 ]; then
    echo "FAIL: $desc — expected exit 1, got $code" >&2
    failures=$((failures + 1))
  elif ! grep -qE "error:.*$pattern" "$stderr_file"; then
    echo "FAIL: $desc — stderr lacks 'error:'${pattern:+ followed by /$pattern/}:" >&2
    sed 's/^/    /' "$stderr_file" >&2
    failures=$((failures + 1))
  else
    echo "ok: $desc"
  fi
  rm -f "$stderr_file"
}

# expect_ok <description> -- <command...>
# Passes when the command exits 0.
expect_ok() {
  local desc=$1
  shift 2
  "$@" >/dev/null 2>&1
  local code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAIL: $desc — expected exit 0, got $code" >&2
    failures=$((failures + 1))
  else
    echo "ok: $desc"
  fi
}

# --- run_experiment ---------------------------------------------------------
expect_error "run_experiment: negative num_servers" \
  -- "$RUN_EXPERIMENT" --inline "num_servers = -3"
expect_error "run_experiment: duplicate config key" \
  -- "$RUN_EXPERIMENT" --inline "num_servers = 4
num_servers = 8"
expect_error "run_experiment: absurd faults.backoff_jitter" \
  -- "$RUN_EXPERIMENT" --inline "faults.backoff_jitter = 2"
expect_error "run_experiment: crashes enabled without repair" \
  -- "$RUN_EXPERIMENT" --inline "faults.mtbf_s = 100" "faults.mttr_s = 0"
expect_error "run_experiment: unknown scenario name" \
  -- "$RUN_EXPERIMENT" --scenario nope/nothing 100
expect_error "run_experiment: missing config file" \
  -- "$RUN_EXPERIMENT" /nonexistent/config.cfg
expect_error "run_experiment: missing trace file" \
  -- "$RUN_EXPERIMENT" --trace /nonexistent/trace.csv
expect_error "run_experiment: negative job count" \
  -- "$RUN_EXPERIMENT" --scenario tiny/round-robin -5
expect_error "run_experiment: job count with a suffix" \
  -- "$RUN_EXPERIMENT" --scenario tiny/round-robin 12abc
expect_error "run_experiment: removed fixed_timeout_s key" \
  -- "$RUN_EXPERIMENT" --inline "fixed_timeout_s = 30"
expect_error "run_experiment: removed gemm_threads key" \
  -- "$RUN_EXPERIMENT" --inline "gemm_threads = 2"
expect_error "run_experiment: NaN idle timeout" \
  -- "$RUN_EXPERIMENT" --inline "system = drl-fixed-timeout" "power.timeout_s = nan"
expect_error "run_experiment: unknown system preset" \
  -- "$RUN_EXPERIMENT" --catalog google2011-sample hierarchial
# The learning tiers' options are their entries' option blocks; a bad value
# must reach the tier's own check, not the unknown-key path.
expect_error "run_experiment: NaN global-tier learning rate" "learning rates must be > 0" \
  -- "$RUN_EXPERIMENT" --inline "system = drl-only" "num_servers = 6" "num_groups = 2" \
     "trace.num_jobs = 300" "allocator.learning_rate = nan"
expect_error "run_experiment: NaN local-tier reward weight" "w out of \[0,1\]" \
  -- "$RUN_EXPERIMENT" --inline "system = hierarchical" "num_servers = 6" "num_groups = 2" \
     "trace.num_jobs = 300" "power.w = nan"
# `drl.*` / `local.*` are not keys, and a tier option under a policy that
# does not take it is an unknown option key.
expect_error "run_experiment: removed drl.* / local.* keys" "unknown keys: drl.beta local.w" \
  -- "$RUN_EXPERIMENT" --inline "system = round-robin" "num_servers = 6" "num_groups = 2" \
     "trace.num_jobs = 300" "drl.beta = 0.3" "local.w = 0.2"
expect_error "run_experiment: removed local.predictor key" "unknown keys: local.predictor" \
  -- "$RUN_EXPERIMENT" --inline "num_servers = 6" "num_groups = 2" "trace.num_jobs = 300" \
     "local.predictor = window"
expect_error "run_experiment: drl option under round-robin" \
  "allocator 'round-robin': unknown option key 'beta'" \
  -- "$RUN_EXPERIMENT" --inline "system = round-robin" "num_servers = 6" "num_groups = 2" \
     "trace.num_jobs = 300" "allocator.beta = 0.3"
# A range error names the key as written, and a huge random-k `k` fails at
# config time instead of spinning every decision; `timeout` turns a hang
# into a failure.
expect_error "run_experiment: random-k k beyond the cluster" "allocator\.k" \
  -- timeout 20 "$RUN_EXPERIMENT" --inline "allocator = random-k" "allocator.k = 1000000000000" \
     "power = always-on" "num_servers = 6" "num_groups = 2" "trace.num_jobs = 300"
# random-k's default k is min(3, num_servers), so it fits a two-server
# cluster, as the allocator and as the DRL tier's exploration guide.
expect_ok "run_experiment: random-k default k on two servers" \
  -- timeout 20 "$RUN_EXPERIMENT" --inline "allocator = random-k" "power = always-on" \
     "num_servers = 2" "num_groups = 1" "trace.num_jobs = 100"
expect_ok "run_experiment: random-k guide on two servers" \
  -- timeout 20 "$RUN_EXPERIMENT" --inline "allocator.guide = random-k" "power = always-on" \
     "num_servers = 2" "num_groups = 1" "trace.num_jobs = 100"
expect_error "run_experiment: negative idle timeout" "power\.timeout_s" \
  -- timeout 20 "$RUN_EXPERIMENT" --inline "system = drl-fixed-timeout" "num_servers = 6" \
     "num_groups = 2" "trace.num_jobs = 300" "power.timeout_s = -5"
expect_error "run_experiment: removed sliding-mean predictor" "did you mean" \
  -- timeout 20 "$RUN_EXPERIMENT" --inline "num_servers = 6" "num_groups = 2" \
     "trace.num_jobs = 300" "power.predictor = sliding-mean"
# A NaN trace shape must not spin trace generation, nor a NaN server value
# reach the energy total; `timeout` turns a hang into a failure.
for key in trace.horizon_s trace.diurnal_amplitude trace.burst_multiplier server.t_on; do
  expect_error "run_experiment: NaN $key" \
    -- timeout 20 "$RUN_EXPERIMENT" --inline "system = round-robin" "num_servers = 6" \
       "num_groups = 2" "trace.num_jobs = 300" "$key = nan"
done
# Finite but absurd values: a 1e12 s horizon would spin trace generation,
# and huge server values overflow the energy or latency total.
for setting in "trace.horizon_s = 1e12" "server.t_on = 1e308" "server.peak_watts = 1e308" \
               "server.transition_watts = 1e308"; do
  expect_error "run_experiment: $setting" \
    -- timeout 20 "$RUN_EXPERIMENT" --inline "system = round-robin" "num_servers = 6" \
       "num_groups = 2" "trace.num_jobs = 300" "$setting"
done

# --- tournament -------------------------------------------------------------
expect_error "tournament: unknown combo" \
  -- "$TOURNAMENT" --combos definitely-not-a-policy+always-on --workers 1
expect_error "tournament: unknown scenario" \
  -- "$TOURNAMENT" --scenarios nope/nothing --workers 1 --jobs 50
expect_error "tournament: non-numeric --jobs" \
  -- "$TOURNAMENT" --jobs banana
expect_error "tournament: --jobs with a suffix" \
  -- "$TOURNAMENT" --jobs 40x
expect_error "tournament: zero --jobs" \
  -- "$TOURNAMENT" --jobs 0
expect_error "tournament: negative --workers" \
  -- "$TOURNAMENT" --workers -1
expect_error "tournament: unwritable --out-dir" \
  -- "$TOURNAMENT" --combos round-robin+always-on --scenarios tiny/round-robin \
     --jobs 50 --workers 1 --out-dir /nonexistent/deep/dir

# --- trace_tools ------------------------------------------------------------
expect_error "trace_tools: missing trace file" \
  -- "$TRACE_TOOLS" inspect /nonexistent/trace.csv
expect_error "trace_tools: unknown raw-trace format" \
  -- "$TRACE_TOOLS" convert not-a-format /nonexistent/raw.csv /tmp/out.csv
expect_error "trace_tools: negative job count" \
  -- "$TRACE_TOOLS" generate -5 /nonexistent/out.csv
expect_error "trace_tools: non-numeric max_jobs" \
  -- "$TRACE_TOOLS" convert google2011 "$FIXTURES/google2011_task_events.sample.csv" \
     /nonexistent/out.csv lots

# --- quickstart -------------------------------------------------------------
expect_error "quickstart: non-numeric job count" \
  -- "$QUICKSTART" banana
expect_error "quickstart: negative job count" \
  -- "$QUICKSTART" -5

# --- tradeoff_explorer ------------------------------------------------------
expect_error "tradeoff_explorer: non-numeric job count" \
  -- "$TRADEOFF_EXPLORER" banana
expect_error "tradeoff_explorer: negative job count" \
  -- "$TRADEOFF_EXPLORER" -5
expect_error "tradeoff_explorer: zero job count" \
  -- "$TRADEOFF_EXPLORER" 0
expect_error "tradeoff_explorer: negative thread count" \
  -- "$TRADEOFF_EXPLORER" 100 -1

# --- workload_prediction ----------------------------------------------------
expect_error "workload_prediction: non-numeric arrival count" \
  -- "$WORKLOAD_PREDICTION" banana
expect_error "workload_prediction: negative arrival count" \
  -- "$WORKLOAD_PREDICTION" -5
expect_ok "workload_prediction: fewer than 16 arrivals" \
  -- "$WORKLOAD_PREDICTION" 10

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI error-path check(s) failed" >&2
  exit 1
fi
echo "all CLI error paths exit 1 with 'error:' on stderr"
