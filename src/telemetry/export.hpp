// Snapshot + manifest exporters and the CLI session glue that backs the
// `--metrics-json` / `--chrome-trace` flags on run_experiment and
// tournament.
//
// Snapshot schema (`hcrl-metrics-v1`): a single JSON object with the run
// manifest embedded and one entry per metric, keyed by name —
//   counter:   {"kind":"counter","count":N,"value":N}
//   gauge:     {"kind":"gauge","count":N,"value":V}
//   histogram: {"kind":"histogram","count":N,"sum":S,
//               "p50":…,"p95":…,"p99":…,"bounds":[…],"bins":[…]}
// A standalone run-manifest JSON (config, precision, git describe,
// wall-clock) is additionally written next to every metrics snapshot.
#pragma once

#include <map>
#include <ostream>
#include <string>

#include "src/telemetry/registry.hpp"
#include "src/telemetry/trace.hpp"

namespace hcrl::telemetry {

/// What produced a snapshot: enough to reproduce the run.
struct RunManifest {
  std::string tool;      // e.g. "run_experiment", "tournament"
  std::string scenario;  // scenario name / grid description
  std::string precision; // "f32" / "f64" / "mixed"
  double wall_seconds = 0.0;
  /// Extra tool-specific keys (sorted on output).
  std::map<std::string, std::string> extra;
};

/// `git describe --always --dirty` captured at configure time
/// (HCRL_GIT_DESCRIBE compile definition); "unknown" when unavailable.
std::string build_git_describe();

void write_manifest_json(std::ostream& os, const RunManifest& manifest);
void write_metrics_json(std::ostream& os, const RegistrySnapshot& snapshot,
                        const RunManifest& manifest);

/// Sibling path for the standalone manifest: `runs/m.json` ->
/// `runs/m.manifest.json` (appends when the path has no .json suffix).
std::string manifest_path_for(const std::string& metrics_path);

/// RAII wiring for a CLI run: when either path is non-empty, resets the
/// global registry, enables telemetry, and (for a trace path) installs a
/// TraceCollector. finish() writes every requested artifact — metrics
/// snapshot + sibling manifest, Chrome trace — after the run. The
/// destructor restores the disabled state.
class CliSession {
 public:
  CliSession(std::string metrics_path, std::string trace_path);
  ~CliSession();
  CliSession(const CliSession&) = delete;
  CliSession& operator=(const CliSession&) = delete;

  bool active() const noexcept { return active_; }
  /// Write all requested artifacts; logs each emitted path. Call once,
  /// after the instrumented workload has quiesced.
  void finish(const RunManifest& manifest);

 private:
  std::string metrics_path_;
  std::string trace_path_;
  bool active_ = false;
  bool finished_ = false;
  TraceCollector collector_;
};

}  // namespace hcrl::telemetry
