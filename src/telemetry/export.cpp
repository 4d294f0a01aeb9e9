#include "src/telemetry/export.hpp"

#include <fstream>
#include <stdexcept>

#include "src/common/log.hpp"
#include "src/telemetry/json_util.hpp"

namespace hcrl::telemetry {

std::string build_git_describe() {
#ifdef HCRL_GIT_DESCRIBE
  return HCRL_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

namespace {

std::string manifest_body(const RunManifest& m) {
  std::string out;
  out += "{";
  out += R"("tool":")" + json_escape(m.tool) + R"(",)";
  out += R"("scenario":")" + json_escape(m.scenario) + R"(",)";
  out += R"("precision":")" + json_escape(m.precision) + R"(",)";
  out += R"("gemm_threads":)" + std::to_string(m.gemm_threads) + ",";
  out += R"("git_describe":")" + json_escape(build_git_describe()) + R"(",)";
  out += R"("wall_seconds":)" + json_number(m.wall_seconds);
  for (const auto& [key, value] : m.extra) {
    out += R"(,")" + json_escape(key) + R"(":")" + json_escape(value) + R"(")";
  }
  out += "}";
  return out;
}

std::string metric_body(const MetricValue& m) {
  std::string out = R"({"kind":")" + to_string(m.kind) + R"(","count":)" +
                    std::to_string(m.count);
  switch (m.kind) {
    case MetricKind::kCounter:
    case MetricKind::kGauge:
      out += R"(,"value":)" + json_number(m.value);
      break;
    case MetricKind::kHistogram: {
      out += R"(,"sum":)" + json_number(m.value);
      out += R"(,"p50":)" + json_number(m.quantile(0.50));
      out += R"(,"p95":)" + json_number(m.quantile(0.95));
      out += R"(,"p99":)" + json_number(m.quantile(0.99));
      out += R"(,"bounds":[)";
      for (std::size_t i = 0; i < m.bounds.size(); ++i) {
        if (i > 0) out += ",";
        out += json_number(m.bounds[i]);
      }
      out += R"(],"bins":[)";
      for (std::size_t i = 0; i < m.bins.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(m.bins[i]);
      }
      out += "]";
      break;
    }
  }
  out += "}";
  return out;
}

}  // namespace

void write_manifest_json(std::ostream& os, const RunManifest& manifest) {
  os << R"({"schema":"hcrl-manifest-v1","manifest":)" << manifest_body(manifest) << "}\n";
}

void write_metrics_json(std::ostream& os, const RegistrySnapshot& snapshot,
                        const RunManifest& manifest) {
  os << R"({"schema":"hcrl-metrics-v1",)" << "\n";
  os << R"("manifest":)" << manifest_body(manifest) << ",\n";
  os << R"("metrics":{)";
  bool first = true;
  for (const auto& m : snapshot.metrics) {
    if (!first) os << ",";
    first = false;
    os << "\n" << R"(")" << json_escape(m.name) << R"(":)" << metric_body(m);
  }
  os << "\n}}\n";
}

std::string manifest_path_for(const std::string& metrics_path) {
  const std::string suffix = ".json";
  if (metrics_path.size() > suffix.size() &&
      metrics_path.compare(metrics_path.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return metrics_path.substr(0, metrics_path.size() - suffix.size()) + ".manifest.json";
  }
  return metrics_path + ".manifest.json";
}

CliSession::CliSession(std::string metrics_path, std::string trace_path)
    : metrics_path_(std::move(metrics_path)), trace_path_(std::move(trace_path)) {
  active_ = !metrics_path_.empty() || !trace_path_.empty();
  if (!active_) return;
  global_registry().reset();
  set_enabled(true);
  if (!trace_path_.empty()) collector_.install();
}

CliSession::~CliSession() {
  if (!active_) return;
  collector_.uninstall();
  set_enabled(false);
}

void CliSession::finish(const RunManifest& manifest) {
  if (!active_ || finished_) return;
  finished_ = true;
  collector_.uninstall();
  auto open = [](const std::string& path) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("telemetry: cannot write " + path);
    return os;
  };
  if (!metrics_path_.empty()) {
    const RegistrySnapshot snap = global_registry().snapshot();
    {
      auto os = open(metrics_path_);
      write_metrics_json(os, snap, manifest);
    }
    common::log_info() << "telemetry: wrote metrics snapshot (" << snap.metrics.size()
                       << " metrics) to " << metrics_path_;
    const std::string manifest_path = manifest_path_for(metrics_path_);
    {
      auto os = open(manifest_path);
      write_manifest_json(os, manifest);
    }
    common::log_info() << "telemetry: wrote run manifest to " << manifest_path;
  }
  if (!trace_path_.empty()) {
    auto os = open(trace_path_);
    collector_.write_json(os);
    common::log_info() << "telemetry: wrote Chrome trace (" << collector_.num_events()
                       << " events) to " << trace_path_;
  }
}

}  // namespace hcrl::telemetry
