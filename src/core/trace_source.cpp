#include "src/core/trace_source.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/telemetry/registry.hpp"
#include "src/workload/trace/catalog.hpp"
#include "src/workload/trace_io.hpp"

namespace hcrl::core {

namespace {
// Registry absorption of the ad-hoc AdapterReport / NormalizeReport structs:
// catalog loads publish their ingestion counters here so the one snapshot
// schema covers the trace layer too (the structs themselves remain the
// trace_tools / test API).
struct TraceMetrics {
  telemetry::MetricId rows_read;
  telemetry::MetricId rows_malformed;
  telemetry::MetricId rows_filtered;
  telemetry::MetricId unmatched_tasks;
  telemetry::MetricId jobs_emitted;
  telemetry::MetricId norm_rows_in;
  telemetry::MetricId norm_rows_out;
  telemetry::MetricId dropped_invalid;
  telemetry::MetricId dropped_duplicate;
  telemetry::MetricId dropped_window;
  telemetry::MetricId dropped_sampled;
  telemetry::MetricId clamped_durations;
  telemetry::MetricId clamped_demands;

  static const TraceMetrics& get() {
    static const TraceMetrics m = [] {
      auto& reg = telemetry::global_registry();
      return TraceMetrics{
          .rows_read = reg.counter("trace.adapter.rows_read"),
          .rows_malformed = reg.counter("trace.adapter.rows_malformed"),
          .rows_filtered = reg.counter("trace.adapter.rows_filtered"),
          .unmatched_tasks = reg.counter("trace.adapter.unmatched_tasks"),
          .jobs_emitted = reg.counter("trace.adapter.jobs_emitted"),
          .norm_rows_in = reg.counter("trace.normalize.rows_in"),
          .norm_rows_out = reg.counter("trace.normalize.rows_out"),
          .dropped_invalid = reg.counter("trace.normalize.dropped_invalid"),
          .dropped_duplicate = reg.counter("trace.normalize.dropped_duplicate"),
          .dropped_window = reg.counter("trace.normalize.dropped_window"),
          .dropped_sampled = reg.counter("trace.normalize.dropped_sampled"),
          .clamped_durations = reg.counter("trace.normalize.clamped_durations"),
          .clamped_demands = reg.counter("trace.normalize.clamped_demands"),
      };
    }();
    return m;
  }
};

void publish_reports(const workload::trace::AdapterReport& adapter,
                     const workload::trace::NormalizeReport& normalize) {
  if (!telemetry::enabled()) return;
  const TraceMetrics& m = TraceMetrics::get();
  telemetry::count(m.rows_read, adapter.rows_read);
  telemetry::count(m.rows_malformed, adapter.rows_malformed);
  telemetry::count(m.rows_filtered, adapter.rows_filtered);
  telemetry::count(m.unmatched_tasks, adapter.unmatched_tasks);
  telemetry::count(m.jobs_emitted, adapter.jobs_emitted);
  telemetry::count(m.norm_rows_in, normalize.rows_in);
  telemetry::count(m.norm_rows_out, normalize.rows_out);
  telemetry::count(m.dropped_invalid, normalize.dropped_invalid);
  telemetry::count(m.dropped_duplicate, normalize.dropped_duplicate);
  telemetry::count(m.dropped_window, normalize.dropped_window);
  telemetry::count(m.dropped_sampled, normalize.dropped_sampled);
  telemetry::count(m.clamped_durations, normalize.clamped_durations);
  telemetry::count(m.clamped_demands, normalize.clamped_demands);
}
}  // namespace

double infer_horizon_s(const std::vector<sim::Job>& jobs) {
  double horizon = 0.0;
  for (const auto& j : jobs) horizon = std::max(horizon, j.arrival + j.duration);
  return horizon;
}

// ---- SyntheticTraceSource --------------------------------------------------

SyntheticTraceSource::SyntheticTraceSource(const workload::GeneratorOptions& options)
    : options_(options) {
  options_.validate();
}

Trace SyntheticTraceSource::produce() const {
  Trace t;
  t.jobs = workload::GoogleTraceGenerator(options_).generate();
  t.horizon_s = options_.horizon_s;
  t.stats = workload::compute_stats(t.jobs, t.horizon_s);
  return t;
}

std::string SyntheticTraceSource::describe() const {
  std::ostringstream os;
  os << "synthetic(jobs=" << options_.num_jobs << ", horizon=" << options_.horizon_s
     << "s, seed=" << options_.seed << ")";
  return os.str();
}

// ---- FileTraceSource -------------------------------------------------------

FileTraceSource::FileTraceSource(std::string path, double horizon_s)
    : path_(std::move(path)), horizon_s_(horizon_s) {
  if (path_.empty()) throw std::invalid_argument("FileTraceSource: empty path");
  if (horizon_s_ < 0.0) throw std::invalid_argument("FileTraceSource: negative horizon");
}

Trace FileTraceSource::produce() const {
  Trace t;
  t.jobs = workload::read_trace_file(path_);
  t.horizon_s = horizon_s_ > 0.0 ? horizon_s_ : infer_horizon_s(t.jobs);
  t.stats = workload::compute_stats(t.jobs, t.horizon_s);
  return t;
}

std::string FileTraceSource::describe() const { return "file(" + path_ + ")"; }

// ---- InMemoryTraceSource ---------------------------------------------------

InMemoryTraceSource::InMemoryTraceSource(std::vector<sim::Job> jobs, double horizon_s,
                                         std::string label)
    : label_(std::move(label)) {
  if (horizon_s < 0.0) throw std::invalid_argument("InMemoryTraceSource: negative horizon");
  trace_.jobs = std::move(jobs);
  trace_.horizon_s = horizon_s > 0.0 ? horizon_s : infer_horizon_s(trace_.jobs);
  trace_.stats = workload::compute_stats(trace_.jobs, trace_.horizon_s);
}

Trace InMemoryTraceSource::produce() const { return trace_; }

std::string InMemoryTraceSource::describe() const {
  return label_ + "(" + std::to_string(trace_.jobs.size()) + " jobs)";
}

// ---- CatalogTraceSource ----------------------------------------------------

CatalogTraceSource::CatalogTraceSource(std::string dataset) : dataset_(std::move(dataset)) {
  // Unknown names throw here (listing the known datasets), so a bad
  // scenario fails at construction instead of mid-sweep.
  workload::trace::TraceCatalog::builtin().entry(dataset_);
}

Trace CatalogTraceSource::produce() const {
  Trace t;
  workload::trace::AdapterReport adapter_report;
  workload::trace::NormalizeReport normalize_report;
  t.jobs = workload::trace::TraceCatalog::builtin().load(dataset_, &adapter_report,
                                                        &normalize_report);
  publish_reports(adapter_report, normalize_report);
  t.horizon_s = infer_horizon_s(t.jobs);
  t.stats = workload::compute_stats(t.jobs, t.horizon_s);
  return t;
}

std::string CatalogTraceSource::describe() const { return "catalog(" + dataset_ + ")"; }

// ---- CachedTraceSource -----------------------------------------------------

CachedTraceSource::CachedTraceSource(std::shared_ptr<const TraceSource> inner)
    : inner_(std::move(inner)) {
  if (inner_ == nullptr) throw std::invalid_argument("CachedTraceSource: null inner source");
}

Trace CachedTraceSource::produce() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!cache_.has_value()) {
    cache_ = inner_->produce();
    ++inner_productions_;
  }
  return *cache_;
}

std::string CachedTraceSource::describe() const { return "cached(" + inner_->describe() + ")"; }

std::size_t CachedTraceSource::inner_productions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inner_productions_;
}

std::shared_ptr<const TraceSource> make_cached(std::shared_ptr<const TraceSource> inner) {
  return std::make_shared<CachedTraceSource>(std::move(inner));
}

}  // namespace hcrl::core
