// TraceSource: one polymorphic producer for every kind of workload trace,
// so a scenario can run a synthetic trace, a real one, or one shared with
// other scenarios. The producer is a first-class value:
//
//   * SyntheticTraceSource  — wraps workload::GeneratorOptions;
//   * FileTraceSource       — reads a workload::trace_io CSV file;
//   * InMemoryTraceSource   — wraps an already-materialized job vector;
//   * CachedTraceSource     — decorator that produces the inner trace once
//                             and hands out copies; sharing one cached
//                             source across scenarios is how a comparison
//                             runs several systems on the *same* trace,
//                             explicitly. Thread-safe, so a batch's workers
//                             can race several scenarios onto one source.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/types.hpp"
#include "src/workload/generator.hpp"

namespace hcrl::core {

/// A fully-materialized workload: jobs sorted by arrival plus the horizon
/// they were drawn over and their summary statistics.
struct Trace {
  std::vector<sim::Job> jobs;
  double horizon_s = 0.0;
  workload::TraceStats stats;
};

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Materialize the full trace. Deterministic: every call returns the same
  /// jobs. Must be safe to call from several threads at once.
  virtual Trace produce() const = 0;

  /// Human-readable description for logs and error messages.
  virtual std::string describe() const = 0;
};

/// Synthetic Google-like trace (workload::GoogleTraceGenerator).
class SyntheticTraceSource final : public TraceSource {
 public:
  explicit SyntheticTraceSource(const workload::GeneratorOptions& options);

  Trace produce() const override;
  std::string describe() const override;

  const workload::GeneratorOptions& options() const noexcept { return options_; }

 private:
  workload::GeneratorOptions options_;
};

/// Jobs read from a workload::trace_io CSV file. `horizon_s` = 0 infers the
/// horizon from the trace (latest arrival + that job's duration).
class FileTraceSource final : public TraceSource {
 public:
  explicit FileTraceSource(std::string path, double horizon_s = 0.0);

  Trace produce() const override;
  std::string describe() const override;

  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  double horizon_s_;
};

/// An already-materialized job vector (tests, spliced traces, replay of a
/// previous run). `horizon_s` = 0 infers as in FileTraceSource.
class InMemoryTraceSource final : public TraceSource {
 public:
  InMemoryTraceSource(std::vector<sim::Job> jobs, double horizon_s = 0.0,
                      std::string label = "in-memory");

  Trace produce() const override;
  std::string describe() const override;

 private:
  Trace trace_;
  std::string label_;
};

/// A named dataset from workload::trace::TraceCatalog::builtin() — bundled
/// fixture slices of real cluster traces (Google 2011, Alibaba 2018, Azure
/// 2017), parsed and normalized on every produce(); wrap it in make_cached
/// to parse once. The dataset name is validated at construction; the
/// fixture file is only touched by produce().
class CatalogTraceSource final : public TraceSource {
 public:
  explicit CatalogTraceSource(std::string dataset);

  Trace produce() const override;
  std::string describe() const override;

  const std::string& dataset() const noexcept { return dataset_; }

 private:
  std::string dataset_;
};

/// Decorator: produce the inner trace exactly once, then serve copies.
class CachedTraceSource final : public TraceSource {
 public:
  explicit CachedTraceSource(std::shared_ptr<const TraceSource> inner);

  Trace produce() const override;
  std::string describe() const override;

  /// Number of times the inner source has actually been asked to produce
  /// (0 or 1 after construction; observable for tests).
  std::size_t inner_productions() const;

 private:
  std::shared_ptr<const TraceSource> inner_;
  mutable std::mutex mutex_;
  mutable std::optional<Trace> cache_;
  mutable std::size_t inner_productions_ = 0;
};

/// Convenience: wrap a source in a shared cache.
std::shared_ptr<const TraceSource> make_cached(std::shared_ptr<const TraceSource> inner);

/// Horizon inference used by File/InMemory sources: max(arrival + duration)
/// over the jobs (0 for an empty trace).
double infer_horizon_s(const std::vector<sim::Job>& jobs);

}  // namespace hcrl::core
