// Scenario: a named, self-contained experiment description.
//
// The paper's evaluation (§VII) is a grid of scenarios — policy pair ×
// cluster size × trace — so the experiment API treats "one cell of that
// grid" as a value: a name (for logs, errors and result tables), an
// ExperimentConfig, an optional TraceSource (null means "synthesize from
// config.trace"), and a scenario seed that re-derives every stochastic
// stream so sweeps can replicate a scenario under independent randomness.
//
// ScenarioRegistry maps names to scenario factories so examples, tests and
// the paper-figure benches say `registry.make("fig9/hierarchical", jobs)`
// instead of hand-assembling configs. `builtin()` carries the paper grid
// (fig8/fig9/table1 plus the tiny test-scale systems).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiment.hpp"
#include "src/core/trace_source.hpp"

namespace hcrl::policy {
struct SystemBundle;
}  // namespace hcrl::policy

namespace hcrl::core {

struct Scenario {
  std::string name;
  ExperimentConfig config;
  /// Workload producer; null synthesizes from `config.trace`. Shared (and
  /// usually cached) across scenarios when several systems must see the
  /// same trace.
  std::shared_ptr<const TraceSource> trace;
  /// Scenario seed. 0 keeps the seeds already in `config`; nonzero
  /// deterministically re-derives the trace seed (only when `trace` is
  /// null), config.allocator_seed, config.power_seed and the fault seed via
  /// SplitMix64.
  std::uint64_t seed = 0;

  /// Config with the scenario seed applied.
  ExperimentConfig materialized() const;
  /// `trace` if set, else a SyntheticTraceSource over the materialized
  /// config's generator options.
  std::shared_ptr<const TraceSource> effective_trace() const;
  /// Build the materialized config's policy pair (policy::build_system,
  /// which checks the config's own fields first); errors are prefixed with
  /// the scenario name so a failing cell of a sweep is identifiable. A run
  /// uses the pair built here, so this build is its check.
  policy::SystemBundle build_policies() const;
  /// build_policies, discarding the pair.
  void validate() const;
};

/// Paper-faithful base configuration: M servers, one-week-equivalent trace
/// scaled to `jobs` (the paper's 95,000-job week), seed 2011, offline
/// construction on the first quarter of the trace.
ExperimentConfig paper_experiment_config(std::size_t servers, std::size_t jobs);

/// Real-trace scenario recipe: run `source` at the tiny test scale
/// (6 servers, 2 groups) with pretraining on the first quarter of the
/// trace and checkpoints every 100 jobs, under the paper system preset
/// `system` (policy::apply_system). Backs `run_experiment --trace`; pass a
/// caching source — the pretrain sizing produces it once up front.
Scenario trace_scenario(std::shared_ptr<const TraceSource> source, const std::string& system);

/// trace_scenario over a workload::trace::TraceCatalog dataset
/// (a cached CatalogTraceSource). The same recipe backs the registry's
/// "<dataset>-sample" entries and `run_experiment --catalog`.
Scenario catalog_scenario(const std::string& dataset, const std::string& system);

/// Calibrated-synthetic twin: generator options fitted to the dataset's
/// fixture (workload::trace::calibrate, fit-only), run through the
/// synthetic generator instead of the trace itself. A nonzero `jobs`
/// rescales the twin to that many jobs at the fitted arrival rate — how a
/// few-hundred-job slice scales to a 95,000-job week; 0 keeps the
/// fixture's size.
Scenario calibrated_scenario(const std::string& dataset, const std::string& system,
                             std::size_t jobs);

class ScenarioRegistry {
 public:
  /// Factories take the trace scale in jobs; every other knob is fixed by
  /// the registered recipe.
  using Factory = std::function<Scenario(std::size_t jobs)>;

  /// Register a factory; throws on duplicate names.
  void add(const std::string& name, Factory factory);
  bool contains(const std::string& name) const;
  /// Build one scenario; throws std::invalid_argument on unknown names
  /// (the message lists the known ones).
  Scenario make(const std::string& name, std::size_t jobs) const;
  /// Build every scenario whose name starts with `prefix`, in registration
  /// order. Throws if nothing matches. A batch (run_outcomes) runs the
  /// group's cells with equal generator options on one cached trace.
  std::vector<Scenario> make_group(const std::string& prefix, std::size_t jobs) const;
  /// All registered names, registration order.
  std::vector<std::string> names() const;

  /// The built-in paper grid: "fig8/<system>" (M=30), "fig9/<system>"
  /// (M=40), "table1/m30/<system>", "table1/m40/<system>" for round-robin,
  /// drl-only and hierarchical; "tiny/<system>" for all six
  /// policy::system_presets() at test scale (6 servers). Real-cluster
  /// workloads ride along as
  /// "google2011-sample" / "alibaba2018-sample" (TraceCatalog fixture
  /// slices, hierarchical system, `jobs` ignored) and their
  /// "<dataset>-calibrated" synthetic twins (generator options fitted to
  /// the fixture via workload::trace::calibrate; `jobs` rescales the twin
  /// at the fitted arrival rate, 0 keeps the fixture's size).
  static const ScenarioRegistry& builtin();

 private:
  std::vector<std::string> order_;
  std::map<std::string, Factory> factories_;
};

/// Share trace materialization across `scenarios`: every group of
/// scenarios that (a) has no explicit source and (b) resolves to identical
/// generator options gets one shared CachedTraceSource. In-place;
/// run_outcomes calls it on every batch.
void share_synthetic_traces(std::vector<Scenario>& scenarios);

}  // namespace hcrl::core
