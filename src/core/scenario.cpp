#include "src/core/scenario.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/common/rng.hpp"
#include "src/policy/registry.hpp"
#include "src/sim/types.hpp"
#include "src/workload/trace/calibrate.hpp"

namespace hcrl::core {

// ---- Scenario --------------------------------------------------------------

ExperimentConfig Scenario::materialized() const {
  ExperimentConfig cfg = config;
  if (seed != 0) {
    // One SplitMix64 stream per scenario: trace, allocator, power policy and
    // faults get independent seeds, all reproducible from the scenario seed.
    common::SplitMix64 sm(seed);
    cfg.trace.seed = sm.next();  // only reaches the workload when trace == null
    cfg.allocator_seed = sm.next();
    cfg.power_seed = sm.next();
    cfg.faults.seed = sm.next();  // ignored by the runner when faults are off
  }
  return cfg;
}

std::shared_ptr<const TraceSource> Scenario::effective_trace() const {
  if (trace != nullptr) return trace;
  return std::make_shared<SyntheticTraceSource>(materialized().trace);
}

policy::SystemBundle Scenario::build_policies() const {
  try {
    return policy::build_system(materialized());
  } catch (const std::exception& e) {
    throw std::invalid_argument("scenario '" + name + "': " + e.what());
  }
}

void Scenario::validate() const { (void)build_policies(); }

// ---- helpers ---------------------------------------------------------------

ExperimentConfig paper_experiment_config(std::size_t servers, std::size_t jobs) {
  ExperimentConfig cfg;
  cfg.num_servers = servers;
  // K must divide M; the paper varies K in 2..4 (30 -> 3 groups, 40 -> 4).
  cfg.num_groups = servers % 3 == 0 ? 3 : (servers % 4 == 0 ? 4 : 2);
  cfg.trace.num_jobs = jobs;
  cfg.trace.horizon_s = sim::kSecondsPerWeek * static_cast<double>(jobs) / 95000.0;
  cfg.trace.seed = 2011;  // the Google trace month
  cfg.pretrain_jobs = jobs / 4;
  cfg.checkpoint_every_jobs = 0;
  return cfg;
}

namespace {

/// The tiny test-scale recipe: 6 servers in 2 groups, a checkpoint every
/// 100 jobs, and pretraining on the first quarter of a `jobs`-job trace.
void apply_tiny_scale(ExperimentConfig& cfg, std::size_t jobs) {
  cfg.num_servers = 6;
  cfg.num_groups = 2;
  cfg.pretrain_jobs = jobs / 4;
  cfg.checkpoint_every_jobs = 100;
}

}  // namespace

Scenario trace_scenario(std::shared_ptr<const TraceSource> source, const std::string& system) {
  if (source == nullptr) throw std::invalid_argument("trace_scenario: null source");
  Scenario s;
  policy::apply_system(s.config, system);
  // Sizing the pretrain prefix costs one produce() here; pass a caching
  // source (make_cached) so the run reuses it.
  apply_tiny_scale(s.config, source->produce().jobs.size());
  s.trace = std::move(source);
  return s;
}

Scenario catalog_scenario(const std::string& dataset, const std::string& system) {
  return trace_scenario(make_cached(std::make_shared<CatalogTraceSource>(dataset)), system);
}

Scenario calibrated_scenario(const std::string& dataset, const std::string& system,
                             std::size_t jobs) {
  const Trace fixture = CatalogTraceSource(dataset).produce();
  workload::trace::CalibrationOptions cal;
  cal.verify = false;  // only the fitted options are needed here
  workload::GeneratorOptions fitted = workload::trace::calibrate(fixture.jobs, cal).options;
  if (jobs > 0 && jobs != fitted.num_jobs) {
    fitted.horizon_s *= static_cast<double>(jobs) / static_cast<double>(fitted.num_jobs);
    fitted.num_jobs = jobs;
  }
  Scenario s;
  policy::apply_system(s.config, system);
  apply_tiny_scale(s.config, fitted.num_jobs);
  s.config.trace = fitted;
  return s;
}

void share_synthetic_traces(std::vector<Scenario>& scenarios) {
  std::vector<std::pair<workload::GeneratorOptions, std::shared_ptr<const TraceSource>>> groups;
  for (Scenario& s : scenarios) {
    if (s.trace != nullptr) continue;
    const workload::GeneratorOptions opts = s.materialized().trace;
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == opts; });
    if (it == groups.end()) {
      groups.emplace_back(opts, make_cached(std::make_shared<SyntheticTraceSource>(opts)));
      it = std::prev(groups.end());
    }
    s.trace = it->second;
  }
}

// ---- ScenarioRegistry ------------------------------------------------------

void ScenarioRegistry::add(const std::string& name, Factory factory) {
  if (factory == nullptr) {
    throw std::invalid_argument("ScenarioRegistry: null factory for '" + name + "'");
  }
  if (!factories_.emplace(name, std::move(factory)).second) {
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario '" + name + "'");
  }
  order_.push_back(name);
}

bool ScenarioRegistry::contains(const std::string& name) const {
  return factories_.count(name) != 0;
}

Scenario ScenarioRegistry::make(const std::string& name, std::size_t jobs) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& n : order_) known += (known.empty() ? "" : ", ") + n;
    throw std::invalid_argument("ScenarioRegistry: unknown scenario '" + name +
                                "' (known: " + known + ")");
  }
  Scenario s = it->second(jobs);
  if (s.name.empty()) s.name = name;
  return s;
}

std::vector<Scenario> ScenarioRegistry::make_group(const std::string& prefix,
                                                   std::size_t jobs) const {
  std::vector<Scenario> group;
  for (const auto& name : order_) {
    if (name.rfind(prefix, 0) == 0) group.push_back(make(name, jobs));
  }
  if (group.empty()) {
    throw std::invalid_argument("ScenarioRegistry: no scenario matches prefix '" + prefix + "'");
  }
  return group;
}

std::vector<std::string> ScenarioRegistry::names() const { return order_; }

namespace {

Scenario paper_scenario(std::size_t servers, const std::string& system, std::size_t jobs,
                        bool with_checkpoints) {
  Scenario s;
  s.config = paper_experiment_config(servers, jobs);
  policy::apply_system(s.config, system);
  if (with_checkpoints) {
    // ~19 plot points, like the paper's figures.
    s.config.checkpoint_every_jobs = std::max<std::size_t>(1, jobs / 19);
  }
  return s;
}

Scenario tiny_scenario(const std::string& system, std::size_t jobs) {
  Scenario s;
  policy::apply_system(s.config, system);
  apply_tiny_scale(s.config, jobs);
  s.config.trace.num_jobs = jobs;
  s.config.trace.horizon_s = static_cast<double>(jobs) * 6.4;  // paper-like rate
  s.config.trace.seed = 21;
  return s;
}

/// Fault-injected variant knobs shared by every `*-faulty` registry entry:
/// crashes every ~4 h per server (10 min repair), evictions every ~6 h, and
/// the default bounded-retry/backoff policy. `faults.seed` is pinned because
/// the tiny scenarios run with Scenario::seed == 0 (no per-scenario stream).
void add_faults(ExperimentConfig& cfg) {
  cfg.faults.mtbf_s = 4.0 * sim::kSecondsPerHour;
  cfg.faults.mttr_s = 600.0;
  cfg.faults.evict_every_s = 6.0 * sim::kSecondsPerHour;
  cfg.faults.seed = 1045;
}

ScenarioRegistry build_builtin() {
  ScenarioRegistry r;
  // The paper's three systems per grid: Figs. 8 and 9 with checkpoints,
  // Table I without.
  struct PaperGrid {
    const char* prefix;
    std::size_t servers;
    bool checkpoints;
  };
  for (const PaperGrid& g : {PaperGrid{"fig8/", 30, true}, PaperGrid{"fig9/", 40, true},
                             PaperGrid{"table1/m30/", 30, false},
                             PaperGrid{"table1/m40/", 40, false}}) {
    for (const std::string system : {"round-robin", "drl-only", "hierarchical"}) {
      r.add(g.prefix + system, [g, system](std::size_t jobs) {
        return paper_scenario(g.servers, system, jobs, g.checkpoints);
      });
    }
  }
  for (const policy::SystemPreset& preset : policy::system_presets()) {
    const std::string system = preset.name;
    r.add("tiny/" + system, [system](std::size_t jobs) { return tiny_scenario(system, jobs); });
  }
  // Fault-injected twins of the tiny sweep (deterministic crash/evict plans;
  // see src/sim/fault/fault.hpp), plus one paper-scale faulty cell that rides
  // into bench_table1 via make_group("table1/").
  for (const policy::SystemPreset& preset : policy::system_presets()) {
    const std::string system = preset.name;
    r.add("tiny/" + system + "-faulty", [system](std::size_t jobs) {
      Scenario s = tiny_scenario(system, jobs);
      add_faults(s.config);
      return s;
    });
  }
  r.add("table1/m30/hierarchical-faulty", [](std::size_t jobs) {
    Scenario s = paper_scenario(30, "hierarchical", jobs, false);
    add_faults(s.config);
    return s;
  });
  // Real-cluster workloads from the TraceCatalog fixtures, plus their
  // calibrated-synthetic twins (workload::trace::calibrate fit to the same
  // fixture). The paper's own system (hierarchical) runs on each.
  for (const char* dataset : {"google2011-sample", "alibaba2018-sample"}) {
    r.add(dataset, [dataset](std::size_t) {
      return catalog_scenario(dataset, "hierarchical");
    });
    const std::string base = dataset;
    r.add(base.substr(0, base.rfind("-sample")) + "-calibrated", [dataset](std::size_t jobs) {
      return calibrated_scenario(dataset, "hierarchical", jobs);
    });
  }
  return r;
}

}  // namespace

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry registry = build_builtin();
  return registry;
}

}  // namespace hcrl::core
