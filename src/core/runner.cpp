#include "src/core/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/common/log.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/core/global_tier.hpp"
#include "src/core/local_tier.hpp"
#include "src/policy/registry.hpp"
#include "src/sim/cluster.hpp"
#include "src/telemetry/profiler.hpp"
#include "src/telemetry/trace.hpp"

namespace hcrl::core {

void RunObserver::on_checkpoint(const Scenario&, const CheckpointRow&) {}
void RunObserver::on_complete(const Scenario&, const ExperimentResult&) {}

namespace {

sim::ClusterConfig cluster_config(const ExperimentConfig& cfg) {
  sim::ClusterConfig cc;
  cc.num_servers = cfg.num_servers;
  cc.server = cfg.server;
  return cc;
}

// ---- tail latency / SLA ----------------------------------------------------

std::vector<double> completed_latencies(const sim::Cluster& cluster) {
  std::vector<double> latencies;
  latencies.reserve(cluster.metrics().job_records().size());
  for (const sim::JobRecord& r : cluster.metrics().job_records()) {
    latencies.push_back(r.latency());
  }
  return latencies;
}

void fill_tail_metrics(ExperimentResult& result, std::vector<double> latencies,
                       double sla_latency_s) {
  if (latencies.empty()) return;
  if (sla_latency_s > 0.0) {
    result.sla_violations = static_cast<std::size_t>(std::count_if(
        latencies.begin(), latencies.end(), [&](double l) { return l > sla_latency_s; }));
  }
  // Lower-nearest-rank percentiles over every completed job (see
  // common::percentile).
  result.latency_p95_s = common::percentile(latencies, 0.95);
  result.latency_p99_s = common::percentile(latencies, 0.99);
}

// ---- telemetry -------------------------------------------------------------

struct RunnerMetrics {
  telemetry::MetricId scenarios;
  telemetry::MetricId checkpoints;

  static const RunnerMetrics& get() {
    static const RunnerMetrics m = [] {
      auto& reg = telemetry::global_registry();
      return RunnerMetrics{
          .scenarios = reg.counter("runner.scenarios"),
          .checkpoints = reg.counter("runner.checkpoints"),
      };
    }();
    return m;
  }
};

const telemetry::SpanDef& scenario_span() {
  static const telemetry::SpanDef def("runner.scenario");
  return def;
}
const telemetry::SpanDef& trace_load_span() {
  static const telemetry::SpanDef def("runner.trace_load");
  return def;
}
const telemetry::SpanDef& pretrain_span() {
  static const telemetry::SpanDef def("runner.pretrain");
  return def;
}
const telemetry::SpanDef& measured_run_span() {
  static const telemetry::SpanDef def("runner.measured_run");
  return def;
}

/// Serializes observer calls from concurrent workers.
class SerializedObserver final : public RunObserver {
 public:
  explicit SerializedObserver(RunObserver& inner) : inner_(inner) {}
  void on_checkpoint(const Scenario& scenario, const CheckpointRow& row) override {
    std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_checkpoint(scenario, row);
  }
  void on_complete(const Scenario& scenario, const ExperimentResult& result) override {
    std::lock_guard<std::mutex> lock(mutex_);
    inner_.on_complete(scenario, result);
  }

 private:
  RunObserver& inner_;
  std::mutex mutex_;
};

// ---- one cell --------------------------------------------------------------

/// run_scenario after the build: `policies` is the pair
/// Scenario::build_policies built for `scenario`.
ExperimentResult run_cell(const Scenario& scenario, policy::SystemBundle policies,
                          RunObserver* observer) {
  const ExperimentConfig cfg = scenario.materialized();

  telemetry::Span scenario_guard(scenario_span(), scenario.name);
  if (telemetry::enabled()) telemetry::count(RunnerMetrics::get().scenarios);

  const auto wall_start = std::chrono::steady_clock::now();

  // Watchdog: cooperative wall-clock deadline checked every 64 events. The
  // thrown runtime_error surfaces as a per-cell error ScenarioOutcome through
  // run_outcomes(), so one hung cell never hangs the whole grid.
  std::uint64_t watchdog_tick = 0;
  const auto check_watchdog = [&] {
    if (cfg.watchdog_s <= 0.0 || (++watchdog_tick & 0x3F) != 0) return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    if (elapsed > cfg.watchdog_s) {
      throw std::runtime_error("watchdog: scenario '" + scenario.name + "' exceeded " +
                               std::to_string(cfg.watchdog_s) + " s (wall " +
                               std::to_string(elapsed) + " s)");
    }
  };

  Trace trace = [&] {
    telemetry::Span span(trace_load_span(), scenario.name);
    return scenario.effective_trace()->produce();
  }();

  // ---- offline construction phase (DRL systems only) -----------------------
  if (policies.drl != nullptr && cfg.pretrain_jobs > 0) {
    telemetry::Span span(pretrain_span(), scenario.name);
    const std::size_t n = std::min(cfg.pretrain_jobs, trace.jobs.size());
    std::vector<sim::Job> prefix(trace.jobs.begin(),
                                 trace.jobs.begin() + static_cast<std::ptrdiff_t>(n));
    sim::Cluster warmup(cluster_config(cfg), *policies.allocation, *policies.power);
    warmup.load_jobs(std::move(prefix));
    // Fault-free by design (the offline phase models a clean cluster); the
    // step loop only adds the watchdog check, which never perturbs results.
    while (warmup.step()) check_watchdog();
    policies.drl->end_episode();
    common::log_info() << scenario.name << ": pretrained on " << n << " jobs ("
                       << policies.drl->train_steps() << " gradient steps)";
  }

  // ---- measured run ---------------------------------------------------------
  if (policies.drl != nullptr) policies.drl->set_learning(cfg.learn_during_run);
  if (policies.local_rl != nullptr) policies.local_rl->set_learning(cfg.learn_during_run);

  ExperimentResult result;
  result.allocator = cfg.allocator;
  result.power = cfg.power;
  std::size_t next_checkpoint =
      cfg.checkpoint_every_jobs > 0 ? cfg.checkpoint_every_jobs : static_cast<std::size_t>(-1);

  // Deterministic fault injection for the measured run (see
  // src/sim/fault/fault.hpp). The schedule is a pure function of
  // (faults.seed, num_servers, horizon): faults.seed == 0 derives one from
  // the trace seed so faulty scenarios stay reproducible without extra keys.
  std::unique_ptr<sim::FaultInjector> faults;
  if (cfg.faults.enabled()) {
    sim::FaultConfig fc = cfg.faults;
    if (fc.seed == 0) fc.seed = common::SplitMix64(cfg.trace.seed ^ 0xFA017FA017FA017FULL).next();
    const double horizon =
        (trace.jobs.empty() ? 0.0 : trace.jobs.back().arrival) + fc.horizon_padding_s;
    faults = std::make_unique<sim::FaultInjector>(fc, cfg.num_servers, horizon);
  }

  {
    sim::Cluster cluster(cluster_config(cfg), *policies.allocation, *policies.power);
    cluster.install_faults(faults.get());
    cluster.load_jobs(std::move(trace.jobs));
    telemetry::Span span(measured_run_span(), scenario.name);
    while (cluster.step()) {
      check_watchdog();
      if (cluster.jobs_completed() >= next_checkpoint) {
        const auto snap = cluster.snapshot();
        const CheckpointRow row{snap.jobs_completed, snap.now, snap.accumulated_latency_s,
                                snap.energy_kwh(), snap.average_power_watts};
        result.series.push_back(row);
        if (observer != nullptr) observer->on_checkpoint(scenario, row);
        if (telemetry::enabled()) telemetry::count(RunnerMetrics::get().checkpoints);
        next_checkpoint += cfg.checkpoint_every_jobs;
      }
    }
    result.final_snapshot = cluster.snapshot();
    // Finite but huge wattages or transition times overflow the exact
    // integrals to inf or NaN; report that instead of printing it.
    if (!std::isfinite(result.final_snapshot.energy_joules) ||
        !std::isfinite(result.final_snapshot.accumulated_latency_s)) {
      throw std::invalid_argument(
          scenario.name + ": the run's energy or latency total is not finite; check "
          "server.idle_watts, server.peak_watts, server.transition_watts, server.t_on and "
          "server.t_off");
    }
    result.servers_on_at_end = cluster.servers_on();
    fill_tail_metrics(result, completed_latencies(cluster), cfg.sla_latency_s);
  }

  result.trace_stats = trace.stats;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  if (observer != nullptr) observer->on_complete(scenario, result);
  return result;
}

}  // namespace

ExperimentResult run_scenario(const Scenario& scenario, RunObserver* observer) {
  return run_cell(scenario, scenario.build_policies(), observer);
}

// ---- the batch -------------------------------------------------------------

std::vector<ScenarioOutcome> run_outcomes(const std::vector<Scenario>& scenarios,
                                          std::size_t workers, RunObserver* observer) {
  std::vector<Scenario> cells = scenarios;
  share_synthetic_traces(cells);
  // Every pair is built before any cell runs: the build is the check, so a
  // bad cell fails the batch before any trace is produced.
  std::vector<policy::SystemBundle> pairs;
  pairs.reserve(cells.size());
  for (const Scenario& cell : cells) pairs.push_back(cell.build_policies());

  std::vector<ScenarioOutcome> outcomes(cells.size());
  std::atomic<std::size_t> next{0};
  const auto drain = [&](RunObserver* cell_observer) {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= cells.size()) return;
      try {
        outcomes[i].result = run_cell(cells[i], std::move(pairs[i]), cell_observer);
      } catch (...) {
        outcomes[i].error = std::current_exception();
      }
    }
  };

  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, cells.size());
  if (workers <= 1) {
    drain(observer);
    return outcomes;
  }

  std::optional<SerializedObserver> serialized;
  if (observer != nullptr) serialized.emplace(*observer);
  RunObserver* worker_observer = serialized.has_value() ? &*serialized : nullptr;
  // jthread joins on destruction, so a failed thread start joins the
  // workers already running before the exception leaves.
  std::vector<std::jthread> pool;
  pool.reserve(workers);
  for (std::size_t t = 0; t < workers; ++t) {
    pool.emplace_back([&, t] {
      telemetry::set_thread_name("runner-worker-" + std::to_string(t));
      telemetry::ShardScope scope(telemetry::global_registry().acquire_shard());
      drain(worker_observer);
    });
  }
  for (std::jthread& t : pool) t.join();
  return outcomes;
}

std::vector<ExperimentResult> run_batch(const std::vector<Scenario>& scenarios,
                                        std::size_t workers, RunObserver* observer) {
  std::vector<ScenarioOutcome> outcomes = run_outcomes(scenarios, workers, observer);
  std::vector<ExperimentResult> results;
  results.reserve(outcomes.size());
  for (ScenarioOutcome& o : outcomes) {
    if (o.error != nullptr) std::rethrow_exception(o.error);
    results.push_back(std::move(o.result));
  }
  return results;
}

// ---- stock observers -------------------------------------------------------

CsvCheckpointObserver::CsvCheckpointObserver(std::ostream& out) : out_(out) {
  out_ << "scenario,jobs,sim_time_s,acc_latency_s,energy_kwh,avg_power_w\n";
}

void CsvCheckpointObserver::on_checkpoint(const Scenario& scenario, const CheckpointRow& row) {
  out_ << scenario.name << ',' << row.jobs_completed << ',' << row.sim_time_s << ','
       << row.accumulated_latency_s << ',' << row.energy_kwh << ',' << row.average_power_w
       << '\n';
}

}  // namespace hcrl::core
