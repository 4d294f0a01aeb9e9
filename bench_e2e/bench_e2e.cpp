// End-to-end benchmark: one named workload per process, on one thread.
//
//   bench_e2e --workload NAME --seed S [--seconds T] [--scale F]
//             [--traced [--chrome-trace PATH]]
//
// A run replays kTracesPerRun core::Scenarios of the workload, whose
// scenario seeds are drawn from S, so every trace, agent and fault plan
// derives from S. One repetition runs one scenario through
// core::run_scenario, exactly as run_experiment does. A round runs each
// scenario once; rounds repeat while another fits in T seconds (at least
// one). Host time is that of the fastest repetition, set-up time the median
// over all of them. Simulated metrics pool the run's scenarios (one trace
// alone varies too much from seed to seed to bound a regression), and every
// round must reproduce them bit for bit. --scale multiplies the job count at
// a fixed per-server arrival rate.
//
// --traced pairs every untraced repetition with an instrumented twin of
// run_scenario's phases (build, pretrain, measured run) defined in this
// file: timing decorators wrap both policy tiers and the telemetry registry
// is on. The twin must reproduce the untraced simulated metrics bit for bit.
// It reports the per-layer metrics (medians over repetitions) and the
// tracing overhead in place of the end-to-end set.
//
// Output is one JSON line:
//   {"workload":..,"seed":..,"scale":..,"traced":..,"correct":..,
//    "attempted":..,"failed":..,"metrics":{"<name>":{"value":..,"unit":".."}}}
// `attempted` counts repetitions and `failed` those whose checks failed.
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/log.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/core/decision_service.hpp"
#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/nn/matrix.hpp"
#include "src/policy/registry.hpp"
#include "src/sim/cluster.hpp"
#include "src/telemetry/profiler.hpp"
#include "src/telemetry/registry.hpp"
#include "src/telemetry/trace.hpp"

namespace {

using namespace hcrl;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kTracesPerRun = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- workloads --------------------------------------------------------------

/// Non-learning fleet: the paper's per-server arrival rate (95,000 jobs a
/// week per 30 servers) on `servers` machines, 60 s fixed idle timeout.
core::ExperimentConfig fleet_config(std::size_t servers, const char* allocator,
                                    std::size_t jobs) {
  core::ExperimentConfig cfg;
  cfg.system = core::SystemKind::kRoundRobin;
  cfg.allocator = allocator;
  cfg.power = "fixed-timeout";
  cfg.fixed_timeout_s = 60.0;
  cfg.num_servers = servers;
  cfg.num_groups = 1;  // read only by the DRL tier
  cfg.trace.num_jobs = jobs;
  cfg.trace.horizon_s = sim::kSecondsPerWeek * static_cast<double>(jobs) / 95000.0 * 30.0 /
                        static_cast<double>(servers);
  cfg.pretrain_jobs = 0;
  cfg.checkpoint_every_jobs = 0;
  return cfg;
}

struct Workload {
  const char* name;
  std::size_t jobs;  // at --scale 1
  core::Scenario (*make)(std::size_t jobs);
};

// Why these four: each loads a different layer and leaves others idle, so
// an optimisation of one layer has a workload that shows it and one that
// must not move (see bench_e2e/README.md for the full map).
const Workload kWorkloads[] = {
    // Engine and trace generation only: no learning, no faults, and a
    // trace-only router, so sim/ and workload/ do almost all the work.
    {"fleet-rr", 600'000,
     [](std::size_t jobs) {
       core::Scenario s;
       s.config = fleet_config(1000, "round-robin", jobs);
       return s;
     }},
    // Allocator scan over ClusterView plus the engine's crash, revoke and
    // retry paths, with the registry's *-faulty fault rates.
    {"fleet-bestfit-faulty", 150'000,
     [](std::size_t jobs) {
       core::Scenario s;
       s.config = fleet_config(500, "best-fit", jobs);
       s.config.faults.mtbf_s = 4.0 * sim::kSecondsPerHour;
       s.config.faults.mttr_s = 600.0;
       s.config.faults.evict_every_s = 6.0 * sim::kSecondsPerHour;
       return s;
     }},
    // The paper's system: DRL global tier, RL/LSTM local tier, online
    // training; core, rl and nn dominate and the engine sees few events.
    {"paper-hier-m30", 4'000,
     [](std::size_t jobs) {
       return core::ScenarioRegistry::builtin().make("table1/m30/hierarchical", jobs);
     }},
    // Global tier only (K = 4 groups) on the f32 GEMM path, no LSTM tier.
    {"paper-drl-m40-f32", 6'000,
     [](std::size_t jobs) {
       core::Scenario s = core::ScenarioRegistry::builtin().make("table1/m40/drl-only", jobs);
       s.config.precision = nn::Precision::kF32;
       return s;
     }},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

core::Scenario make_scenario(const Workload& w, std::uint64_t seed, double scale) {
  const auto jobs = static_cast<std::size_t>(
      std::max(1.0, std::round(static_cast<double>(w.jobs) * scale)));
  core::Scenario s = w.make(jobs);
  s.name = w.name;
  s.seed = seed;
  s.config.gemm_threads = 1;
  return s;
}

// ---- correctness ------------------------------------------------------------

/// Appends one message per failed check of a finished run to `errors`.
void check_result(const core::ExperimentResult& r, bool faults_on,
                  std::vector<std::string>& errors) {
  const sim::MetricsSnapshot& s = r.final_snapshot;
  const std::size_t trace_jobs = r.trace_stats.num_jobs;
  if (s.jobs_completed + s.faults.jobs_lost != trace_jobs) {
    errors.push_back("completed " + std::to_string(s.jobs_completed) + " + lost " +
                     std::to_string(s.faults.jobs_lost) + " != trace jobs " +
                     std::to_string(trace_jobs));
  }
  if (!faults_on && s.faults.jobs_lost != 0) errors.push_back("jobs lost without faults");
  for (const double v : {s.energy_joules, s.accumulated_latency_s, r.latency_p95_s,
                         r.latency_p99_s}) {
    if (!std::isfinite(v) || v < 0.0) {
      errors.push_back("energy or latency is negative or not finite");
      break;
    }
  }
  if (r.latency_p99_s < r.latency_p95_s) errors.push_back("p99 latency < p95 latency");
}

/// Every simulated output a pure host-side speed-up must leave unchanged.
bool same_simulation(const core::ExperimentResult& a, const core::ExperimentResult& b) {
  const sim::MetricsSnapshot& x = a.final_snapshot;
  const sim::MetricsSnapshot& y = b.final_snapshot;
  return x.now == y.now && x.jobs_arrived == y.jobs_arrived &&
         x.jobs_completed == y.jobs_completed && x.energy_joules == y.energy_joules &&
         x.accumulated_latency_s == y.accumulated_latency_s &&
         x.reliability_penalty == y.reliability_penalty &&
         x.faults.crashes == y.faults.crashes && x.faults.evictions == y.faults.evictions &&
         x.faults.jobs_killed == y.faults.jobs_killed && x.faults.bounces == y.faults.bounces &&
         x.faults.retries == y.faults.retries && x.faults.jobs_lost == y.faults.jobs_lost &&
         a.latency_p95_s == b.latency_p95_s && a.latency_p99_s == b.latency_p99_s &&
         a.trace_stats.num_jobs == b.trace_stats.num_jobs;
}

// ---- untraced repetition ------------------------------------------------------

/// Times produce() of the scenario's own trace source: the set-up cost of a
/// run, measured inside run_scenario without changing what it executes.
class TimedTraceSource final : public core::TraceSource {
 public:
  explicit TimedTraceSource(std::shared_ptr<const core::TraceSource> inner)
      : inner_(std::move(inner)) {}

  core::Trace produce() const override {
    const auto t0 = Clock::now();
    core::Trace trace = inner_->produce();
    seconds_ = seconds_since(t0);  // single-threaded: one scenario per process
    return trace;
  }
  std::string describe() const override { return inner_->describe(); }
  double seconds() const noexcept { return seconds_; }

 private:
  std::shared_ptr<const core::TraceSource> inner_;
  mutable double seconds_ = 0.0;
};

struct UntracedRep {
  core::ExperimentResult result;
  double wall_s = 0.0;
  double setup_s = 0.0;
};

UntracedRep run_untraced(core::Scenario scenario) {
  const auto timed = std::make_shared<TimedTraceSource>(scenario.effective_trace());
  scenario.trace = timed;
  const auto t0 = Clock::now();
  core::ExperimentResult result = core::run_scenario(scenario);
  return {std::move(result), seconds_since(t0), timed->seconds()};
}

// ---- traced twin of run_scenario ---------------------------------------------

/// Forwards every AllocationPolicy hook, timing the calls.
class TimedAllocation final : public sim::AllocationPolicy {
 public:
  explicit TimedAllocation(sim::AllocationPolicy& inner) : inner_(inner) {}

  sim::ServerId select_server(const sim::ClusterView& cluster, const sim::Job& job) override {
    ++calls_;
    const auto t0 = Clock::now();
    const sim::ServerId target = inner_.select_server(cluster, job);
    seconds_ += seconds_since(t0);
    return target;
  }
  void on_simulation_end(const sim::ClusterView& cluster, sim::Time now) override {
    const auto t0 = Clock::now();
    inner_.on_simulation_end(cluster, now);
    seconds_ += seconds_since(t0);
  }
  RoutingMode routing_mode() const override { return inner_.routing_mode(); }
  std::string name() const override { return inner_.name(); }

  std::uint64_t calls() const noexcept { return calls_; }
  double seconds() const noexcept { return seconds_; }

 private:
  sim::AllocationPolicy& inner_;
  std::uint64_t calls_ = 0;
  double seconds_ = 0.0;
};

/// Forwards every PowerPolicy hook, timing all but the per-step
/// has_staged_decisions() probe. Idle decisions are counted at defer_idle,
/// which the server calls for every idle entry.
class TimedPower final : public sim::PowerPolicy {
 public:
  explicit TimedPower(sim::PowerPolicy& inner) : inner_(inner) {}

  double on_idle(const sim::Server& server, sim::Time now) override {
    const auto t0 = Clock::now();
    const double timeout = inner_.on_idle(server, now);
    seconds_ += seconds_since(t0);
    return timeout;
  }
  bool defer_idle(sim::Server& server, sim::Time now, sim::EventQueue& queue) override {
    ++decisions_;
    const auto t0 = Clock::now();
    const bool staged = inner_.defer_idle(server, now, queue);
    seconds_ += seconds_since(t0);
    return staged;
  }
  bool has_staged_decisions() const override { return inner_.has_staged_decisions(); }
  void flush_decisions() override {
    const auto t0 = Clock::now();
    inner_.flush_decisions();
    const double dt = seconds_since(t0);
    seconds_ += dt;
    flush_seconds_ += dt;
  }
  void on_arrival(const sim::Server& server, const sim::Job& job, sim::Time now) override {
    const auto t0 = Clock::now();
    inner_.on_arrival(server, job, now);
    seconds_ += seconds_since(t0);
  }
  bool shard_parallel_safe() const override { return inner_.shard_parallel_safe(); }
  std::string name() const override { return inner_.name(); }

  std::uint64_t decisions() const noexcept { return decisions_; }
  double seconds() const noexcept { return seconds_; }
  double flush_seconds() const noexcept { return flush_seconds_; }

 private:
  sim::PowerPolicy& inner_;
  std::uint64_t decisions_ = 0;
  double seconds_ = 0.0;
  double flush_seconds_ = 0.0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct TracedRep {
  core::ExperimentResult result;
  double wall_s = 0.0;
  std::vector<Metric> layers;
};

sim::ClusterConfig cluster_config(const core::ExperimentConfig& cfg) {
  sim::ClusterConfig cc;
  cc.num_servers = cfg.num_servers;
  cc.server = cfg.server;
  return cc;
}

/// run_scenario's phases, re-stated here so the bench can wrap the policies
/// and time each phase without tracing inside src/. Keep in step with
/// src/core/runner.cpp: the simulated metrics must match it bit for bit.
TracedRep run_traced(const core::Scenario& scenario, std::vector<std::string>& errors) {
  static const telemetry::SpanDef kGenerate("bench.generate");
  static const telemetry::SpanDef kBuild("bench.build");
  static const telemetry::SpanDef kPretrain("bench.pretrain");
  static const telemetry::SpanDef kMeasured("bench.measured_run");

  scenario.validate();
  const core::ExperimentConfig cfg = scenario.materialized();
  if (cfg.shards != 0) throw std::logic_error("bench_e2e: the twin covers the serial engine");
  if (cfg.gemm_threads > 0) nn::set_gemm_threads(cfg.gemm_threads);

  telemetry::MetricRegistry& registry = telemetry::global_registry();
  registry.reset();
  telemetry::set_enabled(true);
  const auto wall_start = Clock::now();

  core::Trace trace = [&] {
    telemetry::Span span(kGenerate, scenario.name);
    return scenario.effective_trace()->produce();
  }();
  std::size_t trace_bytes = trace.jobs.size() * sizeof(sim::Job);
  for (const sim::Job& j : trace.jobs) trace_bytes += j.demand.dims() * sizeof(double);

  policy::SystemBundle policies;
  core::DecisionService decision_service;
  {
    telemetry::Span span(kBuild, scenario.name);
    policies = policy::build_system(cfg);
    if (cfg.batch_decisions) {
      if (policies.drl != nullptr) policies.drl->set_decision_service(&decision_service);
      if (policies.local_rl != nullptr) policies.local_rl->set_decision_service(&decision_service);
    }
  }
  TimedAllocation allocation(*policies.allocation);
  TimedPower power(*policies.power);

  {
    telemetry::Span span(kPretrain, scenario.name);
    if (policies.drl != nullptr && cfg.pretrain_jobs > 0) {
      const std::size_t n = std::min(cfg.pretrain_jobs, trace.jobs.size());
      std::vector<sim::Job> prefix(trace.jobs.begin(),
                                   trace.jobs.begin() + static_cast<std::ptrdiff_t>(n));
      sim::Cluster warmup(cluster_config(cfg), allocation, power);
      warmup.load_jobs(std::move(prefix));
      while (warmup.step()) {
      }
      policies.drl->end_episode();
    }
  }

  if (policies.drl != nullptr) policies.drl->set_learning(cfg.learn_during_run);
  if (policies.local_rl != nullptr) policies.local_rl->set_learning(cfg.learn_during_run);

  core::ExperimentResult result;
  result.trace_stats = trace.stats;
  {
    telemetry::Span span(kMeasured, scenario.name);
    std::unique_ptr<sim::FaultInjector> faults;
    if (cfg.faults.enabled()) {
      sim::FaultConfig fc = cfg.faults;
      if (fc.seed == 0) {
        fc.seed = common::SplitMix64(cfg.trace.seed ^ 0xFA017FA017FA017FULL).next();
      }
      const double horizon =
          (trace.jobs.empty() ? 0.0 : trace.jobs.back().arrival) + fc.horizon_padding_s;
      faults = std::make_unique<sim::FaultInjector>(fc, cfg.num_servers, horizon);
    }
    sim::Cluster cluster(cluster_config(cfg), allocation, power);
    cluster.install_faults(faults.get());
    cluster.load_jobs(std::move(trace.jobs));
    while (cluster.step()) {
    }
    result.final_snapshot = cluster.snapshot();
    std::vector<double> latencies;
    latencies.reserve(cluster.metrics().job_records().size());
    for (const sim::JobRecord& r : cluster.metrics().job_records()) {
      latencies.push_back(r.latency());
    }
    if (!latencies.empty()) {
      result.latency_p95_s = common::percentile(latencies, 0.95);
      result.latency_p99_s = common::percentile(latencies, 0.99);
    }
  }

  const double wall_s = seconds_since(wall_start);
  const telemetry::RegistrySnapshot snap = registry.snapshot();
  telemetry::set_enabled(false);

  // Counters report their count; span histograms their summed seconds.
  const auto count = [&](const char* name) {
    const telemetry::MetricValue* m = snap.find(name);
    return m != nullptr ? static_cast<double>(m->count) : 0.0;
  };
  const auto sum = [&](const char* name) {
    const telemetry::MetricValue* m = snap.find(name);
    return m != nullptr ? m->value : 0.0;
  };
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };

  const double generate_s = sum("bench.generate.seconds");
  const double build_s = sum("bench.build.seconds");
  const double pretrain_s = sum("bench.pretrain.seconds");
  const double measured_s = sum("bench.measured_run.seconds");
  const double sim_s = pretrain_s + measured_s;
  const double global_calls = static_cast<double>(allocation.calls());
  const double local_calls = static_cast<double>(power.decisions());
  const double events = count("sim.events");
  const double macs = count("nn.gemm.macs");
  const sim::FaultCounters& fc = result.final_snapshot.faults;

  TracedRep rep;
  rep.wall_s = wall_s;
  rep.layers = {
      {"workload.generate_s", "s", generate_s},
      {"workload.jobs_per_s", "jobs/s", ratio(static_cast<double>(trace.stats.num_jobs),
                                              generate_s)},
      {"workload.trace_bytes", "bytes", static_cast<double>(trace_bytes)},
      {"runner.build_s", "s", build_s},
      {"runner.pretrain_s", "s", pretrain_s},
      {"runner.measured_run_s", "s", measured_s},
      {"sim.events", "count", events},
      {"sim.self_s", "s", sim_s - allocation.seconds() - power.seconds()},
      {"sim.events_per_s", "1/s", ratio(events, sim_s)},
      {"sim.faults.crashes", "count", count("sim.faults.crashes")},
      {"sim.faults.evictions", "count", count("sim.faults.evictions")},
      {"sim.faults.retries", "count", count("sim.faults.retries")},
      {"sim.faults.jobs_lost", "count", count("sim.faults.jobs_lost")},
      {"global.calls", "count", global_calls},
      {"global.s", "s", allocation.seconds()},
      {"global.us_per_call", "us", 1e6 * ratio(allocation.seconds(), global_calls)},
      {"local.calls", "count", local_calls},
      {"local.s", "s", power.seconds()},
      {"local.flush_pct", "%", 100.0 * ratio(power.flush_seconds(), power.seconds())},
      {"rl.train_steps", "count",
       policies.drl != nullptr ? static_cast<double>(policies.drl->train_steps()) : 0.0},
      {"core.decision.flushes", "count", count("core.decision.flushes")},
      {"core.decision.q_requests", "count", count("core.decision.q_requests")},
      {"core.decision.predict_requests", "count", count("core.decision.predict_requests")},
      {"core.decision.epoch_width_mean", "requests",
       ratio(sum("core.decision.epoch_width"), count("core.decision.epoch_width"))},
      {"nn.gemm.calls", "count", count("nn.gemm.calls")},
      {"nn.gemm.macs", "count", macs},
      {"nn.macs_per_decision", "count", ratio(macs, global_calls + local_calls)},
  };

  // Where two sources count the same thing, they must agree.
  if (global_calls != count("sim.arrivals") + static_cast<double>(fc.bounces)) {
    errors.push_back("global.calls != sim.arrivals + bounces");
  }
  if (count("sim.faults.crashes") != static_cast<double>(fc.crashes) ||
      count("sim.faults.retries") != static_cast<double>(fc.retries) ||
      count("sim.faults.jobs_lost") != static_cast<double>(fc.jobs_lost) ||
      count("sim.faults.evictions") < static_cast<double>(fc.evictions)) {
    errors.push_back("sim.faults.* telemetry disagrees with the run's fault counters");
  }
  if (count("core.decision.q_requests") > global_calls ||
      count("core.decision.predict_requests") > local_calls) {
    errors.push_back("decision-service requests exceed policy calls");
  }
  // The phases must account for the traced wall time.
  const double phases = generate_s + build_s + pretrain_s + measured_s;
  if (std::abs(phases - wall_s) > 0.05 * wall_s) {
    errors.push_back("phase times sum to " + std::to_string(phases) + " s of " +
                     std::to_string(wall_s) + " s wall");
  }
  rep.result = std::move(result);
  return rep;
}

// ---- command line and main loop ----------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  double scale = 1.0;
  bool traced = false;
  std::string chrome_trace;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME --seed S [--seconds T] [--scale F]\n"
               "                 [--traced [--chrome-trace PATH]]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double parse_number(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0) {
    usage(std::string("bad value for ") + flag + ": " + text);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced") {
      a.traced = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      errno = 0;
      a.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || errno != 0 || value[0] == '-') {
        usage(std::string("bad seed: ") + value);
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_number("--seconds", value);
    } else if (flag == "--scale") {
      a.scale = parse_number("--scale", value);
      if (a.scale <= 0.0) usage("--scale must be > 0");
    } else if (flag == "--chrome-trace") {
      a.chrome_trace = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (find_workload(a.workload) == nullptr) usage("unknown workload '" + a.workload + "'");
  if (!have_seed) usage("--seed is required");
  if (!a.chrome_trace.empty() && !a.traced) usage("--chrome-trace needs --traced");
  return a;
}

void print_json(const Args& a, bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"scale\":%.17g,\"traced\":%s,"
              "\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":{",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.scale,
              a.traced ? "true" : "false", correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// The end-to-end set. Host time is the fastest repetition: on a shared
/// host, memory contention from other tenants slows stretches of seconds to
/// minutes. Across ten runs, run medians spread over an IQR of up to 35 %,
/// and the fastest repetitions over at most 14 % (bench_e2e/README.md).
/// Set-up time is the median. Simulated metrics pool the run's first round
/// (one repetition per trace).
std::vector<Metric> end_to_end_metrics(const std::vector<UntracedRep>& reps) {
  const UntracedRep& fastest = *std::min_element(
      reps.begin(), reps.end(),
      [](const UntracedRep& a, const UntracedRep& b) { return a.wall_s < b.wall_s; });
  std::vector<double> setup;
  for (const UntracedRep& u : reps) setup.push_back(u.setup_s);
  double energy_kwh = 0.0, latency_sum_s = 0.0, p99_sum_s = 0.0, completed = 0.0, jobs = 0.0;
  for (std::size_t k = 0; k < kTracesPerRun; ++k) {
    const core::ExperimentResult& r = reps[k].result;
    energy_kwh += r.final_snapshot.energy_kwh();
    latency_sum_s += r.final_snapshot.accumulated_latency_s;
    p99_sum_s += r.latency_p99_s;
    completed += static_cast<double>(r.final_snapshot.jobs_completed);
    jobs += static_cast<double>(r.trace_stats.num_jobs);
  }
  const auto traces = static_cast<double>(kTracesPerRun);
  return {
      {"wall_s", "s", fastest.wall_s},
      {"setup_s", "s", median(setup)},
      {"jobs_per_s", "jobs/s",
       static_cast<double>(fastest.result.trace_stats.num_jobs) / fastest.wall_s},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"energy_kwh", "kWh", energy_kwh / traces},
      {"latency_mean_s", "s", latency_sum_s / completed},
      {"latency_p99_s", "s", p99_sum_s / traces},
      {"jobs_completed_pct", "%", 100.0 * completed / jobs},
  };
}

/// The per-layer set: each metric's median over the traced repetitions,
/// plus the traced run's wall-time overhead over its untraced pair.
std::vector<Metric> layer_metrics(const std::vector<UntracedRep>& reps,
                                  const std::vector<TracedRep>& traced) {
  std::vector<Metric> metrics;
  for (std::size_t i = 0; i < traced.front().layers.size(); ++i) {
    std::vector<double> values;
    for (const TracedRep& t : traced) values.push_back(t.layers[i].value);
    metrics.push_back(traced.front().layers[i]);
    metrics.back().value = median(std::move(values));
  }
  std::vector<double> overhead;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    overhead.push_back(100.0 * (traced[i].wall_s / reps[i].wall_s - 1.0));
  }
  metrics.push_back({"trace_overhead_pct", "%", median(std::move(overhead))});
  return metrics;
}

int run(const Args& args) {
  const Workload& workload = *find_workload(args.workload);
  std::vector<core::Scenario> scenarios;
  common::SplitMix64 seeds(args.seed);
  for (std::size_t k = 0; k < kTracesPerRun; ++k) {
    scenarios.push_back(make_scenario(workload, seeds.next(), args.scale));
  }
  const bool faults_on = scenarios.front().materialized().faults.enabled();

  std::vector<UntracedRep> reps;  // reps[i] replays scenarios[i % kTracesPerRun]
  std::vector<TracedRep> traced;  // traced[i] is the twin of reps[i]
  std::size_t failed = 0;
  std::unique_ptr<telemetry::TraceCollector> collector;
  if (!args.chrome_trace.empty()) {
    collector = std::make_unique<telemetry::TraceCollector>();
    collector->install();
    telemetry::set_thread_name("main");
  }

  const auto start = Clock::now();
  std::size_t rounds = 0;
  do {
    for (std::size_t k = 0; k < kTracesPerRun; ++k) {
      std::vector<std::string> errors;
      reps.push_back(run_untraced(scenarios[k]));
      check_result(reps.back().result, faults_on, errors);
      if (rounds > 0 && !same_simulation(reps.back().result, reps[k].result)) {
        errors.push_back("simulated metrics differ from the first round");
      }
      if (args.traced) {
        traced.push_back(run_traced(scenarios[k], errors));
        if (collector != nullptr) collector->uninstall();  // keep one twin's timeline
        if (!same_simulation(traced.back().result, reps.back().result)) {
          errors.push_back("traced run's simulated metrics differ from the untraced run");
        }
      }
      for (const std::string& e : errors) {
        std::fprintf(stderr, "bench_e2e: %s repetition %zu: %s\n", args.workload.c_str(),
                     reps.size(), e.c_str());
      }
      if (!errors.empty()) ++failed;
    }
    ++rounds;
    // Start another round only if it is expected to end within the window.
  } while (seconds_since(start) * static_cast<double>(rounds + 1) / static_cast<double>(rounds) <=
           args.seconds);

  if (collector != nullptr) {
    std::ofstream out(args.chrome_trace);
    collector->write_json(out);
    if (!out) std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.chrome_trace.c_str());
  }
  print_json(args, failed == 0, reps.size(), failed,
             args.traced ? layer_metrics(reps, traced) : end_to_end_metrics(reps));
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  common::set_log_level(common::LogLevel::kWarn);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: error: %s\n", e.what());
    return 1;
  }
}
