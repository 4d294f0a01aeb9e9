// The Scenario / batch experiment API: trace sources, the scenario registry,
// the up-front policy build, observers, and — the load-bearing property —
// that a batch produces bit-identical results at every worker count,
// regardless of completion order.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/core/trace_source.hpp"
#include "src/policy/registry.hpp"
#include "src/workload/trace_io.hpp"

namespace hcrl::core {
namespace {

// Bit-identical comparison (wall_seconds excluded: it measures this process,
// not the simulation).
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.allocator, b.allocator);
  EXPECT_EQ(a.power, b.power);
  EXPECT_EQ(a.servers_on_at_end, b.servers_on_at_end);

  EXPECT_EQ(a.final_snapshot.now, b.final_snapshot.now);
  EXPECT_EQ(a.final_snapshot.jobs_arrived, b.final_snapshot.jobs_arrived);
  EXPECT_EQ(a.final_snapshot.jobs_completed, b.final_snapshot.jobs_completed);
  EXPECT_EQ(a.final_snapshot.energy_joules, b.final_snapshot.energy_joules);
  EXPECT_EQ(a.final_snapshot.accumulated_latency_s, b.final_snapshot.accumulated_latency_s);
  EXPECT_EQ(a.final_snapshot.average_power_watts, b.final_snapshot.average_power_watts);
  EXPECT_EQ(a.final_snapshot.jobs_in_system, b.final_snapshot.jobs_in_system);
  EXPECT_EQ(a.final_snapshot.reliability_penalty, b.final_snapshot.reliability_penalty);

  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].jobs_completed, b.series[i].jobs_completed);
    EXPECT_EQ(a.series[i].sim_time_s, b.series[i].sim_time_s);
    EXPECT_EQ(a.series[i].accumulated_latency_s, b.series[i].accumulated_latency_s);
    EXPECT_EQ(a.series[i].energy_kwh, b.series[i].energy_kwh);
    EXPECT_EQ(a.series[i].average_power_w, b.series[i].average_power_w);
  }

  EXPECT_EQ(a.trace_stats.num_jobs, b.trace_stats.num_jobs);
  EXPECT_EQ(a.trace_stats.mean_interarrival_s, b.trace_stats.mean_interarrival_s);
  EXPECT_EQ(a.trace_stats.mean_duration_s, b.trace_stats.mean_duration_s);
  EXPECT_EQ(a.trace_stats.mean_cpu, b.trace_stats.mean_cpu);
  EXPECT_EQ(a.trace_stats.total_cpu_seconds, b.trace_stats.total_cpu_seconds);
}

// ---- trace sources ---------------------------------------------------------

class CountingSource final : public TraceSource {
 public:
  explicit CountingSource(workload::GeneratorOptions opts) : inner_(opts) {}
  Trace produce() const override {
    ++productions;
    return inner_.produce();
  }
  std::string describe() const override { return "counting"; }
  mutable std::atomic<int> productions{0};

 private:
  SyntheticTraceSource inner_;
};

workload::GeneratorOptions tiny_trace(std::size_t jobs = 300) {
  workload::GeneratorOptions o;
  o.num_jobs = jobs;
  o.horizon_s = static_cast<double>(jobs) * 6.4;
  o.seed = 21;
  return o;
}

TEST(TraceSource, SyntheticProducesSortedStatsAndHorizon) {
  const SyntheticTraceSource source(tiny_trace());
  const Trace t = source.produce();
  ASSERT_EQ(t.jobs.size(), 300u);
  EXPECT_EQ(t.stats.num_jobs, 300u);
  EXPECT_DOUBLE_EQ(t.horizon_s, 300.0 * 6.4);
  for (std::size_t i = 1; i < t.jobs.size(); ++i) {
    EXPECT_GE(t.jobs[i].arrival, t.jobs[i - 1].arrival);
  }
}

TEST(TraceSource, CachedProducesInnerExactlyOnce) {
  auto counting = std::make_shared<CountingSource>(tiny_trace());
  const CachedTraceSource cached(counting);
  const Trace a = cached.produce();
  const Trace b = cached.produce();
  EXPECT_EQ(counting->productions.load(), 1);
  EXPECT_EQ(cached.inner_productions(), 1u);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
    EXPECT_EQ(a.jobs[i].duration, b.jobs[i].duration);
  }
}

TEST(TraceSource, InMemoryInfersHorizonAndKeepsJobs) {
  const Trace base = SyntheticTraceSource(tiny_trace(50)).produce();
  const InMemoryTraceSource source(base.jobs);
  const Trace t = source.produce();
  EXPECT_EQ(t.jobs.size(), 50u);
  EXPECT_DOUBLE_EQ(t.horizon_s, infer_horizon_s(base.jobs));
  EXPECT_GT(t.horizon_s, 0.0);
}

TEST(TraceSource, FileRoundTripsThroughTraceIo) {
  const Trace base = SyntheticTraceSource(tiny_trace(40)).produce();
  const std::string path = testing::TempDir() + "runner_test_trace.csv";
  workload::write_trace_file(path, base.jobs);

  const FileTraceSource source(path);
  const Trace t = source.produce();
  ASSERT_EQ(t.jobs.size(), base.jobs.size());
  for (std::size_t i = 0; i < t.jobs.size(); ++i) {
    EXPECT_NEAR(t.jobs[i].arrival, base.jobs[i].arrival, 1e-6);
    EXPECT_NEAR(t.jobs[i].duration, base.jobs[i].duration, 1e-6);
  }
  std::remove(path.c_str());
}

TEST(TraceSource, ScenarioRunsOnFileTrace) {
  const Trace base = SyntheticTraceSource(tiny_trace(120)).produce();
  const std::string path = testing::TempDir() + "runner_test_scenario_trace.csv";
  workload::write_trace_file(path, base.jobs);

  Scenario s = ScenarioRegistry::builtin().make("tiny/round-robin", 120);
  s.name = "file-backed";
  s.trace = make_cached(std::make_shared<FileTraceSource>(path));
  const ExperimentResult r = run_scenario(s);
  EXPECT_EQ(r.final_snapshot.jobs_completed, 120u);
  EXPECT_EQ(r.trace_stats.num_jobs, 120u);
  std::remove(path.c_str());
}

// ---- scenarios and the registry --------------------------------------------

/// Energy and latency totals of `allocator` on `jobs` under immediate-sleep.
std::pair<double, double> allocator_totals(sim::AllocationPolicy& allocator,
                                           const ExperimentConfig& cfg,
                                           const std::vector<sim::Job>& jobs) {
  sim::ImmediateSleepPolicy power;
  sim::ClusterConfig cc;
  cc.num_servers = cfg.num_servers;
  cc.server = cfg.server;
  sim::Cluster cluster(cc, allocator, power);
  cluster.load_jobs(jobs);
  cluster.run();
  const sim::MetricsSnapshot snap = cluster.snapshot();
  return {snap.energy_joules, snap.accumulated_latency_s};
}

TEST(Scenario, SeedDerivesAllStochasticStreams) {
  Scenario s = ScenarioRegistry::builtin().make("tiny/hierarchical", 200);
  s.seed = 99;
  const ExperimentConfig cfg = s.materialized();
  EXPECT_NE(cfg.trace.seed, s.config.trace.seed);
  const policy::SystemBundle unseeded = policy::build_system(s.config);
  const policy::SystemBundle seeded = policy::build_system(cfg);
  EXPECT_NE(seeded.drl->options().seed, unseeded.drl->options().seed);
  EXPECT_NE(seeded.local_rl->options().seed, unseeded.local_rl->options().seed);
  // Deterministic: materializing twice gives the same derived seeds.
  const ExperimentConfig cfg2 = s.materialized();
  EXPECT_EQ(cfg.trace.seed, cfg2.trace.seed);
  const policy::SystemBundle again = policy::build_system(cfg2);
  EXPECT_EQ(again.drl->options().seed, seeded.drl->options().seed);
  EXPECT_EQ(again.local_rl->options().seed, seeded.local_rl->options().seed);

  // An explicit seed option beats the scenario seed.
  Scenario pinned = s;
  pinned.config.allocator_opts.set("seed", std::int64_t{5});
  pinned.config.power_opts.set("seed", std::int64_t{6});
  const policy::SystemBundle explicit_seeds = policy::build_system(pinned.materialized());
  EXPECT_EQ(explicit_seeds.drl->options().seed, 5u);
  EXPECT_EQ(explicit_seeds.local_rl->options().seed, 6u);

  // A seeded guide draws from the DRL tier's resolved seed (here the explicit
  // 5, not the scenario-derived allocator_seed): the built allocator decides
  // exactly as a DrlAllocator whose random guide is seeded with 5.
  pinned.config.allocator_opts.set("guide", "random");
  const ExperimentConfig guided_cfg = pinned.materialized();
  ASSERT_NE(guided_cfg.allocator_seed, 5u);
  const std::vector<sim::Job> jobs = pinned.effective_trace()->produce().jobs;
  const policy::SystemBundle guided = policy::build_system(guided_cfg);
  const auto totals_with_guide_seed = [&](std::uint64_t guide_seed) {
    DrlAllocator reference(guided.drl->options());
    reference.set_guide(std::make_unique<sim::RandomAllocator>(common::Rng(guide_seed)));
    return allocator_totals(reference, guided_cfg, jobs);
  };
  const auto built = allocator_totals(*guided.allocation, guided_cfg, jobs);
  EXPECT_EQ(built, totals_with_guide_seed(5));
  EXPECT_NE(built, totals_with_guide_seed(guided_cfg.allocator_seed));
}

TEST(Scenario, ZeroSeedKeepsConfigSeeds) {
  Scenario s = ScenarioRegistry::builtin().make("tiny/round-robin", 200);
  const ExperimentConfig cfg = s.materialized();
  EXPECT_EQ(cfg.trace.seed, s.config.trace.seed);
}

TEST(ScenarioRegistry, BuiltinCoversThePaperGrid) {
  const auto& r = ScenarioRegistry::builtin();
  EXPECT_TRUE(r.contains("fig8/hierarchical"));
  EXPECT_TRUE(r.contains("fig9/round-robin"));
  EXPECT_TRUE(r.contains("table1/m30/drl-only"));
  EXPECT_TRUE(r.contains("table1/m40/hierarchical"));
  EXPECT_TRUE(r.contains("tiny/first-fit-packing"));
  EXPECT_FALSE(r.contains("fig11/uninvented"));
  EXPECT_GE(r.names().size(), 18u);
}

TEST(ScenarioRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    ScenarioRegistry::builtin().make("nope/nothing", 100);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nope/nothing"), std::string::npos);
    EXPECT_NE(msg.find("fig8/"), std::string::npos);
  }
}

TEST(ScenarioRegistry, TypoSuggestsTheClosestName) {
  try {
    ScenarioRegistry::builtin().make("fig8/hierarchcal", 100);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'fig8/hierarchical'"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioRegistry, MakeGroupBuildsEveryMatchInRegistrationOrder) {
  const auto group = ScenarioRegistry::builtin().make_group("fig8/", 500);
  ASSERT_EQ(group.size(), 3u);
  EXPECT_EQ(group[0].name, "fig8/round-robin");
  EXPECT_EQ(group[2].config.num_servers, 30u);
  // Trace sharing is the batch's job: the group leaves every source unset.
  for (const Scenario& s : group) EXPECT_EQ(s.trace, nullptr) << s.name;
}

TEST(ShareSyntheticTraces, EqualGeneratorOptionsShareOneCachedSource) {
  // table1 spans M=30 and M=40 — same generator options, so ONE trace is
  // correct across both cluster sizes (the paper runs both sizes on the
  // same workload segment). The -faulty rider perturbs servers, not the
  // workload, so it shares that trace too.
  std::vector<Scenario> group = ScenarioRegistry::builtin().make_group("table1/", 400);
  ASSERT_EQ(group.size(), 7u);
  share_synthetic_traces(group);
  ASSERT_NE(dynamic_cast<const CachedTraceSource*>(group[0].trace.get()), nullptr);
  EXPECT_EQ(group[0].trace.get(), group[5].trace.get());
  EXPECT_EQ(group[0].trace.get(), group[6].trace.get());
  EXPECT_EQ(group[6].name, "table1/m30/hierarchical-faulty");

  // fig8 (M=30) and fig9 (M=40) share generator options too, but a tiny
  // scenario with a different trace scale must get its own source.
  std::vector<Scenario> mixed = {ScenarioRegistry::builtin().make("fig8/round-robin", 400),
                                 ScenarioRegistry::builtin().make("tiny/round-robin", 300)};
  share_synthetic_traces(mixed);
  EXPECT_NE(mixed[0].trace.get(), mixed[1].trace.get());
}

// ---- the policy build fails fast with the scenario name --------------------

TEST(Runner, ValidationNamesTheBadScenarioBeforeAnythingRuns) {
  std::vector<Scenario> batch = ScenarioRegistry::builtin().make_group("tiny/", 200);
  Scenario bad = ScenarioRegistry::builtin().make("tiny/hierarchical", 200);
  bad.name = "bad-cell";
  bad.config.num_groups = 5;  // does not divide 6 servers
  batch.insert(batch.begin() + 2, bad);

  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    try {
      run_batch(batch, workers);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("bad-cell"), std::string::npos);
      EXPECT_NE(msg.find("num_groups"), std::string::npos);
    }
  }
}

// An option value is checked up front too: every cell's pair is built before
// any cell runs, so a bad cell fails the batch before the good cell's trace
// is produced.
TEST(Runner, OptionValuesAreValidatedBeforeAnythingRuns) {
  Scenario good = ScenarioRegistry::builtin().make("tiny/round-robin", 200);
  auto trace = std::make_shared<CountingSource>(good.config.trace);
  good.trace = trace;

  Scenario bad_guide = ScenarioRegistry::builtin().make("tiny/drl-only", 200);
  bad_guide.name = "bad-guide";
  bad_guide.config.allocator_opts.set("guide", "bestfit");
  Scenario bad_k = ScenarioRegistry::builtin().make("tiny/round-robin", 200);
  bad_k.name = "bad-k";
  bad_k.config.allocator = "random-k";
  bad_k.config.allocator_opts.set("k", static_cast<std::int64_t>(0));

  for (const std::size_t workers : {1u, 4u}) {
    for (const Scenario& bad : {bad_guide, bad_k}) {
      SCOPED_TRACE(bad.name + " at " + std::to_string(workers) + " workers");
      bool rejected = false;
      try {
        run_outcomes({good, bad}, workers);
      } catch (const std::invalid_argument& e) {
        rejected = true;
        EXPECT_NE(std::string(e.what()).find(bad.name), std::string::npos) << e.what();
      }
      EXPECT_TRUE(rejected) << "expected std::invalid_argument";
      EXPECT_EQ(trace->productions.load(), 0) << "the good cell ran";
    }
  }
}

// run_scenario's own build is the same check, and it runs before the
// scenario's trace is produced.
TEST(Runner, RunScenarioChecksBeforeProducingTheTrace) {
  Scenario groups = ScenarioRegistry::builtin().make("tiny/round-robin", 200);
  groups.config.num_groups = 5;  // does not divide 6 servers
  Scenario k = ScenarioRegistry::builtin().make("tiny/round-robin", 200);
  k.config.allocator = "random-k";
  k.config.allocator_opts.set("k", static_cast<std::int64_t>(0));

  for (auto [bad, key] : {std::pair{groups, "num_groups"}, std::pair{k, "allocator.k"}}) {
    SCOPED_TRACE(key);
    bad.name = "bad";
    auto trace = std::make_shared<CountingSource>(bad.config.trace);
    bad.trace = trace;
    try {
      run_scenario(bad);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("scenario 'bad'"), std::string::npos) << msg;
      EXPECT_NE(msg.find(key), std::string::npos) << msg;
    }
    EXPECT_EQ(trace->productions.load(), 0) << "the trace was produced";
  }
}

// ---- observers -------------------------------------------------------------

class CollectingObserver final : public RunObserver {
 public:
  void on_checkpoint(const Scenario& scenario, const CheckpointRow& row) override {
    checkpoints[scenario.name].push_back(row);
  }
  void on_complete(const Scenario& scenario, const ExperimentResult& result) override {
    completed.push_back(scenario.name);
    jobs_completed[scenario.name] = result.final_snapshot.jobs_completed;
  }

  std::map<std::string, std::vector<CheckpointRow>> checkpoints;
  std::vector<std::string> completed;
  std::map<std::string, std::size_t> jobs_completed;
};

TEST(Runner, ObserverStreamsCheckpointsAndCompletions) {
  const auto batch = ScenarioRegistry::builtin().make_group("tiny/", 300);
  CollectingObserver obs;
  const auto results = run_batch(batch, 4, &obs);

  ASSERT_EQ(results.size(), batch.size());
  EXPECT_EQ(obs.completed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // Streamed checkpoints match the accumulated series exactly.
    const auto& streamed = obs.checkpoints[batch[i].name];
    ASSERT_EQ(streamed.size(), results[i].series.size());
    for (std::size_t k = 0; k < streamed.size(); ++k) {
      EXPECT_EQ(streamed[k].jobs_completed, results[i].series[k].jobs_completed);
      EXPECT_EQ(streamed[k].energy_kwh, results[i].series[k].energy_kwh);
    }
    EXPECT_EQ(obs.jobs_completed[batch[i].name], 300u);
  }
}

TEST(Runner, CsvObserverWritesHeaderAndOneRowPerCheckpoint) {
  Scenario s = ScenarioRegistry::builtin().make("tiny/round-robin", 300);
  std::ostringstream out;
  CsvCheckpointObserver csv(out);
  const auto results = run_batch({s}, 1, &csv);

  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "scenario,jobs,sim_time_s,acc_latency_s,energy_kwh,avg_power_w");
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.rfind("tiny/round-robin,", 0), 0u);
    ++rows;
  }
  EXPECT_EQ(rows, results[0].series.size());
}

// The batch gives cells with equal generator options one cached trace; the
// observer sees the cell the batch ran, source included.
TEST(Runner, BatchSharesOneCachedTracePerGeneratorOptions) {
  const std::vector<Scenario> batch = {
      ScenarioRegistry::builtin().make("tiny/round-robin", 200),
      ScenarioRegistry::builtin().make("tiny/least-loaded", 200),
      ScenarioRegistry::builtin().make("tiny/first-fit-packing", 150)};
  class SourceObserver final : public RunObserver {
   public:
    void on_complete(const Scenario& scenario, const ExperimentResult&) override {
      sources[scenario.name] = scenario.trace;  // keeps the source alive past the batch
    }
    std::map<std::string, std::shared_ptr<const TraceSource>> sources;
  } obs;
  run_batch(batch, 1, &obs);
  const std::shared_ptr<const TraceSource> shared = obs.sources.at("tiny/round-robin");
  ASSERT_NE(dynamic_cast<const CachedTraceSource*>(shared.get()), nullptr);
  EXPECT_EQ(obs.sources.at("tiny/least-loaded"), shared);
  EXPECT_NE(obs.sources.at("tiny/first-fit-packing"), shared);  // another trace scale
  for (const Scenario& s : batch) EXPECT_EQ(s.trace, nullptr) << "the caller's batch changed";
}

// ---- the headline property: every worker count, bit for bit ----------------

TEST(Runner, ParallelMatchesSerialBitForBitOnTheTinyGrid) {
  // >= 6 scenarios spanning all six systems, sharing one cached trace —
  // plus two seed-replicated hierarchical cells so scenario seeding is
  // covered too.
  std::vector<Scenario> batch = ScenarioRegistry::builtin().make_group("tiny/", 300);
  Scenario rep1 = ScenarioRegistry::builtin().make("tiny/hierarchical", 300);
  rep1.name = "tiny/hierarchical#seed1";
  rep1.seed = 1001;
  Scenario rep2 = rep1;
  rep2.name = "tiny/hierarchical#seed2";
  rep2.seed = 1002;
  batch.push_back(rep1);
  batch.push_back(rep2);
  ASSERT_GE(batch.size(), 6u);

  const auto serial = run_batch(batch, 1);
  const auto parallel4 = run_batch(batch, 4);
  ASSERT_EQ(serial.size(), batch.size());
  ASSERT_EQ(parallel4.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(batch[i].name);
    expect_identical(serial[i], parallel4[i]);
  }

  // Seed-replicated cells really are different runs of the same system.
  const std::size_t h1 = batch.size() - 2, h2 = batch.size() - 1;
  EXPECT_NE(serial[h1].final_snapshot.energy_joules, serial[h2].final_snapshot.energy_joules);

  // And a second worker count completes the thread-count independence claim.
  const auto parallel2 = run_batch(batch, 2);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(batch[i].name);
    expect_identical(serial[i], parallel2[i]);
  }
}

TEST(Runner, ParallelMatchesSerialAtF32) {
  // The f32 compute mode composes with the scenario-level worker pool:
  // results stay bit-identical to a serial run at the same precision.
  std::vector<Scenario> batch;
  for (const char* name : {"tiny/hierarchical", "tiny/drl-only"}) {
    Scenario s = ScenarioRegistry::builtin().make(name, 250);
    s.name = std::string(name) + "#f32";
    s.config.precision = nn::Precision::kF32;
    batch.push_back(std::move(s));
  }

  const auto serial = run_batch(batch, 1);
  const auto parallel = run_batch(batch, 2);
  ASSERT_EQ(serial.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(batch[i].name);
    expect_identical(serial[i], parallel[i]);
    EXPECT_GT(serial[i].final_snapshot.jobs_completed, 0u);
  }
}

TEST(Runner, EmptyBatchAndOversizedPoolAreFine) {
  // 0 workers means one per hardware thread; any count handles an empty
  // batch and a pool larger than the batch.
  for (const std::size_t workers : {0u, 1u, 8u}) {
    SCOPED_TRACE(workers);
    EXPECT_TRUE(run_batch({}, workers).empty());
    const auto one =
        run_batch({ScenarioRegistry::builtin().make("tiny/least-loaded", 200)}, workers);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].final_snapshot.jobs_completed, 200u);
  }
}

}  // namespace
}  // namespace hcrl::core
