// TraceCatalog + the real-trace scenario registry entries: bundled fixture
// slices load, normalize, and run end-to-end — and the acceptance property
// that a batch's output is bit-identical at every worker count on the
// real-trace scenarios, exactly as runner_test pins for synthetic ones.
#include "src/workload/trace/catalog.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/core/trace_source.hpp"
#include "src/workload/trace/calibrate.hpp"
#include "src/workload/trace_io.hpp"

namespace hcrl {
namespace {

using workload::trace::TraceCatalog;

// ---- the catalog itself -----------------------------------------------------

TEST(TraceCatalog, BuiltinListsTheBundledDatasets) {
  const auto& c = TraceCatalog::builtin();
  EXPECT_TRUE(c.contains("google2011-sample"));
  EXPECT_TRUE(c.contains("alibaba2018-sample"));
  EXPECT_TRUE(c.contains("azure2017-sample"));
  EXPECT_FALSE(c.contains("borg-sample"));
  EXPECT_EQ(c.names().size(), 3u);

  // Provenance is part of the entry, not a README afterthought.
  for (const auto& name : c.names()) {
    const auto& e = c.entry(name);
    EXPECT_FALSE(e.description.empty());
    EXPECT_NE(e.source_url.find("https://"), std::string::npos);
    EXPECT_FALSE(e.fetch_hint.empty());
  }
}

TEST(TraceCatalog, UnknownDatasetThrowsListingKnown) {
  try {
    TraceCatalog::builtin().entry("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("google2011-sample"), std::string::npos);
  }
}

TEST(TraceCatalog, EveryFixtureLoadsCleanAndSurvivesTraceIo) {
  for (const auto& name : TraceCatalog::builtin().names()) {
    SCOPED_TRACE(name);
    workload::trace::AdapterReport adapter_report;
    workload::trace::NormalizeReport normalize_report;
    const auto jobs = TraceCatalog::builtin().load(name, &adapter_report, &normalize_report);

    EXPECT_GE(jobs.size(), 200u);  // the slices are a few hundred jobs
    EXPECT_EQ(normalize_report.rows_out, jobs.size());
    EXPECT_GT(adapter_report.rows_read, jobs.size() / 2);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_NO_THROW(jobs[i].validate(3));
      if (i > 0) {
        EXPECT_GE(jobs[i].arrival, jobs[i - 1].arrival);
      }
    }
    // Round-trips through the strict canonical reader.
    std::stringstream buf;
    workload::write_trace(buf, jobs);
    EXPECT_EQ(workload::read_trace(buf).size(), jobs.size());
  }
}

TEST(TraceCatalog, LoadIsDeterministic) {
  const auto a = TraceCatalog::builtin().load("google2011-sample");
  const auto b = TraceCatalog::builtin().load("google2011-sample");
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].duration, b[i].duration);
    EXPECT_EQ(a[i].demand[0], b[i].demand[0]);
  }
}

// ---- CatalogTraceSource -----------------------------------------------------

TEST(CatalogTraceSource, ProducesTraceWithStats) {
  const core::CatalogTraceSource source("alibaba2018-sample");
  EXPECT_EQ(source.describe(), "catalog(alibaba2018-sample)");
  const core::Trace t = source.produce();
  EXPECT_GE(t.jobs.size(), 200u);
  EXPECT_GT(t.horizon_s, 0.0);
  EXPECT_EQ(t.stats.num_jobs, t.jobs.size());
  const core::Trace t2 = source.produce();
  EXPECT_EQ(t.jobs.size(), t2.jobs.size());
}

TEST(CatalogTraceSource, UnknownDatasetFailsAtConstruction) {
  EXPECT_THROW(core::CatalogTraceSource("not-a-dataset"), std::invalid_argument);
}

// The pretrain sizing in trace_scenario and the run share one parse.
TEST(CatalogTraceSource, CatalogScenarioParsesTheFixtureOnce) {
  const core::Scenario s = core::catalog_scenario("alibaba2018-sample", "round-robin");
  const auto* cached = dynamic_cast<const core::CachedTraceSource*>(s.trace.get());
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->inner_productions(), 1u);
  const core::ExperimentResult r = core::run_scenario(s);
  EXPECT_EQ(r.final_snapshot.jobs_completed, r.trace_stats.num_jobs);
  EXPECT_EQ(cached->inner_productions(), 1u);
}

// ---- registry scenarios: the acceptance property ----------------------------

void expect_identical(const core::ExperimentResult& a, const core::ExperimentResult& b) {
  EXPECT_EQ(a.allocator, b.allocator);
  EXPECT_EQ(a.power, b.power);
  EXPECT_EQ(a.servers_on_at_end, b.servers_on_at_end);
  EXPECT_EQ(a.final_snapshot.now, b.final_snapshot.now);
  EXPECT_EQ(a.final_snapshot.jobs_completed, b.final_snapshot.jobs_completed);
  EXPECT_EQ(a.final_snapshot.energy_joules, b.final_snapshot.energy_joules);
  EXPECT_EQ(a.final_snapshot.accumulated_latency_s, b.final_snapshot.accumulated_latency_s);
  EXPECT_EQ(a.final_snapshot.average_power_watts, b.final_snapshot.average_power_watts);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].energy_kwh, b.series[i].energy_kwh);
    EXPECT_EQ(a.series[i].sim_time_s, b.series[i].sim_time_s);
  }
  EXPECT_EQ(a.trace_stats.num_jobs, b.trace_stats.num_jobs);
  EXPECT_EQ(a.trace_stats.mean_cpu, b.trace_stats.mean_cpu);
}

TEST(TraceScenarios, RegistryContainsTheRealTraceEntries) {
  const auto& r = core::ScenarioRegistry::builtin();
  EXPECT_TRUE(r.contains("google2011-sample"));
  EXPECT_TRUE(r.contains("alibaba2018-sample"));
  EXPECT_TRUE(r.contains("google2011-calibrated"));
  EXPECT_TRUE(r.contains("alibaba2018-calibrated"));
}

TEST(TraceScenarios, ParallelMatchesSerialBitForBitOnRealTraces) {
  const auto& registry = core::ScenarioRegistry::builtin();
  std::vector<core::Scenario> batch;
  for (const char* name : {"google2011-sample", "alibaba2018-sample",
                           "google2011-calibrated", "alibaba2018-calibrated"}) {
    batch.push_back(registry.make(name, 0));
  }

  const auto serial = core::run_batch(batch, 1);
  const auto parallel = core::run_batch(batch, 4);
  ASSERT_EQ(serial.size(), batch.size());
  ASSERT_EQ(parallel.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(batch[i].name);
    expect_identical(serial[i], parallel[i]);
    EXPECT_EQ(serial[i].final_snapshot.jobs_completed, serial[i].trace_stats.num_jobs);
  }
}

TEST(TraceScenarios, CalibratedTwinMirrorsTheFixtureStatistics) {
  // The twin is fitted to the fixture; its realized trace statistics must
  // land near the fixture's (the calibration engine's own GoF bound is
  // tighter — this pins the end-to-end registry path).
  const core::Trace fixture = core::CatalogTraceSource("google2011-sample").produce();
  const core::Scenario twin = core::ScenarioRegistry::builtin().make("google2011-calibrated", 0);
  const core::Trace synth = twin.effective_trace()->produce();

  EXPECT_EQ(synth.jobs.size(), fixture.jobs.size());
  EXPECT_NEAR(synth.stats.mean_duration_s, fixture.stats.mean_duration_s,
              0.2 * fixture.stats.mean_duration_s);
  EXPECT_NEAR(synth.stats.mean_cpu, fixture.stats.mean_cpu, 0.2 * fixture.stats.mean_cpu);
  EXPECT_NEAR(synth.stats.mean_interarrival_s, fixture.stats.mean_interarrival_s,
              0.25 * fixture.stats.mean_interarrival_s);
}

TEST(TraceScenarios, CalibratedTwinRescalesToRequestedJobs) {
  const core::Scenario twin = core::ScenarioRegistry::builtin().make("google2011-calibrated", 900);
  const core::ExperimentConfig cfg = twin.materialized();
  EXPECT_EQ(cfg.trace.num_jobs, 900u);
  // Scaling preserves the fitted arrival rate.
  const core::Scenario native = core::ScenarioRegistry::builtin().make("google2011-calibrated", 0);
  const double native_rate = static_cast<double>(native.config.trace.num_jobs) /
                             native.config.trace.horizon_s;
  const double scaled_rate = 900.0 / cfg.trace.horizon_s;
  EXPECT_NEAR(scaled_rate, native_rate, 1e-9 * native_rate);
}

}  // namespace
}  // namespace hcrl
