// The telemetry subsystem contracts: registry merge determinism across shard
// counts, histogram boundary semantics, snapshot schema stability, span /
// trace-event collection, trace JSON well-formedness, and — the load-bearing
// one — telemetry on vs. off bit-identity of full experiment results at both
// precisions.
#include "src/telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/stats.hpp"
#include "src/core/runner.hpp"
#include "src/core/scenario.hpp"
#include "src/nn/precision.hpp"
#include "src/telemetry/export.hpp"
#include "src/telemetry/profiler.hpp"
#include "src/telemetry/trace.hpp"

namespace hcrl::telemetry {
namespace {

// ---- registry basics -------------------------------------------------------

TEST(MetricRegistry, CounterAccumulatesAndSnapshots) {
  MetricRegistry reg;
  const MetricId c = reg.counter("test.count");
  reg.add(0, c, 3);
  reg.add(0, c);
  const RegistrySnapshot snap = reg.snapshot();
  const MetricValue* v = snap.find("test.count");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->kind, MetricKind::kCounter);
  EXPECT_EQ(v->count, 4u);
  EXPECT_EQ(v->value, 4.0);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(MetricRegistry, DefinitionIsIdempotentByName) {
  MetricRegistry reg;
  const MetricId a = reg.counter("same");
  const MetricId b = reg.counter("same");
  EXPECT_EQ(a, b);
  const MetricId h1 = reg.histogram("hist", {1.0, 2.0});
  const MetricId h2 = reg.histogram("hist", {1.0, 2.0});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(reg.snapshot().metrics.size(), 2u);
}

TEST(MetricRegistry, KindAndBoundsMismatchesThrow) {
  MetricRegistry reg;
  reg.counter("name");
  EXPECT_THROW(reg.gauge("name"), std::logic_error);
  EXPECT_THROW(reg.histogram("name", {1.0}), std::logic_error);
  reg.histogram("hist", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("hist", {1.0, 3.0}), std::logic_error);
  EXPECT_THROW(reg.histogram("bad", {}), std::logic_error);
  EXPECT_THROW(reg.histogram("bad", {2.0, 1.0}), std::logic_error);
  EXPECT_THROW(reg.counter(""), std::logic_error);
}

TEST(MetricRegistry, GaugeMergesByMaximumAcrossShards) {
  MetricRegistry reg;
  const MetricId g = reg.gauge("test.gauge");
  reg.set_gauge(0, g, 5.0);
  reg.set_gauge(1, g, 9.0);
  reg.set_gauge(2, g, 7.0);
  reg.set_gauge(0, g, 1.0);  // last set per shard wins, then max over shards
  const RegistrySnapshot snap = reg.snapshot();
  const MetricValue* v = snap.find("test.gauge");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value, 9.0);
  EXPECT_EQ(v->count, 4u);
}

// Histogram bin semantics: bins = bounds.size() + 1; a sample equal to a
// boundary lands in the bin ABOVE it (bin i covers [bounds[i-1], bounds[i])).
TEST(MetricRegistry, HistogramBoundaryEdgeCases) {
  MetricRegistry reg;
  const MetricId h = reg.histogram("h", {1.0, 2.0, 4.0});
  for (double x : {0.5, 1.0, 2.0, 3.9, 4.0, -5.0, 100.0}) reg.observe(0, h, x);
  const RegistrySnapshot snap = reg.snapshot();
  const MetricValue* v = snap.find("h");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->bins.size(), 4u);
  EXPECT_EQ(v->bins[0], 2u);  // 0.5, -5.0        (x < 1)
  EXPECT_EQ(v->bins[1], 1u);  // 1.0              ([1, 2))
  EXPECT_EQ(v->bins[2], 2u);  // 2.0, 3.9         ([2, 4))
  EXPECT_EQ(v->bins[3], 2u);  // 4.0, 100.0       (x >= 4)
  EXPECT_EQ(v->count, 7u);
  EXPECT_EQ(v->value, 0.5 + 1.0 + 2.0 + 3.9 + 4.0 - 5.0 + 100.0);
}

// The tentpole merge contract: the merged snapshot is invariant to how the
// same samples were distributed over shards. Integer cells (counters, bin
// counts, sample counts) are exactly partition-invariant; the test uses
// exactly-representable sample values so the double sums are too.
TEST(MetricRegistry, MergeIsDeterministicAcrossShardCounts) {
  std::vector<RegistrySnapshot> snaps;
  for (const std::size_t num_shards : {1u, 2u, 5u}) {
    MetricRegistry reg;
    const MetricId c = reg.counter("c");
    const MetricId g = reg.gauge("g");
    const MetricId h = reg.histogram("h", {1.0, 8.0, 64.0});
    for (std::size_t i = 0; i < 100; ++i) {
      const std::size_t shard = i % num_shards;
      reg.add(shard, c, i);
      reg.set_gauge(shard, g, static_cast<double>(i));
      reg.observe(shard, h, static_cast<double>(i) * 0.5);
    }
    snaps.push_back(reg.snapshot());
  }
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    ASSERT_EQ(snaps[i].metrics.size(), snaps[0].metrics.size());
    for (std::size_t m = 0; m < snaps[0].metrics.size(); ++m) {
      const MetricValue& a = snaps[0].metrics[m];
      const MetricValue& b = snaps[i].metrics[m];
      SCOPED_TRACE(a.name + " @ shard-count variant " + std::to_string(i));
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.count, b.count);
      EXPECT_EQ(a.value, b.value);
      EXPECT_EQ(a.bins, b.bins);
    }
  }
}

TEST(MetricRegistry, ConcurrentWritersOnDistinctShards) {
  MetricRegistry reg;
  const MetricId c = reg.counter("c");
  const MetricId h = reg.histogram("h", duration_bounds());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 10000; ++i) {
        reg.add(t, c);
        if (i % 100 == 0) reg.observe(t, h, 1e-3);
      }
    });
  }
  for (auto& t : threads) t.join();
  const RegistrySnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("c")->count, 40000u);
  EXPECT_EQ(snap.find("h")->count, 400u);
}

TEST(MetricRegistry, ResetZeroesValuesButKeepsDefinitions) {
  MetricRegistry reg;
  const MetricId c = reg.counter("c");
  reg.add(0, c, 42);
  reg.reset();
  EXPECT_EQ(reg.snapshot().metrics.size(), 1u);
  EXPECT_EQ(reg.snapshot().find("c")->count, 0u);
}

TEST(MetricRegistry, HistogramQuantilesMatchCommonStats) {
  MetricRegistry reg;
  const MetricId h = reg.histogram("h", {10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) reg.observe(0, h, 15.0);  // all in [10, 20)
  const RegistrySnapshot snap = reg.snapshot();
  const MetricValue* v = snap.find("h");
  ASSERT_NE(v, nullptr);
  const double q = v->quantile(0.5);
  EXPECT_GE(q, 10.0);
  EXPECT_LE(q, 20.0);
  EXPECT_EQ(q, common::quantile_from_bins(v->bins, v->bounds, 0.5));
}

TEST(ShardScope, BindsAndRestoresThreadShard) {
  EXPECT_EQ(current_shard(), 0u);
  {
    ShardScope outer(3);
    EXPECT_EQ(current_shard(), 3u);
    {
      ShardScope inner(7);
      EXPECT_EQ(current_shard(), 7u);
    }
    EXPECT_EQ(current_shard(), 3u);
  }
  EXPECT_EQ(current_shard(), 0u);
}

TEST(Telemetry, HelpersAreNoOpsWhileDisabled) {
  ASSERT_FALSE(enabled());
  MetricRegistry& reg = global_registry();
  const MetricId c = reg.counter("test.disabled_noop");
  const std::uint64_t before = reg.snapshot().find("test.disabled_noop")->count;
  count(c, 5);
  observe(c, 1.0);  // wrong kind on purpose: must not even be reached
  EXPECT_EQ(reg.snapshot().find("test.disabled_noop")->count, before);
}

// ---- snapshot schema stability ---------------------------------------------

// The exported metric entries are a schema other tooling parses
// (BENCH-style diffing, CI artifacts). Pin the exact serialization of each
// metric kind; manifest values vary per build, so pin its key set instead.
TEST(Export, SnapshotSchemaIsStable) {
  MetricRegistry reg;
  const MetricId c = reg.counter("a.count");
  const MetricId g = reg.gauge("b.gauge");
  const MetricId h = reg.histogram("c.hist", {1.0, 2.0});
  reg.add(0, c, 7);
  reg.set_gauge(0, g, 2.5);
  // 16 in [1,2) and 4 in the overflow bin: every pinned number below is
  // exactly representable (p50 = 1 + 10/16, p95/p99 collapse onto the edge
  // boundary 2), so the golden string is stable.
  for (int i = 0; i < 16; ++i) reg.observe(0, h, 1.5);
  for (int i = 0; i < 4; ++i) reg.observe(0, h, 3.0);
  RunManifest manifest;
  manifest.tool = "test";
  manifest.scenario = "unit";
  manifest.precision = "f64";
  std::ostringstream os;
  write_metrics_json(os, reg.snapshot(), manifest);
  const std::string out = os.str();

  const std::string expected_metrics =
      "\"metrics\":{\n"
      "\"a.count\":{\"kind\":\"counter\",\"count\":7,\"value\":7},\n"
      "\"b.gauge\":{\"kind\":\"gauge\",\"count\":1,\"value\":2.5},\n"
      "\"c.hist\":{\"kind\":\"histogram\",\"count\":20,\"sum\":36,"
      "\"p50\":1.625,\"p95\":2,\"p99\":2,\"bounds\":[1,2],\"bins\":[0,16,4]}\n"
      "}}";
  EXPECT_NE(out.find("\"schema\":\"hcrl-metrics-v1\""), std::string::npos) << out;
  EXPECT_NE(out.find(expected_metrics), std::string::npos) << out;
  for (const char* key : {"\"tool\":\"test\"", "\"scenario\":\"unit\"", "\"precision\":\"f64\"",
                          "\"git_describe\":", "\"wall_seconds\":0"}) {
    EXPECT_NE(out.find(key), std::string::npos) << "missing " << key << " in " << out;
  }
}

TEST(Export, ManifestPathSiblingRule) {
  EXPECT_EQ(manifest_path_for("runs/m.json"), "runs/m.manifest.json");
  EXPECT_EQ(manifest_path_for("metrics"), "metrics.manifest.json");
}

// ---- trace events ----------------------------------------------------------

// Minimal recursive-descent JSON validator — enough to prove the exporter
// emits structurally valid JSON without pulling in a parser dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // {
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // [
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(Trace, EmitsWellFormedJsonWithPerThreadTracks) {
  set_enabled(true);
  TraceCollector collector;
  collector.install();
  static const SpanDef kTestSpan("test.phase");
  {
    Span main_span(kTestSpan, "main work");
    std::thread worker([&] {
      set_thread_name("test-worker");
      Span span(kTestSpan);
    });
    worker.join();
  }
  collector.uninstall();
  set_enabled(false);

  EXPECT_EQ(collector.num_events(), 2u);
  std::ostringstream os;
  collector.write_json(os);
  const std::string json = os.str();

  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.phase\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"test-worker\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"label\":\"main work\"}"), std::string::npos);
}

TEST(Trace, SecondInstallThrowsAndSpansFeedHistograms) {
  set_enabled(true);
  TraceCollector collector;
  collector.install();
  TraceCollector other;
  EXPECT_THROW(other.install(), std::logic_error);

  MetricRegistry& reg = global_registry();
  static const SpanDef kSpan("test.span_histogram");
  const std::uint64_t before = reg.snapshot().find("test.span_histogram.seconds")->count;
  { Span span(kSpan); }
  EXPECT_EQ(reg.snapshot().find("test.span_histogram.seconds")->count, before + 1);

  collector.uninstall();
  set_enabled(false);
  EXPECT_FALSE(collector.installed());
}

// ---- bit-identity: telemetry must never perturb simulation results ---------

void expect_results_identical(const core::ExperimentResult& a, const core::ExperimentResult& b) {
  EXPECT_EQ(a.final_snapshot.now, b.final_snapshot.now);
  EXPECT_EQ(a.final_snapshot.jobs_completed, b.final_snapshot.jobs_completed);
  EXPECT_EQ(a.final_snapshot.energy_joules, b.final_snapshot.energy_joules);
  EXPECT_EQ(a.final_snapshot.accumulated_latency_s, b.final_snapshot.accumulated_latency_s);
  EXPECT_EQ(a.final_snapshot.average_power_watts, b.final_snapshot.average_power_watts);
  EXPECT_EQ(a.servers_on_at_end, b.servers_on_at_end);
  EXPECT_EQ(a.latency_p95_s, b.latency_p95_s);
  EXPECT_EQ(a.latency_p99_s, b.latency_p99_s);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].sim_time_s, b.series[i].sim_time_s);
    EXPECT_EQ(a.series[i].energy_kwh, b.series[i].energy_kwh);
    EXPECT_EQ(a.series[i].accumulated_latency_s, b.series[i].accumulated_latency_s);
  }
}

TEST(TelemetryBitIdentity, FullExperimentBothPrecisions) {
  for (const nn::Precision precision : {nn::Precision::kF64, nn::Precision::kF32}) {
    SCOPED_TRACE(std::string("precision=") + nn::to_string(precision));
    // 600 jobs plus the 150-job pretraining prefix fill the DQN's default
    // 512-sample warm-up, so the global tier's train sites run here too.
    core::Scenario scenario = core::ScenarioRegistry::builtin().make("tiny/hierarchical", 600);
    scenario.config.precision = precision;

    ASSERT_FALSE(enabled());
    const core::ExperimentResult off = core::run_scenario(scenario);

    // Full telemetry: metrics AND trace-event collection.
    TraceCollector collector;
    collector.install();
    set_enabled(true);
    const core::ExperimentResult on = core::run_scenario(scenario);
    set_enabled(false);
    collector.uninstall();

    expect_results_identical(on, off);
    EXPECT_GT(collector.num_events(), 0u);
    const RegistrySnapshot snap = global_registry().snapshot();
    EXPECT_GT(snap.find("sim.events")->count, 0u);
    EXPECT_GT(snap.find("sim.arrivals")->count, 0u);
    EXPECT_GT(snap.find("nn.gemm.calls")->count, 0u);
    EXPECT_GT(snap.find("runner.scenarios")->count, 0u);
    EXPECT_GT(snap.find("core.predictor.lstm_train_windows")->count, 0u);
    EXPECT_GT(snap.find("core.predictor.lstm_predictions")->count, 0u);
    EXPECT_GT(snap.find("core.qnet.q_value_calls")->count, 0u);
    EXPECT_GT(snap.find("core.qnet.train_batches")->count, 0u);
    EXPECT_GT(snap.find("core.qnet.autoencoder_batches")->count, 0u);
    ASSERT_NE(snap.find("core.qnet.train.seconds"), nullptr);
    EXPECT_GT(snap.find("core.qnet.train.seconds")->count, 0u);
  }
}

}  // namespace
}  // namespace hcrl::telemetry
