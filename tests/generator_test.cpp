#include "src/workload/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/common/rng.hpp"
#include "src/workload/arrival_process.hpp"

namespace hcrl::workload {
namespace {

GeneratorOptions small_opts(std::size_t jobs = 5000) {
  GeneratorOptions o;
  o.num_jobs = jobs;
  o.horizon_s = hcrl::sim::kSecondsPerWeek * static_cast<double>(jobs) / 95000.0;
  o.seed = 42;
  return o;
}

TEST(GeneratorOptions, Validation) {
  GeneratorOptions o = small_opts();
  EXPECT_NO_THROW(o.validate());
  o.num_jobs = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.min_duration_s = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.cpu_max = o.cpu_min / 2.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = small_opts();
  o.mem_ratio_lo = -1.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

TEST(Generator, ExactJobCountSortedUniqueIds) {
  GoogleTraceGenerator gen(small_opts());
  const auto jobs = gen.generate();
  ASSERT_EQ(jobs.size(), 5000u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].id, static_cast<hcrl::sim::JobId>(i));
    if (i > 0) { EXPECT_GE(jobs[i].arrival, jobs[i - 1].arrival); }
  }
}

TEST(Generator, MarginalsRespectPaperBounds) {
  GoogleTraceGenerator gen(small_opts());
  const auto jobs = gen.generate();
  const auto& o = gen.options();
  for (const auto& j : jobs) {
    EXPECT_GE(j.duration, o.min_duration_s);        // >= 1 minute
    EXPECT_LE(j.duration, o.max_duration_s);        // <= 2 hours
    EXPECT_GE(j.demand[0], o.cpu_min);
    EXPECT_LE(j.demand[0], o.cpu_max);
    EXPECT_GE(j.demand[1], o.mem_min);
    EXPECT_LE(j.demand[1], o.mem_max);
    EXPECT_GE(j.demand[2], o.disk_lo);
    EXPECT_LE(j.demand[2], o.disk_hi);
    EXPECT_NO_THROW(j.validate(3));
  }
}

// Reference: the thinned process's arrivals up to the horizon, cut to
// num_jobs, or extended by restarting the process at the horizon.
TEST(Generator, ArrivalsFollowTheThinnedProcess) {
  std::size_t trimmed = 0, extended = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    GeneratorOptions o = small_opts(300);
    o.seed = seed;
    const auto jobs = GoogleTraceGenerator(o).generate();

    ArrivalProcessOptions ap;
    ap.diurnal_amplitude = o.diurnal_amplitude;
    ap.burst_multiplier = o.burst_multiplier;
    ap.mean_burst_s = o.mean_burst_s;
    ap.mean_calm_s = o.mean_calm_s;
    ap.base_rate_hz = 1.0;
    ap.base_rate_hz = static_cast<double>(o.num_jobs) / o.horizon_s / ap.effective_rate();
    common::Rng rng(o.seed);
    ArrivalProcess process(ap, rng.fork());
    std::vector<double> expected = process.generate(o.horizon_s);
    if (expected.size() > o.num_jobs) ++trimmed;
    if (expected.size() < o.num_jobs) ++extended;
    expected.resize(std::min(expected.size(), o.num_jobs));
    double t = o.horizon_s;
    while (expected.size() < o.num_jobs) expected.push_back(t = process.next_after(t));

    ASSERT_EQ(jobs.size(), o.num_jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(jobs[i].arrival, expected[i]) << "seed " << seed << " job " << i;
    }
  }
  EXPECT_GT(trimmed, 0u);   // both paths must be exercised
  EXPECT_GT(extended, 0u);
}

TEST(Generator, DeterministicForSeed) {
  GoogleTraceGenerator a(small_opts()), b(small_opts());
  const auto ja = a.generate();
  const auto jb = b.generate();
  ASSERT_EQ(ja.size(), jb.size());
  for (std::size_t i = 0; i < ja.size(); i += 97) {
    EXPECT_DOUBLE_EQ(ja[i].arrival, jb[i].arrival);
    EXPECT_DOUBLE_EQ(ja[i].duration, jb[i].duration);
    EXPECT_DOUBLE_EQ(ja[i].demand[0], jb[i].demand[0]);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorOptions o1 = small_opts(), o2 = small_opts();
  o2.seed = 43;
  const auto a = GoogleTraceGenerator(o1).generate();
  const auto b = GoogleTraceGenerator(o2).generate();
  int different = 0;
  for (std::size_t i = 0; i < a.size(); i += 101) {
    if (a[i].arrival != b[i].arrival) ++different;
  }
  EXPECT_GT(different, 10);
}

TEST(Generator, CalibrationMatchesPaperAggregates) {
  // The paper's regime: mean duration ~15 min (so round-robin latency/job is
  // ~800-900 s), small requests, cluster CPU load well under 50% so that
  // consolidation does not stall jobs.
  GoogleTraceGenerator gen(small_opts(20000));
  const auto jobs = gen.generate();
  const TraceStats stats = compute_stats(jobs, gen.options().horizon_s);
  EXPECT_GT(stats.mean_duration_s, 600.0);
  EXPECT_LT(stats.mean_duration_s, 1100.0);
  EXPECT_GT(stats.mean_cpu, 0.02);
  EXPECT_LT(stats.mean_cpu, 0.08);
  const double load = stats.cpu_load(30);
  EXPECT_GT(load, 0.05);
  EXPECT_LT(load, 0.45);
}

TEST(TraceStats, ComputedFieldsAreConsistent) {
  std::vector<hcrl::sim::Job> jobs;
  for (int i = 0; i < 3; ++i) {
    hcrl::sim::Job j;
    j.id = i;
    j.arrival = i * 10.0;
    j.duration = 100.0;
    j.demand = hcrl::sim::ResourceVector{0.5, 0.2, 0.1};
    jobs.push_back(j);
  }
  const TraceStats s = compute_stats(jobs, 1000.0);
  EXPECT_EQ(s.num_jobs, 3u);
  EXPECT_DOUBLE_EQ(s.mean_duration_s, 100.0);
  EXPECT_DOUBLE_EQ(s.mean_cpu, 0.5);
  EXPECT_DOUBLE_EQ(s.mean_interarrival_s, 10.0);
  EXPECT_DOUBLE_EQ(s.total_cpu_seconds, 150.0);
  // load = 150 cpu-seconds / (1000 s * 1 server).
  EXPECT_DOUBLE_EQ(s.cpu_load(1), 0.15);
  EXPECT_DOUBLE_EQ(s.cpu_load(0), 0.0);
}

TEST(TraceStats, EmptyTrace) {
  const TraceStats s = compute_stats({}, 100.0);
  EXPECT_EQ(s.num_jobs, 0u);
  EXPECT_DOUBLE_EQ(s.mean_duration_s, 0.0);
}

TEST(TraceStats, ToStringMentionsKeyNumbers) {
  GoogleTraceGenerator gen(small_opts(1000));
  const TraceStats s = compute_stats(gen.generate(), gen.options().horizon_s);
  const std::string str = s.to_string();
  EXPECT_NE(str.find("jobs=1000"), std::string::npos);
  EXPECT_NE(str.find("mean_duration"), std::string::npos);
}

TEST(Generator, MakeJobUsesSuppliedArrival) {
  GoogleTraceGenerator gen(small_opts());
  hcrl::common::Rng rng(9);
  const auto job = gen.make_job(77, 123.5, rng);
  EXPECT_EQ(job.id, 77);
  EXPECT_DOUBLE_EQ(job.arrival, 123.5);
  EXPECT_NO_THROW(job.validate(3));
}

}  // namespace
}  // namespace hcrl::workload
