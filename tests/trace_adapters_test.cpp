// Golden tests for the raw-schema format adapters: embedded snippets in
// each public dataset's native schema, with exact expected job tuples.
#include "src/workload/trace/adapters.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace hcrl::workload::trace {
namespace {

// ---- format names -----------------------------------------------------------

TEST(TraceFormat, ParsesAndPrintsAllFormats) {
  EXPECT_EQ(parse_format("google2011"), TraceFormat::kGoogle2011);
  EXPECT_EQ(parse_format("alibaba2018"), TraceFormat::kAlibaba2018);
  EXPECT_EQ(parse_format("azure2017"), TraceFormat::kAzure2017);
  EXPECT_EQ(to_string(TraceFormat::kGoogle2011), "google2011");
  EXPECT_EQ(to_string(TraceFormat::kAlibaba2018), "alibaba2018");
  EXPECT_EQ(to_string(TraceFormat::kAzure2017), "azure2017");
}

TEST(TraceFormat, UnknownNameThrowsListingKnown) {
  try {
    parse_format("borg");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("alibaba2018"), std::string::npos);
  }
}

TEST(TraceFormat, TypoSuggestsTheClosestFormat) {
  try {
    parse_format("googel2011");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'google2011'"), std::string::npos)
        << e.what();
  }
}

// ---- Google 2011 task_events ------------------------------------------------

// 13-column task_events rows: time_us, missing, job_id, task_index,
// machine_id, event_type, user, class, priority, cpu, mem, disk, constraint.
constexpr const char* kGoogleSnippet =
    "1000000,0,42,0,,0,alice,0,5,0.05,0.04,0.002,0\n"      // SUBMIT t=1s
    "2000000,0,42,0,m1,1,alice,0,5,0.05,0.04,0.002,0\n"    // SCHEDULE t=2s
    "3000000,0,42,1,,0,alice,0,5,0.1,0.08,0.004,0\n"       // SUBMIT task 1
    "3500000,0,99,7,,4,bob,1,2,,,,0\n"                     // FINISH w/o SUBMIT
    "4000000,0,43,0,,0,bob,2,2,,,,0\n"                     // SUBMIT, blank res
    "5000000,0,42,0,m1,4,alice,0,5,,,,0\n"                 // FINISH t=5s
    "not,a,valid,row\n"                                    // malformed
    "6000000,0,42,1,m2,8,alice,0,5,0.1,0.08,0.004,0\n"     // UPDATE_RUNNING
    "7000000,0,42,1,m2,4,alice,0,5,,,,0\n"                 // FINISH (no sched)
    "8000000,0,43,0,m3,5,bob,2,2,,,,0\n"                   // KILL task 43/0
    "9000000,0,77,0,,0,carol,0,1,0.2,0.1,0.01,0\n";        // SUBMIT, no finish

TEST(GoogleAdapter, PairsEventsIntoJobs) {
  std::istringstream in(kGoogleSnippet);
  AdapterReport report;
  const auto jobs = parse_google2011(in, &report);

  ASSERT_EQ(jobs.size(), 2u);
  // Task (42, 0): SUBMIT at 1 s, SCHEDULE at 2 s, FINISH at 5 s.
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 1.0);
  EXPECT_DOUBLE_EQ(jobs[0].duration, 3.0);  // finish - schedule
  EXPECT_DOUBLE_EQ(jobs[0].demand[0], 0.05);
  EXPECT_DOUBLE_EQ(jobs[0].demand[1], 0.04);
  EXPECT_DOUBLE_EQ(jobs[0].demand[2], 0.002);
  // Task (42, 1): never scheduled, so duration falls back to finish - submit.
  EXPECT_DOUBLE_EQ(jobs[1].arrival, 3.0);
  EXPECT_DOUBLE_EQ(jobs[1].duration, 4.0);
  EXPECT_DOUBLE_EQ(jobs[1].demand[0], 0.1);

  EXPECT_EQ(report.rows_read, 11u);
  EXPECT_EQ(report.jobs_emitted, 2u);
  EXPECT_EQ(report.rows_malformed, 1u);   // the 4-column row
  EXPECT_EQ(report.rows_filtered, 2u);    // stray FINISH + UPDATE_RUNNING
  EXPECT_EQ(report.unmatched_tasks, 2u);  // killed 43/0 + pending 77/0
}

TEST(GoogleAdapter, ResubmitReplacesTheStaleEntry) {
  std::istringstream in(
      "1000000,0,1,0,,0,u,0,0,0.1,0.1,0.01,0\n"
      "2000000,0,1,0,,0,u,0,0,0.2,0.2,0.02,0\n"  // re-SUBMIT with new demand
      "5000000,0,1,0,,4,u,0,0,,,,0\n");
  const auto jobs = parse_google2011(in);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 2.0);
  EXPECT_DOUBLE_EQ(jobs[0].demand[0], 0.2);
}

TEST(GoogleAdapter, BlankRequestsBecomeZero) {
  std::istringstream in(
      "1000000,0,1,0,,0,u,0,0,,,,0\n"
      "2000000,0,1,0,,4,u,0,0,,,,0\n");
  const auto jobs = parse_google2011(in);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].demand[0], 0.0);
  EXPECT_DOUBLE_EQ(jobs[0].demand[1], 0.0);
  EXPECT_DOUBLE_EQ(jobs[0].demand[2], 0.0);
}

TEST(GoogleAdapter, GarbageRequestsAreMalformedNotZero) {
  // Blank means "request unknown" (-> 0); non-blank garbage is corruption
  // and must be counted, not coerced.
  std::istringstream in(
      "1000000,0,1,0,,0,u,0,0,0x1f,0.1,0.01,0\n"
      "2000000,0,1,0,,4,u,0,0,,,,0\n");
  AdapterReport report;
  const auto jobs = parse_google2011(in, &report);
  EXPECT_TRUE(jobs.empty());
  EXPECT_EQ(report.rows_malformed, 1u);
  EXPECT_EQ(report.rows_filtered, 1u);  // the FINISH never saw a SUBMIT
}

// ---- Alibaba 2018 batch_task ------------------------------------------------

constexpr const char* kAlibabaSnippet =
    "task_1,1,j_1,1,Terminated,100,400,200,4.0\n"
    "task_2,5,j_1,2,Running,150,,200,4.0\n"       // no end time yet
    "task_3,1,j_2,1,Failed,160,190,100,2.0\n"     // non-terminal
    "task_4,1,j_2,2,Terminated,200,bad,100,2.0\n" // malformed end
    "task_5,2,j_3,1,Terminated,250,251,9600,50\n";

TEST(AlibabaAdapter, NormalizesPlanUnitsPerMachine) {
  std::istringstream in(kAlibabaSnippet);
  AdapterReport report;
  AdapterOptions options;  // 96-core machines, default_disk 0.01
  const auto jobs = parse_alibaba2018(in, options, &report);

  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 100.0);
  EXPECT_DOUBLE_EQ(jobs[0].duration, 300.0);
  EXPECT_DOUBLE_EQ(jobs[0].demand[0], 2.0 / 96.0);  // plan_cpu 200 = 2 cores
  EXPECT_DOUBLE_EQ(jobs[0].demand[1], 0.04);        // plan_mem 4% of a machine
  EXPECT_DOUBLE_EQ(jobs[0].demand[2], 0.01);
  // plan_cpu 9600 = the whole 96-core machine; plan_mem 50%.
  EXPECT_DOUBLE_EQ(jobs[1].demand[0], 1.0);
  EXPECT_DOUBLE_EQ(jobs[1].demand[1], 0.5);

  EXPECT_EQ(report.rows_read, 5u);
  EXPECT_EQ(report.rows_filtered, 2u);   // Running + Failed
  EXPECT_EQ(report.rows_malformed, 1u);  // bad end time
}

TEST(AlibabaAdapter, MachineCoresOptionRescalesCpu) {
  std::istringstream in("t,1,j,1,Terminated,0,60,100,1\n");
  AdapterOptions options;
  options.alibaba_machine_cores = 4.0;
  const auto jobs = parse_alibaba2018(in, options);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(jobs[0].demand[0], 0.25);  // 1 core of a 4-core machine
}

// ---- Azure 2017 vmtable -----------------------------------------------------

constexpr const char* kAzureSnippet =
    "vm1,sub1,dep1,300,3900,50,20,45,Interactive,4,14\n"
    "vm2,sub2,dep2,0,300,90,70,88,Unknown,>24,>112\n"
    "vm3,sub3,dep3,600,?,50,20,45,Delay-insensitive,2,7\n";  // malformed

TEST(AzureAdapter, NormalizesBucketsPerHost) {
  std::istringstream in(kAzureSnippet);
  AdapterReport report;
  AdapterOptions options;  // 64-core, 256 GB hosts
  const auto jobs = parse_azure2017(in, options, &report);

  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[0].arrival, 300.0);
  EXPECT_DOUBLE_EQ(jobs[0].duration, 3600.0);
  EXPECT_DOUBLE_EQ(jobs[0].demand[0], 4.0 / 64.0);
  EXPECT_DOUBLE_EQ(jobs[0].demand[1], 14.0 / 256.0);
  EXPECT_DOUBLE_EQ(jobs[0].demand[2], 0.01);
  // Open-ended buckets parse as their bound.
  EXPECT_DOUBLE_EQ(jobs[1].demand[0], 24.0 / 64.0);
  EXPECT_DOUBLE_EQ(jobs[1].demand[1], 112.0 / 256.0);

  EXPECT_EQ(report.rows_read, 3u);
  EXPECT_EQ(report.rows_malformed, 1u);
}

TEST(AzureAdapter, OpenEndedBucketsAreAzureOnly) {
  // '>' belongs to Azure's bucket columns; in any other column (or any
  // other adapter) it must stay malformed, not parse as a number.
  std::istringstream azure_time("vm1,s,d,>300,3900,50,20,45,Interactive,4,14\n");
  AdapterReport report;
  EXPECT_TRUE(parse_azure2017(azure_time, {}, &report).empty());
  EXPECT_EQ(report.rows_malformed, 1u);

  std::istringstream google(">1000000,0,1,0,,0,u,0,0,0.1,0.1,0.01,0\n");
  EXPECT_TRUE(parse_google2011(google, &report).empty());
  EXPECT_EQ(report.rows_malformed, 1u);

  std::istringstream alibaba("t,1,j,1,Terminated,>0,60,100,1\n");
  EXPECT_TRUE(parse_alibaba2018(alibaba, {}, &report).empty());
  EXPECT_EQ(report.rows_malformed, 1u);
}

// ---- dispatch ---------------------------------------------------------------

TEST(Adapters, DispatchMatchesDirectCall) {
  std::istringstream in1(kAlibabaSnippet), in2(kAlibabaSnippet);
  const auto direct = parse_alibaba2018(in1);
  const auto dispatched = parse_raw_trace(TraceFormat::kAlibaba2018, in2);
  ASSERT_EQ(direct.size(), dispatched.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_DOUBLE_EQ(direct[i].arrival, dispatched[i].arrival);
    EXPECT_DOUBLE_EQ(direct[i].duration, dispatched[i].duration);
  }
}

TEST(Adapters, MissingFileThrows) {
  EXPECT_THROW(parse_raw_trace_file(TraceFormat::kGoogle2011, "/no/such/file.csv"),
               std::runtime_error);
}

TEST(Adapters, BadOptionsRejected) {
  AdapterOptions options;
  options.alibaba_machine_cores = 0.0;
  std::istringstream in("t,1,j,1,Terminated,0,60,100,1\n");
  EXPECT_THROW(parse_alibaba2018(in, options), std::invalid_argument);
}

}  // namespace
}  // namespace hcrl::workload::trace
