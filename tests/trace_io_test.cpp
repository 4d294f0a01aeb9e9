#include "src/workload/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "src/workload/generator.hpp"

namespace hcrl::workload {
namespace {

std::vector<sim::Job> sample_jobs() {
  std::vector<sim::Job> jobs;
  for (int i = 0; i < 5; ++i) {
    sim::Job j;
    j.id = i;
    j.arrival = i * 3.25;
    j.duration = 60.0 + i;
    j.demand = sim::ResourceVector{0.1 + 0.01 * i, 0.2, 0.05};
    jobs.push_back(j);
  }
  return jobs;
}

TEST(TraceIo, RoundTripPreservesValues) {
  const auto jobs = sample_jobs();
  std::stringstream buf;
  write_trace(buf, jobs);
  const auto loaded = read_trace(buf);
  ASSERT_EQ(loaded.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(loaded[i].id, jobs[i].id);
    EXPECT_DOUBLE_EQ(loaded[i].arrival, jobs[i].arrival);
    EXPECT_DOUBLE_EQ(loaded[i].duration, jobs[i].duration);
    for (std::size_t d = 0; d < 3; ++d) {
      EXPECT_DOUBLE_EQ(loaded[i].demand[d], jobs[i].demand[d]);
    }
  }
}

TEST(TraceIo, HeaderIsWritten) {
  std::stringstream buf;
  write_trace(buf, sample_jobs());
  std::string header;
  std::getline(buf, header);
  EXPECT_EQ(header, "id,arrival,duration,cpu,memory,disk");
}

TEST(TraceIo, EmptyInputRejected) {
  std::stringstream buf("");
  EXPECT_THROW(read_trace(buf), std::invalid_argument);
}

TEST(TraceIo, BadHeaderRejected) {
  std::stringstream buf("foo,bar,baz,qux\n");
  EXPECT_THROW(read_trace(buf), std::invalid_argument);
}

TEST(TraceIo, WrongColumnCountRejected) {
  std::stringstream buf("id,arrival,duration,cpu\n1,0.0,60.0\n");
  EXPECT_THROW(read_trace(buf), std::invalid_argument);
}

TEST(TraceIo, NonNumericFieldRejected) {
  std::stringstream buf("id,arrival,duration,cpu\n1,zero,60.0,0.1\n");
  EXPECT_THROW(read_trace(buf), std::invalid_argument);
}

TEST(TraceIo, UnsortedArrivalsRejected) {
  std::stringstream buf("id,arrival,duration,cpu\n1,10.0,60.0,0.1\n2,5.0,60.0,0.1\n");
  EXPECT_THROW(read_trace(buf), std::invalid_argument);
}

TEST(TraceIo, InvalidJobFieldsRejected) {
  std::stringstream buf("id,arrival,duration,cpu\n1,0.0,0.0,0.1\n");  // duration 0
  EXPECT_THROW(read_trace(buf), std::invalid_argument);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/hcrl_trace_test.csv";
  write_trace_file(path, sample_jobs());
  const auto loaded = read_trace_file(path);
  EXPECT_EQ(loaded.size(), 5u);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/no/such/trace.csv"), std::runtime_error);
}

// ---- diagnostics: malformed rows name the line and the offending field ----

std::string error_message_of(const std::string& csv) {
  std::stringstream buf(csv);
  try {
    read_trace(buf);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument for: " << csv;
  return "";
}

TEST(TraceIo, NonNumericErrorNamesLineColumnAndValue) {
  const std::string msg = error_message_of(
      "id,arrival,duration,cpu\n1,0.0,60.0,0.1\n2,zero,60.0,0.1\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'arrival'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'zero'"), std::string::npos) << msg;
}

TEST(TraceIo, ColumnCountErrorNamesLine) {
  const std::string msg = error_message_of("id,arrival,duration,cpu\n1,0.0,60.0\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("expected 4 columns, got 3"), std::string::npos) << msg;
}

TEST(TraceIo, UnsortedErrorNamesLine) {
  const std::string msg = error_message_of(
      "id,arrival,duration,cpu\n1,10.0,60.0,0.1\n2,5.0,60.0,0.1\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("not sorted"), std::string::npos) << msg;
}

TEST(TraceIo, InvalidJobErrorNamesLine) {
  const std::string msg = error_message_of("id,arrival,duration,cpu\n7,0.0,0.0,0.1\n");
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duration"), std::string::npos) << msg;
}

TEST(TraceIo, NonFiniteValuesRejected) {
  // std::stod consumes "nan"/"inf"; NaN then slips past every range check
  // (all comparisons false), so the reader must reject non-finite cells.
  const std::string nan_msg = error_message_of("id,arrival,duration,cpu\n2,nan,60.0,0.1\n");
  EXPECT_NE(nan_msg.find("'nan'"), std::string::npos) << nan_msg;
  const std::string inf_msg = error_message_of("id,arrival,duration,cpu\n2,0.0,inf,0.1\n");
  EXPECT_NE(inf_msg.find("'inf'"), std::string::npos) << inf_msg;
}

TEST(TraceIo, PartiallyNumericFieldRejected) {
  // std::stod would accept the "60.0" prefix; the reader must not.
  const std::string msg = error_message_of("id,arrival,duration,cpu\n1,0.0,60.0x,0.1\n");
  EXPECT_NE(msg.find("'60.0x'"), std::string::npos) << msg;
}

TEST(TraceIo, BlankLinesCountTowardReportedLineNumbers) {
  const std::string msg = error_message_of(
      "id,arrival,duration,cpu\n\n1,0.0,60.0,0.1\n\n2,bad,60.0,0.1\n");
  EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
}

TEST(TraceIo, SixtyFourBitIdsRoundTripExactly) {
  // Above 2^53 a double-typed id column would silently round.
  sim::Job j;
  j.id = 9007199254740993LL;  // 2^53 + 1
  j.arrival = 0.0;
  j.duration = 60.0;
  j.demand = sim::ResourceVector{0.1, 0.1, 0.01};
  std::stringstream buf;
  write_trace(buf, {j});
  const auto loaded = read_trace(buf);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].id, 9007199254740993LL);
}

TEST(TraceIo, FractionalIdRejected) {
  const std::string msg = error_message_of("id,arrival,duration,cpu\n3.9,0.0,60.0,0.1\n");
  EXPECT_NE(msg.find("non-integer"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'3.9'"), std::string::npos) << msg;
}

TEST(TraceIo, CrlfAndTrailingNewlinesTolerated) {
  std::stringstream buf(
      "id,arrival,duration,cpu\r\n1,0.0,60.0,0.1\r\n2,5.5,61.0,0.2\r\n\r\n\n");
  const auto jobs = read_trace(buf);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[1].arrival, 5.5);
  EXPECT_DOUBLE_EQ(jobs[1].demand[0], 0.2);
}

TEST(TraceIo, FourResourceTraceRoundTrips) {
  sim::Job j;
  j.id = 4;
  j.arrival = 1.5;
  j.duration = 60.0;
  j.demand = sim::ResourceVector{0.1, 0.2, 0.3, 0.4};
  std::stringstream buf;
  write_trace(buf, {j});
  std::string header;
  std::getline(buf, header);
  EXPECT_EQ(header, "id,arrival,duration,cpu,memory,disk,resource3");
  buf.seekg(0);
  const auto loaded = read_trace(buf);
  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_EQ(loaded[0].demand.dims(), 4u);
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_DOUBLE_EQ(loaded[0].demand[d], j.demand[d]);
  }
}

TEST(TraceIo, FiveResourceTraceRejected) {
  const std::string msg = error_message_of(
      "id,arrival,duration,cpu,memory,disk,resource3,resource4\n"
      "1,0.0,60.0,0.1,0.1,0.1,0.1,0.1\n");
  EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("5 resource columns exceed the limit of 4"), std::string::npos) << msg;
}

TEST(TraceIo, GeneratedTraceRoundTrips) {
  GeneratorOptions o;
  o.num_jobs = 500;
  o.horizon_s = 36000.0;
  const auto jobs = GoogleTraceGenerator(o).generate();
  std::stringstream buf;
  write_trace(buf, jobs);
  const auto loaded = read_trace(buf);
  ASSERT_EQ(loaded.size(), jobs.size());
  EXPECT_DOUBLE_EQ(loaded[250].arrival, jobs[250].arrival);
  EXPECT_DOUBLE_EQ(loaded[250].demand[2], jobs[250].demand[2]);
}

}  // namespace
}  // namespace hcrl::workload
