#include "src/workload/trace_io.hpp"

#include <fstream>
#include <stdexcept>

#include "src/common/csv.hpp"

namespace hcrl::workload {

namespace {
constexpr const char* kResourceNames[] = {"cpu", "memory", "disk"};
}

void write_trace(std::ostream& out, const std::vector<sim::Job>& jobs) {
  common::CsvWriter writer(out);
  const std::size_t dims = jobs.empty() ? 3 : jobs.front().demand.dims();
  std::vector<std::string> header = {"id", "arrival", "duration"};
  for (std::size_t d = 0; d < dims; ++d) {
    header.push_back(d < 3 ? kResourceNames[d] : "resource" + std::to_string(d));
  }
  writer.write_row(header);
  for (const auto& job : jobs) {
    // The id column is written as an integer (a double-typed column would
    // lose ids above 2^53).
    std::vector<std::string> row = {std::to_string(job.id),
                                    common::format_csv_double(job.arrival),
                                    common::format_csv_double(job.duration)};
    for (std::size_t d = 0; d < job.demand.dims(); ++d) {
      row.push_back(common::format_csv_double(job.demand[d]));
    }
    writer.write_row(row);
  }
}

void write_trace_file(const std::string& path, const std::vector<sim::Job>& jobs) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_trace_file: cannot open " + path);
  write_trace(out, jobs);
}

namespace {

[[noreturn]] void fail_at(std::size_t line, const std::string& what) {
  throw std::invalid_argument("read_trace: line " + std::to_string(line) + ": " + what);
}

/// Strict full-field numeric parse; names the column and quotes the value
/// on failure so a malformed row in a million-line trace is findable.
double parse_field(const std::string& value, const std::string& column, std::size_t line) {
  if (const auto v = common::parse_csv_double(value)) return *v;
  fail_at(line, "non-numeric value '" + value + "' in column '" + column + "'");
}

sim::JobId parse_id_field(const std::string& value, std::size_t line) {
  if (const auto v = common::parse_csv_int(value)) return *v;
  fail_at(line, "non-integer value '" + value + "' in column 'id'");
}

}  // namespace

std::vector<sim::Job> read_trace(std::istream& in) {
  common::CsvReader reader(in);
  std::vector<std::string> fields;
  if (!reader.read_row(fields)) throw std::invalid_argument("read_trace: empty input");
  if (fields.size() < 4 || fields[0] != "id") {
    fail_at(reader.line(),
            "bad header (expected 'id,arrival,duration,<resource columns>')");
  }
  const std::vector<std::string> header = fields;
  const std::size_t dims = header.size() - 3;
  if (dims > sim::ResourceVector::kMaxDims) {
    fail_at(reader.line(), std::to_string(dims) + " resource columns exceed the limit of " +
                               std::to_string(sim::ResourceVector::kMaxDims));
  }

  std::vector<sim::Job> jobs;
  double prev_arrival = -1.0;
  while (reader.read_row(fields)) {
    const std::size_t line = reader.line();
    if (fields.size() != dims + 3) {
      fail_at(line, "expected " + std::to_string(dims + 3) + " columns, got " +
                        std::to_string(fields.size()));
    }
    sim::Job job;
    job.id = parse_id_field(fields[0], line);
    job.arrival = parse_field(fields[1], header[1], line);
    job.duration = parse_field(fields[2], header[2], line);
    job.demand = sim::ResourceVector(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      job.demand[d] = parse_field(fields[3 + d], header[3 + d], line);
    }
    try {
      job.validate(dims);
    } catch (const std::exception& e) {
      fail_at(line, e.what());
    }
    if (job.arrival < prev_arrival) {
      fail_at(line, "arrivals not sorted (" + fields[1] + " after " +
                        std::to_string(prev_arrival) + ")");
    }
    prev_arrival = job.arrival;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<sim::Job> read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_trace_file: cannot open " + path);
  return read_trace(in);
}

}  // namespace hcrl::workload
