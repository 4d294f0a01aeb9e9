#include "src/workload/trace/adapters.hpp"

#include <cstddef>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/common/csv.hpp"
#include "src/common/suggest.hpp"

namespace hcrl::workload::trace {

namespace {

// Strict full-field parses shared with trace_io (common/csv.hpp): empty
// and partial matches fail, and the caller decides the error policy.
std::optional<double> parse_double(const std::string& field) {
  return common::parse_csv_double(field);
}

std::optional<long long> parse_int(const std::string& field) {
  return common::parse_csv_int(field);
}

/// Azure bucket columns only: an open-ended bucket (">24") parses as its
/// bound. Everywhere else a stray '>' must stay malformed.
std::optional<double> parse_bucket(const std::string& field) {
  if (!field.empty() && field[0] == '>') return parse_double(field.substr(1));
  return parse_double(field);
}

}  // namespace

void AdapterOptions::validate() const {
  if (alibaba_machine_cores <= 0.0 || azure_host_cores <= 0.0 || azure_host_memory_gb <= 0.0) {
    throw std::invalid_argument("AdapterOptions: machine capacities must be > 0");
  }
  if (default_disk < 0.0) {
    throw std::invalid_argument("AdapterOptions: default_disk must be >= 0");
  }
}

std::string AdapterReport::to_string() const {
  std::ostringstream os;
  os << "rows_read=" << rows_read << " jobs_emitted=" << jobs_emitted
     << " rows_malformed=" << rows_malformed << " rows_filtered=" << rows_filtered
     << " unmatched_tasks=" << unmatched_tasks;
  return os.str();
}

TraceFormat parse_format(const std::string& name) {
  if (name == "google2011") return TraceFormat::kGoogle2011;
  if (name == "alibaba2018") return TraceFormat::kAlibaba2018;
  if (name == "azure2017") return TraceFormat::kAzure2017;
  throw std::invalid_argument(
      "parse_format: " +
      common::unknown_key_message("trace format", name, {"google2011", "alibaba2018", "azure2017"}));
}

std::string to_string(TraceFormat format) {
  switch (format) {
    case TraceFormat::kGoogle2011: return "google2011";
    case TraceFormat::kAlibaba2018: return "alibaba2018";
    case TraceFormat::kAzure2017: return "azure2017";
  }
  return "unknown";
}

// ---- Google ClusterData 2011 task_events -----------------------------------

namespace {

// task_events column indices (schema.csv of the public dataset).
constexpr std::size_t kGTime = 0;
constexpr std::size_t kGJobId = 2;
constexpr std::size_t kGTaskIndex = 3;
constexpr std::size_t kGEventType = 5;
constexpr std::size_t kGCpu = 9;
constexpr std::size_t kGMemory = 10;
constexpr std::size_t kGDisk = 11;
constexpr std::size_t kGColumns = 13;

enum GoogleEvent : long long {
  kSubmit = 0,
  kSchedule = 1,
  kEvict = 2,
  kFail = 3,
  kFinish = 4,
  kKill = 5,
  kLost = 6,
};

struct PendingTask {
  double submit_s = 0.0;
  std::optional<double> schedule_s;
  double cpu = 0.0, memory = 0.0, disk = 0.0;
};

}  // namespace

std::vector<sim::Job> parse_google2011(std::istream& in, AdapterReport* report) {
  common::CsvReader reader(in);
  std::vector<std::string> fields;
  AdapterReport local;
  std::map<std::pair<long long, long long>, PendingTask> pending;
  std::vector<sim::Job> jobs;

  while (reader.read_row(fields)) {
    ++local.rows_read;
    if (fields.size() != kGColumns) {
      ++local.rows_malformed;
      continue;
    }
    const auto time_us = parse_double(fields[kGTime]);
    const auto job_id = parse_int(fields[kGJobId]);
    const auto task_index = parse_int(fields[kGTaskIndex]);
    const auto event = parse_int(fields[kGEventType]);
    if (!time_us || !job_id || !task_index || !event) {
      ++local.rows_malformed;
      continue;
    }
    const std::pair<long long, long long> key{*job_id, *task_index};
    const double t_s = *time_us / 1e6;

    switch (*event) {
      case kSubmit: {
        // Requests may be blank in the public trace; blanks become 0 and the
        // normalization floor lifts them into the simulator's range. A
        // non-blank field that fails to parse is data corruption and must
        // surface in the report, not coerce to 0.
        const auto request = [](const std::string& field) {
          return field.empty() ? std::optional<double>(0.0) : parse_double(field);
        };
        const auto cpu = request(fields[kGCpu]);
        const auto memory = request(fields[kGMemory]);
        const auto disk = request(fields[kGDisk]);
        if (!cpu || !memory || !disk) {
          ++local.rows_malformed;
          break;
        }
        PendingTask task;
        task.submit_s = t_s;
        task.cpu = *cpu;
        task.memory = *memory;
        task.disk = *disk;
        pending[key] = task;  // re-SUBMIT replaces the stale entry
        break;
      }
      case kSchedule: {
        const auto it = pending.find(key);
        if (it == pending.end()) {
          ++local.rows_filtered;  // scheduled before the slice started
        } else {
          it->second.schedule_s = t_s;
        }
        break;
      }
      case kFinish: {
        const auto it = pending.find(key);
        if (it == pending.end()) {
          ++local.rows_filtered;
          break;
        }
        const PendingTask& task = it->second;
        sim::Job job;
        job.id = static_cast<sim::JobId>(jobs.size());
        job.arrival = task.submit_s;
        job.duration = t_s - task.schedule_s.value_or(task.submit_s);
        job.demand = sim::ResourceVector{task.cpu, task.memory, task.disk};
        jobs.push_back(std::move(job));
        pending.erase(it);
        break;
      }
      case kEvict:
      case kFail:
      case kKill:
      case kLost:
        if (pending.erase(key) > 0) ++local.unmatched_tasks;
        break;
      default:
        ++local.rows_filtered;  // UPDATE_PENDING / UPDATE_RUNNING and friends
        break;
    }
  }
  local.unmatched_tasks += pending.size();  // submitted but never finished
  local.jobs_emitted = jobs.size();
  if (report != nullptr) *report = local;
  return jobs;
}

// ---- Alibaba ClusterData 2018 batch_task -----------------------------------

namespace {
constexpr std::size_t kAStatus = 4;
constexpr std::size_t kAStart = 5;
constexpr std::size_t kAEnd = 6;
constexpr std::size_t kAPlanCpu = 7;
constexpr std::size_t kAPlanMem = 8;
constexpr std::size_t kAColumns = 9;
}  // namespace

std::vector<sim::Job> parse_alibaba2018(std::istream& in, const AdapterOptions& options,
                                        AdapterReport* report) {
  options.validate();
  common::CsvReader reader(in);
  std::vector<std::string> fields;
  AdapterReport local;
  std::vector<sim::Job> jobs;

  while (reader.read_row(fields)) {
    ++local.rows_read;
    if (fields.size() != kAColumns) {
      ++local.rows_malformed;
      continue;
    }
    if (fields[kAStatus] != "Terminated") {
      ++local.rows_filtered;  // Running/Failed/Waiting tasks have no duration
      continue;
    }
    const auto start = parse_double(fields[kAStart]);
    const auto end = parse_double(fields[kAEnd]);
    const auto plan_cpu = parse_double(fields[kAPlanCpu]);
    const auto plan_mem = parse_double(fields[kAPlanMem]);
    if (!start || !end || !plan_cpu || !plan_mem) {
      ++local.rows_malformed;
      continue;
    }
    sim::Job job;
    job.id = static_cast<sim::JobId>(jobs.size());
    job.arrival = *start;
    job.duration = *end - *start;
    job.demand = sim::ResourceVector{*plan_cpu / 100.0 / options.alibaba_machine_cores,
                                     *plan_mem / 100.0, options.default_disk};
    jobs.push_back(std::move(job));
  }
  local.jobs_emitted = jobs.size();
  if (report != nullptr) *report = local;
  return jobs;
}

// ---- Azure 2017 vmtable ----------------------------------------------------

namespace {
constexpr std::size_t kVCreated = 3;
constexpr std::size_t kVDeleted = 4;
constexpr std::size_t kVCores = 9;
constexpr std::size_t kVMemoryGb = 10;
constexpr std::size_t kVColumns = 11;
}  // namespace

std::vector<sim::Job> parse_azure2017(std::istream& in, const AdapterOptions& options,
                                      AdapterReport* report) {
  options.validate();
  common::CsvReader reader(in);
  std::vector<std::string> fields;
  AdapterReport local;
  std::vector<sim::Job> jobs;

  while (reader.read_row(fields)) {
    ++local.rows_read;
    if (fields.size() != kVColumns) {
      ++local.rows_malformed;
      continue;
    }
    const auto created = parse_double(fields[kVCreated]);
    const auto deleted = parse_double(fields[kVDeleted]);
    const auto cores = parse_bucket(fields[kVCores]);
    const auto memory_gb = parse_bucket(fields[kVMemoryGb]);
    if (!created || !deleted || !cores || !memory_gb) {
      ++local.rows_malformed;
      continue;
    }
    sim::Job job;
    job.id = static_cast<sim::JobId>(jobs.size());
    job.arrival = *created;
    job.duration = *deleted - *created;
    job.demand = sim::ResourceVector{*cores / options.azure_host_cores,
                                     *memory_gb / options.azure_host_memory_gb,
                                     options.default_disk};
    jobs.push_back(std::move(job));
  }
  local.jobs_emitted = jobs.size();
  if (report != nullptr) *report = local;
  return jobs;
}

// ---- dispatch --------------------------------------------------------------

std::vector<sim::Job> parse_raw_trace(TraceFormat format, std::istream& in,
                                      const AdapterOptions& options, AdapterReport* report) {
  switch (format) {
    case TraceFormat::kGoogle2011: return parse_google2011(in, report);
    case TraceFormat::kAlibaba2018: return parse_alibaba2018(in, options, report);
    case TraceFormat::kAzure2017: return parse_azure2017(in, options, report);
  }
  throw std::invalid_argument("parse_raw_trace: unknown format");
}

std::vector<sim::Job> parse_raw_trace_file(TraceFormat format, const std::string& path,
                                           const AdapterOptions& options, AdapterReport* report) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("parse_raw_trace_file: cannot open " + path);
  return parse_raw_trace(format, in, options, report);
}

}  // namespace hcrl::workload::trace
