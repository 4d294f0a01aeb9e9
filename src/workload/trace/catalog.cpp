#include "src/workload/trace/catalog.hpp"

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "src/common/suggest.hpp"

#ifndef HCRL_DATA_DIR
#define HCRL_DATA_DIR ""
#endif

namespace hcrl::workload::trace {

void TraceCatalog::add(CatalogEntry entry) {
  if (entry.name.empty()) throw std::invalid_argument("TraceCatalog: empty entry name");
  if (contains(entry.name)) {
    throw std::invalid_argument("TraceCatalog: duplicate entry '" + entry.name + "'");
  }
  entries_.push_back(std::move(entry));
}

bool TraceCatalog::contains(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

const CatalogEntry& TraceCatalog::entry(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e;
  }
  throw std::invalid_argument("TraceCatalog: " +
                              common::unknown_key_message("dataset", name, names()));
}

std::vector<std::string> TraceCatalog::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

namespace {

std::vector<std::string> candidate_dirs() {
  std::vector<std::string> dirs;
  if (const char* dir = std::getenv("HCRL_TRACE_DIR")) {
    if (*dir != '\0') dirs.push_back(dir);
  }
  dirs.emplace_back("data/traces");
  dirs.emplace_back(HCRL_DATA_DIR);
  return dirs;
}

}  // namespace

std::string TraceCatalog::data_dir() {
  std::error_code ec;
  for (const auto& dir : candidate_dirs()) {
    if (std::filesystem::is_directory(dir, ec)) return dir;
  }
  return "";
}

std::string TraceCatalog::fixture_path(const std::string& name) const {
  const CatalogEntry& e = entry(name);
  // Probe per file, not per directory: a data/traces in the cwd that lacks
  // this fixture must not mask the compile-time fallback that has it.
  std::string probed;
  std::error_code ec;
  for (const auto& dir : candidate_dirs()) {
    const std::string candidate = dir + "/" + e.fixture_file;
    if (std::filesystem::is_regular_file(candidate, ec)) return candidate;
    probed += (probed.empty() ? "" : ", ") + dir;
  }
  throw std::runtime_error("TraceCatalog: fixture '" + e.fixture_file + "' for dataset '" +
                           name + "' not found (probed: " + probed +
                           "; set HCRL_TRACE_DIR or run from the repo root)");
}

std::vector<sim::Job> TraceCatalog::load(const std::string& name, AdapterReport* adapter_report,
                                         NormalizeReport* normalize_report) const {
  const CatalogEntry& e = entry(name);
  std::vector<sim::Job> raw =
      parse_raw_trace_file(e.format, fixture_path(name), e.adapter, adapter_report);
  return normalize(std::move(raw), e.normalize, normalize_report);
}

namespace {

TraceCatalog build_builtin() {
  TraceCatalog c;
  {
    CatalogEntry e;
    e.name = "google2011-sample";
    e.format = TraceFormat::kGoogle2011;
    e.fixture_file = "google2011_task_events.sample.csv";
    e.description = "Google ClusterData 2011 task_events slice (the paper's evaluation trace): "
                    "SUBMIT/SCHEDULE/FINISH event log with machine-normalized requests";
    e.source_url = "https://github.com/google/cluster-data/blob/master/ClusterData2011_2.md";
    e.fetch_hint = "scripts/fetch_traces.sh google2011  (gsutil, ~400 GB full)";
    // Requests in the public trace are already normalized to one machine;
    // only the floor/clip repair is needed.
    c.add(std::move(e));
  }
  {
    CatalogEntry e;
    e.name = "alibaba2018-sample";
    e.format = TraceFormat::kAlibaba2018;
    e.fixture_file = "alibaba2018_batch_task.sample.csv";
    e.description = "Alibaba ClusterData 2018 batch_task slice: terminated batch tasks with "
                    "plan_cpu (percent of a core) and plan_mem (percent of a machine)";
    e.source_url = "https://github.com/alibaba/clusterdata/tree/master/cluster-trace-v2018";
    e.fetch_hint = "scripts/fetch_traces.sh alibaba2018  (~270 GB full)";
    c.add(std::move(e));
  }
  {
    CatalogEntry e;
    e.name = "azure2017-sample";
    e.format = TraceFormat::kAzure2017;
    e.fixture_file = "azure2017_vmtable.sample.csv";
    e.description = "Azure 2017 VM trace slice: per-VM lifetimes with core/memory buckets "
                    "normalized by one host";
    e.source_url = "https://github.com/Azure/AzurePublicDataset/blob/master/AzurePublicDatasetV1.md";
    e.fetch_hint = "scripts/fetch_traces.sh azure2017  (~120 GB full)";
    // VM lifetimes run to days; the paper's [1 min, 2 h] clip keeps the
    // slice comparable with the job-scale traces.
    c.add(std::move(e));
  }
  return c;
}

}  // namespace

const TraceCatalog& TraceCatalog::builtin() {
  static const TraceCatalog catalog = build_builtin();
  return catalog;
}

}  // namespace hcrl::workload::trace
