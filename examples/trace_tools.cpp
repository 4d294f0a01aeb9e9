// trace_tool: the trace ingestion & calibration CLI.
//
//   trace_tools generate  [num_jobs] [out.csv]
//       Synthesize a Google-like trace (the original demo) and round-trip
//       it through trace_io.
//   trace_tools convert   <format> <raw.csv> <out.csv> [max_jobs]
//       Parse a raw public-trace slice (google2011 | alibaba2018 |
//       azure2017), normalize it, and write the canonical trace CSV.
//   trace_tools inspect   <trace.csv>
//       Print statistics and histograms of a canonical trace.
//   trace_tools slice     <trace.csv> <out.csv> <start_s> <end_s> [max_jobs]
//       Cut a time window (and optionally down-sample) from a canonical
//       trace; demands and durations pass through untouched.
//   trace_tools calibrate <trace.csv> [report.csv]
//       Fit synthetic-generator options to a canonical trace and print the
//       goodness-of-fit report (optionally as CSV for dashboards/CI).
//   trace_tools catalog
//       List the bundled datasets with provenance and fetch instructions.
//
// `convert` + `calibrate` on the bundled fixtures is the zero-download
// path: data/traces/*.sample.csv are checked-in slices in each dataset's
// raw schema; scripts/fetch_traces.sh documents getting the full data.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/stats.hpp"
#include "src/policy/registry.hpp"
#include "src/core/trace_source.hpp"  // core::infer_horizon_s
#include "src/workload/generator.hpp"
#include "src/workload/trace/adapters.hpp"
#include "src/workload/trace/calibrate.hpp"
#include "src/workload/trace/catalog.hpp"
#include "src/workload/trace/normalize.hpp"
#include "src/workload/trace_io.hpp"

namespace {

using namespace hcrl;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <command> ...\n"
               "  generate  [num_jobs] [out.csv]\n"
               "  convert   <google2011|alibaba2018|azure2017> <raw.csv> <out.csv> [max_jobs]\n"
               "  inspect   <trace.csv>\n"
               "  slice     <trace.csv> <out.csv> <start_s> <end_s> [max_jobs]\n"
               "  calibrate <trace.csv> [report.csv]\n"
               "  catalog\n"
               "  --list-policies\n",
               argv0);
  return 1;
}

void print_summary(const std::vector<sim::Job>& jobs, double horizon_s) {
  const auto stats = workload::compute_stats(jobs, horizon_s);
  std::printf("%s\n", stats.to_string().c_str());
  std::printf("offered CPU load on a 6-machine cluster: %.1f%%; on 30: %.1f%%\n",
              100.0 * stats.cpu_load(6), 100.0 * stats.cpu_load(30));
}

int cmd_generate(int argc, char** argv) {
  const std::size_t jobs = argc > 2 ? common::parse_count(argv[2], "num_jobs", 1) : 20000;
  const std::string path = argc > 3 ? argv[3] : "/tmp/hcrl_trace.csv";

  workload::GeneratorOptions opts;
  opts.num_jobs = jobs;
  opts.horizon_s = sim::kSecondsPerWeek * static_cast<double>(jobs) / 95000.0;
  opts.seed = 2011;

  std::printf("generating %zu jobs over %.1f hours...\n", jobs, opts.horizon_s / 3600.0);
  const auto trace = workload::GoogleTraceGenerator(opts).generate();
  print_summary(trace, opts.horizon_s);

  workload::write_trace_file(path, trace);
  std::printf("wrote %s\n", path.c_str());
  const auto loaded = workload::read_trace_file(path);
  std::printf("read back %zu jobs; round-trip %s\n", loaded.size(),
              loaded.size() == trace.size() ? "OK" : "MISMATCH");
  return loaded.size() == trace.size() ? 0 : 1;
}

int cmd_convert(int argc, char** argv) {
  if (argc < 5) return usage(argv[0]);
  const auto format = workload::trace::parse_format(argv[2]);
  const std::string raw_path = argv[3];
  const std::string out_path = argv[4];

  workload::trace::AdapterReport adapter_report;
  auto raw = workload::trace::parse_raw_trace_file(format, raw_path, {}, &adapter_report);
  std::printf("adapter[%s]: %s\n", workload::trace::to_string(format).c_str(),
              adapter_report.to_string().c_str());

  workload::trace::NormalizeOptions norm;
  if (argc > 5) norm.max_jobs = common::parse_count(argv[5], "max_jobs");
  workload::trace::NormalizeReport norm_report;
  const auto jobs = workload::trace::normalize(std::move(raw), norm, &norm_report);
  std::printf("normalize: %s\n", norm_report.to_string().c_str());

  workload::write_trace_file(out_path, jobs);
  std::printf("wrote %zu jobs to %s\n", jobs.size(), out_path.c_str());
  print_summary(jobs, core::infer_horizon_s(jobs));
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const auto jobs = workload::read_trace_file(argv[2]);
  if (jobs.empty()) {
    std::printf("empty trace\n");
    return 0;
  }
  print_summary(jobs, core::infer_horizon_s(jobs));

  double max_dur = 0.0, max_cpu = 0.0;
  for (const auto& j : jobs) {
    max_dur = std::max(max_dur, j.duration);
    max_cpu = std::max(max_cpu, j.demand[0]);
  }
  common::Histogram duration_hist(0.0, max_dur * 1.001, 12);
  common::Histogram cpu_hist(0.0, max_cpu * 1.001, 10);
  common::RunningStats gaps;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    duration_hist.add(jobs[i].duration);
    cpu_hist.add(jobs[i].demand[0]);
    if (i > 0) gaps.add(jobs[i].arrival - jobs[i - 1].arrival);
  }
  std::printf("\njob duration histogram (s):\n%s\n", duration_hist.to_string(40).c_str());
  std::printf("cpu request histogram:\n%s\n", cpu_hist.to_string(40).c_str());
  std::printf("inter-arrival: mean %.2f s, stddev %.2f s, max %.1f s\n", gaps.mean(),
              gaps.stddev(), gaps.max());
  return 0;
}

int cmd_slice(int argc, char** argv) {
  if (argc < 6) return usage(argv[0]);
  const std::string out_path = argv[3];

  workload::trace::NormalizeOptions norm;
  norm.window_start_s = common::parse_number(argv[4], "start_s");
  norm.window_end_s = common::parse_number(argv[5], "end_s");
  if (argc > 6) norm.max_jobs = common::parse_count(argv[6], "max_jobs");
  // Pass-through for everything but the window: canonical traces already
  // satisfy the simulator's ranges.
  norm.min_duration_s = std::numeric_limits<double>::min();
  norm.max_duration_s = std::numeric_limits<double>::infinity();
  norm.resource_floor = std::numeric_limits<double>::min();

  workload::trace::NormalizeReport report;
  const auto sliced =
      workload::trace::normalize(workload::read_trace_file(argv[2]), norm, &report);
  std::printf("slice: %s\n", report.to_string().c_str());
  workload::write_trace_file(out_path, sliced);
  std::printf("wrote %zu jobs to %s\n", sliced.size(), out_path.c_str());
  return 0;
}

int cmd_calibrate(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const auto jobs = workload::read_trace_file(argv[2]);
  const auto result = workload::trace::calibrate(jobs);
  const auto& fit = result.options;

  std::printf("%s\n\n", result.report.to_string().c_str());
  std::printf("fitted GeneratorOptions (synthetic twin of this trace):\n");
  std::printf("  num_jobs=%zu horizon_s=%.1f seed=%llu\n", fit.num_jobs, fit.horizon_s,
              static_cast<unsigned long long>(fit.seed));
  std::printf("  duration: lognormal(mu=%.3f, sigma=%.3f) clip [%.1f, %.1f] s\n",
              fit.duration_log_mean, fit.duration_log_sigma, fit.min_duration_s,
              fit.max_duration_s);
  std::printf("  cpu: %.4f + Exp(%.4f) clip [%.4f, %.4f]\n", fit.cpu_min, fit.cpu_exp_mean,
              fit.cpu_min, fit.cpu_max);
  std::printf("  mem: cpu * U(%.3f, %.3f) clip [%.4f, %.4f]\n", fit.mem_ratio_lo,
              fit.mem_ratio_hi, fit.mem_min, fit.mem_max);
  std::printf("  disk: U(%.4f, %.4f)\n", fit.disk_lo, fit.disk_hi);
  std::printf("  arrivals: burst_multiplier=%.2f diurnal_amplitude=%.2f\n",
              fit.burst_multiplier, fit.diurnal_amplitude);

  if (argc > 3) {
    std::ofstream out(argv[3]);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", argv[3]);
      return 1;
    }
    result.report.write_csv(out);
    std::printf("wrote fit report to %s\n", argv[3]);
  }
  return 0;
}

int cmd_catalog() {
  const auto& catalog = workload::trace::TraceCatalog::builtin();
  const std::string dir = workload::trace::TraceCatalog::data_dir();
  std::printf("data directory: %s\n\n", dir.empty() ? "(not found)" : dir.c_str());
  for (const auto& name : catalog.names()) {
    const auto& e = catalog.entry(name);
    std::printf("%s  [%s]\n", name.c_str(), workload::trace::to_string(e.format).c_str());
    std::printf("  %s\n", e.description.c_str());
    std::printf("  fixture: %s\n", e.fixture_file.c_str());
    std::printf("  source:  %s\n", e.source_url.c_str());
    std::printf("  fetch:   %s\n\n", e.fetch_hint.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(argc, argv);
    if (command == "convert") return cmd_convert(argc, argv);
    if (command == "inspect") return cmd_inspect(argc, argv);
    if (command == "slice") return cmd_slice(argc, argv);
    if (command == "calibrate") return cmd_calibrate(argc, argv);
    if (command == "catalog") return cmd_catalog();
    if (command == "--list-policies") {
      policy::print_policy_listing(std::cout);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
