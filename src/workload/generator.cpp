#include "src/workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace hcrl::workload {

namespace {

/// The arrival process whose long-run effective rate produces num_jobs over
/// the horizon in expectation.
ArrivalProcessOptions arrival_options(const GeneratorOptions& opts) {
  ArrivalProcessOptions ap;
  ap.diurnal_amplitude = opts.diurnal_amplitude;
  ap.burst_multiplier = opts.burst_multiplier;
  ap.mean_burst_s = opts.mean_burst_s;
  ap.mean_calm_s = opts.mean_calm_s;
  const double target_rate = static_cast<double>(opts.num_jobs) / opts.horizon_s;
  ap.base_rate_hz = 1.0;  // placeholder to pass validation
  const double duty_gain = ap.effective_rate();
  ap.base_rate_hz = target_rate / duty_gain;
  return ap;
}

}  // namespace

void GeneratorOptions::validate() const {
  if (num_jobs == 0) throw std::invalid_argument("GeneratorOptions: num_jobs must be > 0");
  // The arrival process steps through every burst/calm switch (a few
  // hundred seconds apart at the defaults) up to each arrival, so generation
  // time grows with the horizon; the cap turns a hang into a config error.
  constexpr double kMaxHorizonS = 1e10;
  if (!(horizon_s > 0.0 && horizon_s <= kMaxHorizonS)) {
    throw std::invalid_argument(
        "GeneratorOptions: horizon must be > 0 and at most 1e10 s (about 317 years); "
        "trace generation steps through every burst/calm switch up to the horizon");
  }
  if (!(min_duration_s > 0.0 && max_duration_s >= min_duration_s && std::isfinite(max_duration_s))) {
    throw std::invalid_argument("GeneratorOptions: bad duration bounds");
  }
  if (!std::isfinite(duration_log_mean) ||
      !(duration_log_sigma >= 0.0 && std::isfinite(duration_log_sigma))) {
    throw std::invalid_argument("GeneratorOptions: bad lognormal duration parameters");
  }
  if (!(cpu_min > 0.0 && cpu_max <= 1.0 && cpu_max >= cpu_min)) {
    throw std::invalid_argument("GeneratorOptions: bad cpu bounds");
  }
  if (!(cpu_exp_mean > 0.0 && std::isfinite(cpu_exp_mean))) {
    throw std::invalid_argument("GeneratorOptions: cpu_exp_mean must be finite and > 0");
  }
  if (!(mem_min > 0.0 && mem_max <= 1.0 && mem_max >= mem_min)) {
    throw std::invalid_argument("GeneratorOptions: bad memory bounds");
  }
  if (!(disk_lo > 0.0 && disk_hi <= 1.0 && disk_hi >= disk_lo)) {
    throw std::invalid_argument("GeneratorOptions: bad disk bounds");
  }
  if (!(mem_ratio_lo > 0.0 && mem_ratio_hi >= mem_ratio_lo && std::isfinite(mem_ratio_hi))) {
    throw std::invalid_argument("GeneratorOptions: bad memory ratio");
  }
  arrival_options(*this).validate();
}

double TraceStats::cpu_load(std::size_t num_servers) const {
  if (num_servers == 0 || horizon_s <= 0.0) return 0.0;
  return total_cpu_seconds / (horizon_s * static_cast<double>(num_servers));
}

std::string TraceStats::to_string() const {
  std::ostringstream os;
  os << "jobs=" << num_jobs << " horizon=" << horizon_s / 3600.0 << "h"
     << " mean_interarrival=" << mean_interarrival_s << "s"
     << " mean_duration=" << mean_duration_s << "s"
     << " mean_cpu=" << mean_cpu << " mean_mem=" << mean_memory << " mean_disk=" << mean_disk;
  return os.str();
}

GoogleTraceGenerator::GoogleTraceGenerator(const GeneratorOptions& opts) : opts_(opts) {
  opts_.validate();
}

sim::Job GoogleTraceGenerator::make_job(sim::JobId id, sim::Time arrival,
                                        common::Rng& rng) const {
  sim::Job job;
  job.id = id;
  job.arrival = arrival;
  job.duration = std::clamp(std::exp(rng.normal(opts_.duration_log_mean, opts_.duration_log_sigma)),
                            opts_.min_duration_s, opts_.max_duration_s);
  const double cpu =
      std::clamp(opts_.cpu_min + rng.exponential(1.0 / opts_.cpu_exp_mean), opts_.cpu_min,
                 opts_.cpu_max);
  const double mem = std::clamp(cpu * rng.uniform(opts_.mem_ratio_lo, opts_.mem_ratio_hi),
                                opts_.mem_min, opts_.mem_max);
  const double disk = rng.uniform(opts_.disk_lo, opts_.disk_hi);
  job.demand = sim::ResourceVector{cpu, mem, disk};
  return job;
}

std::vector<sim::Job> GoogleTraceGenerator::generate() {
  common::Rng rng(opts_.seed);
  ArrivalProcess process(arrival_options(opts_), rng.fork());
  // The thinning draw count is random; stop at, or extend to, exactly
  // num_jobs so experiments are comparable across seeds (the paper fixes
  // 95,000 jobs). Arrivals are drawn up to the horizon; the first draw past
  // it is discarded and the process restarts from the horizon.
  std::vector<sim::Job> jobs;
  jobs.reserve(opts_.num_jobs);
  double t = 0.0;
  bool past_horizon = false;
  for (std::size_t i = 0; i < opts_.num_jobs; ++i) {
    t = process.next_after(t);
    if (!past_horizon && t >= opts_.horizon_s) {
      past_horizon = true;
      t = process.next_after(opts_.horizon_s);
    }
    jobs.push_back(make_job(static_cast<sim::JobId>(i), t, rng));
  }
  return jobs;
}

TraceStats compute_stats(const std::vector<sim::Job>& jobs, double horizon_s) {
  TraceStats s;
  s.num_jobs = jobs.size();
  s.horizon_s = horizon_s;
  if (jobs.empty()) return s;
  double dur = 0.0, cpu = 0.0, mem = 0.0, disk = 0.0, cpu_seconds = 0.0;
  for (const auto& j : jobs) {
    dur += j.duration;
    cpu += j.demand[0];
    if (j.demand.dims() > 1) mem += j.demand[1];
    if (j.demand.dims() > 2) disk += j.demand[2];
    cpu_seconds += j.duration * j.demand[0];
  }
  const double n = static_cast<double>(jobs.size());
  s.mean_duration_s = dur / n;
  s.mean_cpu = cpu / n;
  s.mean_memory = mem / n;
  s.mean_disk = disk / n;
  s.total_cpu_seconds = cpu_seconds;
  if (jobs.size() > 1) {
    s.mean_interarrival_s = (jobs.back().arrival - jobs.front().arrival) / (n - 1.0);
  }
  return s;
}

}  // namespace hcrl::workload
