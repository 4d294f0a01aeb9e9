#include "src/workload/trace/normalize.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "src/common/rng.hpp"

namespace hcrl::workload::trace {

void NormalizeOptions::validate() const {
  // Written so that NaN fails each check too.
  if (!(window_start_s >= 0.0 && window_end_s > window_start_s)) {
    throw std::invalid_argument("NormalizeOptions: bad window");
  }
  if (!(min_duration_s > 0.0 && max_duration_s >= min_duration_s)) {
    throw std::invalid_argument("NormalizeOptions: bad duration clip");
  }
  if (!(resource_floor > 0.0 && resource_cap <= 1.0 && resource_cap >= resource_floor)) {
    throw std::invalid_argument("NormalizeOptions: bad resource clamp");
  }
  if (!(rescale_peak >= 0.0 && rescale_peak <= 1.0)) {
    throw std::invalid_argument("NormalizeOptions: rescale_peak must be in [0, 1]");
  }
}

std::string NormalizeReport::to_string() const {
  std::ostringstream os;
  os << "rows_in=" << rows_in << " rows_out=" << rows_out
     << " dropped_invalid=" << dropped_invalid << " dropped_duplicate=" << dropped_duplicate
     << " dropped_window=" << dropped_window << " dropped_sampled=" << dropped_sampled
     << " clamped_durations=" << clamped_durations << " clamped_demands=" << clamped_demands
     << " rescale_factor=" << rescale_factor;
  return os.str();
}

namespace {

bool job_is_usable(const sim::Job& job, std::size_t dims) {
  if (!std::isfinite(job.arrival) || !std::isfinite(job.duration)) return false;
  if (job.duration <= 0.0) return false;
  if (job.demand.dims() != dims) return false;
  for (std::size_t d = 0; d < dims; ++d) {
    if (!std::isfinite(job.demand[d]) || job.demand[d] < 0.0) return false;
  }
  return true;
}

bool same_row(const sim::Job& a, const sim::Job& b) {
  if (a.arrival != b.arrival || a.duration != b.duration) return false;
  if (a.demand.dims() != b.demand.dims()) return false;
  for (std::size_t d = 0; d < a.demand.dims(); ++d) {
    if (a.demand[d] != b.demand[d]) return false;
  }
  return true;
}

/// Full-row ordering (arrival first, then duration and demand) so that
/// exact duplicates always end up adjacent — event logs interleave repeated
/// rows at identical timestamps, where an arrival-only sort would leave
/// them separated and the adjacent dedup would miss them.
bool row_less(const sim::Job& a, const sim::Job& b) {
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  if (a.duration != b.duration) return a.duration < b.duration;
  const std::size_t dims = std::min(a.demand.dims(), b.demand.dims());
  for (std::size_t d = 0; d < dims; ++d) {
    if (a.demand[d] != b.demand[d]) return a.demand[d] < b.demand[d];
  }
  return a.demand.dims() < b.demand.dims();
}

}  // namespace

std::vector<sim::Job> normalize(std::vector<sim::Job> jobs, const NormalizeOptions& options,
                                NormalizeReport* report) {
  options.validate();
  NormalizeReport local;
  local.rows_in = jobs.size();

  // The trace's dimensionality is the most common row dimensionality; rows
  // that disagree are unusable.
  std::size_t dims = 3;
  if (!jobs.empty()) {
    std::vector<std::size_t> counts;
    for (const auto& j : jobs) {
      const std::size_t d = j.demand.dims();
      if (d >= counts.size()) counts.resize(d + 1, 0);
      ++counts[d];
    }
    dims = static_cast<std::size_t>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
  }

  // 1. drop unusable rows.
  std::vector<sim::Job> kept;
  kept.reserve(jobs.size());
  for (auto& j : jobs) {
    if (job_is_usable(j, dims)) {
      kept.push_back(std::move(j));
    } else {
      ++local.dropped_invalid;
    }
  }

  // 2. stable sort by full row key, then drop exact duplicates.
  std::stable_sort(kept.begin(), kept.end(), row_less);
  std::vector<sim::Job> unique_jobs;
  unique_jobs.reserve(kept.size());
  for (auto& j : kept) {
    if (!unique_jobs.empty() && same_row(unique_jobs.back(), j)) {
      ++local.dropped_duplicate;
    } else {
      unique_jobs.push_back(std::move(j));
    }
  }

  // 3. rebase to t = 0.
  if (!unique_jobs.empty()) {
    const double epoch = unique_jobs.front().arrival;
    for (auto& j : unique_jobs) j.arrival -= epoch;
  }

  // 4. window slice, then rebase to the window start.
  if (options.window_start_s > 0.0 || std::isfinite(options.window_end_s)) {
    std::vector<sim::Job> windowed;
    windowed.reserve(unique_jobs.size());
    for (auto& j : unique_jobs) {
      if (j.arrival >= options.window_start_s && j.arrival < options.window_end_s) {
        j.arrival -= options.window_start_s;
        windowed.push_back(std::move(j));
      } else {
        ++local.dropped_window;
      }
    }
    unique_jobs = std::move(windowed);
  }

  // 5. deterministic down-sampling: rank rows by a per-index hash and keep
  // the smallest `max_jobs` ranks, preserving arrival order.
  if (options.max_jobs > 0 && unique_jobs.size() > options.max_jobs) {
    std::vector<std::pair<std::uint64_t, std::size_t>> ranked(unique_jobs.size());
    for (std::size_t i = 0; i < unique_jobs.size(); ++i) {
      ranked[i] = {common::SplitMix64(options.sample_seed ^ i).next(), i};
    }
    std::nth_element(ranked.begin(),
                     ranked.begin() + static_cast<std::ptrdiff_t>(options.max_jobs),
                     ranked.end());
    std::vector<bool> keep(unique_jobs.size(), false);
    for (std::size_t k = 0; k < options.max_jobs; ++k) keep[ranked[k].second] = true;
    std::vector<sim::Job> sampled;
    sampled.reserve(options.max_jobs);
    for (std::size_t i = 0; i < unique_jobs.size(); ++i) {
      if (keep[i]) {
        sampled.push_back(std::move(unique_jobs[i]));
      } else {
        ++local.dropped_sampled;
      }
    }
    unique_jobs = std::move(sampled);
  }

  // 6. demand rescale + clamp.
  if (options.rescale_peak > 0.0) {
    double peak = 0.0;
    for (const auto& j : unique_jobs) peak = std::max(peak, j.demand.max_component());
    if (peak > 0.0) {
      local.rescale_factor = options.rescale_peak / peak;
      for (auto& j : unique_jobs) {
        for (std::size_t d = 0; d < j.demand.dims(); ++d) {
          j.demand[d] *= local.rescale_factor;
        }
      }
    }
  }
  for (auto& j : unique_jobs) {
    bool clamped = false;
    for (std::size_t d = 0; d < j.demand.dims(); ++d) {
      const double v = std::clamp(j.demand[d], options.resource_floor, options.resource_cap);
      if (v != j.demand[d]) clamped = true;
      j.demand[d] = v;
    }
    if (clamped) ++local.clamped_demands;
  }

  // 7. duration clip.
  for (auto& j : unique_jobs) {
    const double v = std::clamp(j.duration, options.min_duration_s, options.max_duration_s);
    if (v != j.duration) ++local.clamped_durations;
    j.duration = v;
  }

  // 8. renumber in arrival order.
  for (std::size_t i = 0; i < unique_jobs.size(); ++i) {
    unique_jobs[i].id = static_cast<sim::JobId>(i);
  }

  local.rows_out = unique_jobs.size();
  if (report != nullptr) *report = local;
  return unique_jobs;
}

}  // namespace hcrl::workload::trace
