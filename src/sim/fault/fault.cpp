#include "src/sim/fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/rng.hpp"

namespace hcrl::sim {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

void require_finite_nonneg(double v, const char* key) {
  if (!std::isfinite(v) || v < 0.0) {
    throw std::invalid_argument(std::string("FaultConfig: ") + key +
                                " must be finite and >= 0, got " + std::to_string(v));
  }
}

/// Uniform double in [0, 1) from one SplitMix64 output.
double to_unit(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

void FaultConfig::validate() const {
  require_finite_nonneg(mtbf_s, "faults.mtbf_s");
  require_finite_nonneg(mttr_s, "faults.mttr_s");
  require_finite_nonneg(evict_every_s, "faults.evict_every_s");
  require_finite_nonneg(backoff_base_s, "faults.backoff_base_s");
  require_finite_nonneg(backoff_cap_s, "faults.backoff_cap_s");
  require_finite_nonneg(horizon_padding_s, "faults.horizon_padding_s");
  if (mtbf_s > 0.0 && mttr_s <= 0.0) {
    throw std::invalid_argument("FaultConfig: faults.mttr_s must be > 0 when crashes are enabled");
  }
  if (backoff_cap_s > 0.0 && backoff_base_s > backoff_cap_s) {
    throw std::invalid_argument("FaultConfig: faults.backoff_base_s exceeds faults.backoff_cap_s");
  }
  if (!std::isfinite(backoff_jitter) || backoff_jitter < 0.0 || backoff_jitter >= 1.0) {
    throw std::invalid_argument("FaultConfig: faults.backoff_jitter must be in [0, 1), got " +
                                std::to_string(backoff_jitter));
  }
  if (max_retries > 1000000) {
    throw std::invalid_argument("FaultConfig: faults.max_retries is absurd (" +
                                std::to_string(max_retries) + " > 1e6)");
  }
}

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRecover:
      return "recover";
    case FaultKind::kEvict:
      return "evict";
  }
  return "?";
}

EventType to_event_type(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kCrash:
      return EventType::kServerCrash;
    case FaultKind::kRecover:
      return EventType::kServerRecover;
    case FaultKind::kEvict:
      return EventType::kSpotEvict;
  }
  return EventType::kServerCrash;
}

FaultPlan FaultPlan::generate(const FaultConfig& cfg, std::size_t num_servers, Time horizon) {
  cfg.validate();
  FaultPlan plan;
  if (!cfg.enabled() || num_servers == 0 || !(horizon > 0.0)) return plan;

  // Two independent root streams so toggling evictions never perturbs the
  // crash schedule (and vice versa).
  common::SplitMix64 root(cfg.seed);
  const std::uint64_t crash_stream = root.next();
  const std::uint64_t evict_stream = root.next();

  for (ServerId s = 0; s < num_servers; ++s) {
    const std::uint64_t salt = kGolden * (static_cast<std::uint64_t>(s) + 1);
    if (cfg.mtbf_s > 0.0) {
      common::SplitMix64 sm(crash_stream ^ salt);
      common::Rng rng(sm.next());
      Time t = 0.0;
      for (;;) {
        t += rng.exponential(1.0 / cfg.mtbf_s);
        if (t > horizon) break;
        plan.events.push_back({t, s, FaultKind::kCrash});
        const Time down = rng.exponential(1.0 / cfg.mttr_s);
        // The matching recovery always ships, even past the horizon: a
        // crashed server must not stay dead into the drain phase.
        plan.events.push_back({t + down, s, FaultKind::kRecover});
        t += down;
      }
    }
    if (cfg.evict_every_s > 0.0) {
      common::SplitMix64 sm(evict_stream ^ salt);
      common::Rng rng(sm.next());
      Time t = 0.0;
      for (;;) {
        t += rng.exponential(1.0 / cfg.evict_every_s);
        if (t > horizon) break;
        plan.events.push_back({t, s, FaultKind::kEvict});
      }
    }
  }

  // (time, server, kind) — at equal times faults fire in ascending server
  // order, independent of generation order.
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) noexcept {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.server != b.server) return a.server < b.server;
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
  return plan;
}

FaultInjector::FaultInjector(const FaultConfig& cfg, FaultPlan plan)
    : cfg_(cfg), plan_(std::move(plan)) {
  cfg_.validate();
}

FaultInjector::FaultInjector(const FaultConfig& cfg, std::size_t num_servers, Time horizon)
    : FaultInjector(cfg, FaultPlan::generate(cfg, num_servers, horizon)) {}

Time FaultInjector::next_retry_time() const {
  if (retries_.empty()) throw std::logic_error("FaultInjector::next_retry_time: no retry pending");
  return retries_.top().time;
}

FaultInjector::Retry FaultInjector::pop_retry() {
  if (retries_.empty()) throw std::logic_error("FaultInjector::pop_retry: no retry pending");
  Retry r = retries_.top();
  retries_.pop();
  return r;
}

bool FaultInjector::schedule_retry(const Job& job, Time now) {
  const std::size_t attempt = ++attempts_[job.id];
  if (attempt > cfg_.max_retries) return false;
  Retry r;
  r.time = now + backoff_delay(job.id, attempt);
  r.seq = next_seq_++;
  r.job = job;
  if (r.job.submitted < 0.0) r.job.submitted = r.job.arrival;
  r.job.arrival = r.time;  // re-enters the arrival stream at delivery time
  retries_.push(std::move(r));
  return true;
}

double FaultInjector::backoff_delay(JobId id, std::size_t attempt) const {
  if (attempt == 0) throw std::invalid_argument("FaultInjector::backoff_delay: attempt counts from 1");
  // 2^(attempt-1), saturating well past any sane cap.
  const int shift = static_cast<int>(std::min<std::size_t>(attempt - 1, 512));
  double delay = cfg_.backoff_base_s * std::ldexp(1.0, shift);
  if (cfg_.backoff_cap_s > 0.0) delay = std::min(delay, cfg_.backoff_cap_s);
  if (cfg_.backoff_jitter > 0.0) {
    common::SplitMix64 sm((cfg_.seed ^ (static_cast<std::uint64_t>(id) * kGolden)) +
                          static_cast<std::uint64_t>(attempt));
    const double u = to_unit(sm.next());  // [0, 1)
    delay *= 1.0 + cfg_.backoff_jitter * (2.0 * u - 1.0);
  }
  // Retries must move time forward even with base = 0.
  return std::max(delay, 1e-9);
}

std::size_t FaultInjector::attempts(JobId id) const {
  const auto it = attempts_.find(id);
  return it == attempts_.end() ? 0 : it->second;
}

}  // namespace hcrl::sim
