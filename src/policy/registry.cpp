#include "src/policy/registry.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "src/common/rng.hpp"
#include "src/common/suggest.hpp"
#include "src/core/global_tier.hpp"
#include "src/core/local_tier.hpp"
#include "src/core/predictor.hpp"

namespace hcrl::policy {

namespace {

std::vector<std::string> schema_keys(const std::vector<OptionSpec>& options) {
  std::vector<std::string> keys;
  keys.reserve(options.size());
  for (const OptionSpec& o : options) keys.push_back(o.key);
  return keys;
}

void check_block(const std::string& kind, const std::string& name,
                 const std::vector<OptionSpec>& options, const common::Config& opts) {
  const std::vector<std::string> valid = schema_keys(options);
  for (const std::string& key : opts.keys()) {
    if (std::find(valid.begin(), valid.end(), key) == valid.end()) {
      throw std::invalid_argument(
          kind + " '" + name + "': " +
          common::unknown_key_message("option key", key, valid));
    }
  }
}

}  // namespace

// ---- PolicyRegistry --------------------------------------------------------

void PolicyRegistry::add_allocator(AllocatorInfo info) {
  if (info.factory == nullptr) {
    throw std::invalid_argument("PolicyRegistry: null factory for allocator '" + info.name + "'");
  }
  if (has_allocator(info.name)) {
    throw std::invalid_argument("PolicyRegistry: duplicate allocator '" + info.name + "'");
  }
  allocators_.push_back(std::move(info));
}

void PolicyRegistry::add_power(PowerInfo info) {
  if (info.factory == nullptr) {
    throw std::invalid_argument("PolicyRegistry: null factory for power policy '" + info.name +
                                "'");
  }
  if (has_power(info.name)) {
    throw std::invalid_argument("PolicyRegistry: duplicate power policy '" + info.name + "'");
  }
  powers_.push_back(std::move(info));
}

bool PolicyRegistry::has_allocator(const std::string& name) const {
  return std::any_of(allocators_.begin(), allocators_.end(),
                     [&](const AllocatorInfo& a) { return a.name == name; });
}

bool PolicyRegistry::has_power(const std::string& name) const {
  return std::any_of(powers_.begin(), powers_.end(),
                     [&](const PowerInfo& p) { return p.name == name; });
}

const AllocatorInfo& PolicyRegistry::allocator_info(const std::string& name) const {
  for (const AllocatorInfo& a : allocators_) {
    if (a.name == name) return a;
  }
  throw std::invalid_argument(
      "PolicyRegistry: " + common::unknown_key_message("allocator", name, allocator_names()));
}

const PowerInfo& PolicyRegistry::power_info(const std::string& name) const {
  for (const PowerInfo& p : powers_) {
    if (p.name == name) return p;
  }
  throw std::invalid_argument(
      "PolicyRegistry: " + common::unknown_key_message("power policy", name, power_names()));
}

std::vector<std::string> PolicyRegistry::allocator_names() const {
  std::vector<std::string> names;
  names.reserve(allocators_.size());
  for (const AllocatorInfo& a : allocators_) names.push_back(a.name);
  return names;
}

std::vector<std::string> PolicyRegistry::power_names() const {
  std::vector<std::string> names;
  names.reserve(powers_.size());
  for (const PowerInfo& p : powers_) names.push_back(p.name);
  return names;
}

void PolicyRegistry::validate_options(const AllocatorInfo& info,
                                      const common::Config& opts) const {
  check_block("allocator", info.name, info.options, opts);
}

void PolicyRegistry::validate_options(const PowerInfo& info, const common::Config& opts) const {
  check_block("power policy", info.name, info.options, opts);
}

BuiltAllocator PolicyRegistry::make_allocator(const std::string& name,
                                              const core::ExperimentConfig& cfg,
                                              const common::Config& opts) const {
  const AllocatorInfo& info = allocator_info(name);
  validate_options(info, opts);
  common::Config block = opts;  // factory marks reads on the copy
  BuiltAllocator built = info.factory(cfg, block);
  if (built.policy == nullptr) {
    throw std::logic_error("PolicyRegistry: allocator '" + name + "' factory returned null");
  }
  const auto unread = block.unused_keys();
  if (!unread.empty()) {
    throw std::logic_error("PolicyRegistry: allocator '" + name +
                           "' schema names option '" + unread.front() +
                           "' but the factory never read it");
  }
  return built;
}

BuiltPower PolicyRegistry::make_power(const std::string& name, const core::ExperimentConfig& cfg,
                                      const common::Config& opts) const {
  const PowerInfo& info = power_info(name);
  validate_options(info, opts);
  common::Config block = opts;
  BuiltPower built = info.factory(cfg, block);
  if (built.policy == nullptr) {
    throw std::logic_error("PolicyRegistry: power policy '" + name + "' factory returned null");
  }
  const auto unread = block.unused_keys();
  if (!unread.empty()) {
    throw std::logic_error("PolicyRegistry: power policy '" + name +
                           "' schema names option '" + unread.front() +
                           "' but the factory never read it");
  }
  return built;
}

// ---- builtin entries -------------------------------------------------------

namespace {

PolicyRegistry build_builtin() {
  PolicyRegistry r;

  // -- allocation (global tier) ----------------------------------------------
  r.add_allocator({.name = "round-robin",
                   .description = "paper baseline: cyclic dispatch",
                   .options = {},
                   .factory = [](const core::ExperimentConfig&, common::Config&) {
                     return BuiltAllocator{std::make_unique<sim::RoundRobinAllocator>()};
                   }});
  r.add_allocator({.name = "random",
                   .description = "uniformly random dispatch (diagnostic)",
                   .options = {{"seed", "RNG seed (default: drl.seed)"}},
                   .factory = [](const core::ExperimentConfig& cfg, common::Config& opts) {
                     const auto seed = static_cast<std::uint64_t>(
                         opts.get_int("seed", static_cast<std::int64_t>(cfg.drl.seed)));
                     return BuiltAllocator{
                         std::make_unique<sim::RandomAllocator>(common::Rng(seed))};
                   }});
  r.add_allocator({.name = "least-loaded",
                   .description = "least-utilized awake server; wakes only when saturated",
                   .options = {},
                   .factory = [](const core::ExperimentConfig&, common::Config&) {
                     return BuiltAllocator{std::make_unique<sim::LeastLoadedAllocator>()};
                   }});
  r.add_allocator({.name = "first-fit-packing",
                   .description = "busiest awake server that fits (greedy consolidation)",
                   .options = {},
                   .factory = [](const core::ExperimentConfig&, common::Config&) {
                     return BuiltAllocator{std::make_unique<sim::FirstFitPackingAllocator>()};
                   }});
  r.add_allocator({.name = "best-fit",
                   .description = "tightest fitting awake server (least leftover capacity)",
                   .options = {},
                   .factory = [](const core::ExperimentConfig&, common::Config&) {
                     return BuiltAllocator{std::make_unique<sim::BestFitAllocator>()};
                   }});
  r.add_allocator({.name = "worst-fit",
                   .description = "loosest fitting awake server (load spreading)",
                   .options = {},
                   .factory = [](const core::ExperimentConfig&, common::Config&) {
                     return BuiltAllocator{std::make_unique<sim::WorstFitAllocator>()};
                   }});
  r.add_allocator({.name = "tetris",
                   .description = "dot-product alignment of demand and free resources",
                   .options = {},
                   .factory = [](const core::ExperimentConfig&, common::Config&) {
                     return BuiltAllocator{std::make_unique<sim::TetrisAllocator>()};
                   }});
  r.add_allocator({.name = "random-k",
                   .description = "power-of-k-choices: best of k sampled servers",
                   .options = {{"k", "servers sampled per decision (default 3)"},
                               {"seed", "RNG seed (default: drl.seed)"}},
                   .factory = [](const core::ExperimentConfig& cfg, common::Config& opts) {
                     const std::int64_t k = opts.get_int("k", 3);
                     if (k <= 0) {
                       throw std::invalid_argument("allocator 'random-k': k must be >= 1");
                     }
                     const auto seed = static_cast<std::uint64_t>(
                         opts.get_int("seed", static_cast<std::int64_t>(cfg.drl.seed)));
                     return BuiltAllocator{std::make_unique<sim::RandomKAllocator>(
                         static_cast<std::size_t>(k), common::Rng(seed))};
                   }});
  r.add_allocator({.name = "drl",
                   .description = "the paper's DRL global tier (grouped Q-network)",
                   .options = {{"guide", "exploration guide allocator (default "
                                         "first-fit-packing; must be non-learning)"}},
                   .learning = true,
                   .factory = [&r](const core::ExperimentConfig& cfg, common::Config& opts) {
                     const std::string guide = opts.get_string("guide", "first-fit-packing");
                     const AllocatorInfo& guide_info = r.allocator_info(guide);
                     if (guide_info.learning) {
                       throw std::invalid_argument(
                           "allocator 'drl': guide '" + guide + "' must be non-learning");
                     }
                     auto drl = std::make_unique<core::DrlAllocator>(cfg.drl);
                     drl->set_guide(std::move(r.make_allocator(guide, cfg).policy));
                     BuiltAllocator built;
                     built.drl = drl.get();
                     built.policy = std::move(drl);
                     return built;
                   }});

  // -- power (local tier) ----------------------------------------------------
  r.add_power({.name = "always-on",
               .description = "never sleeps (paper baseline)",
               .options = {},
               .factory = [](const core::ExperimentConfig&, common::Config&) {
                 return BuiltPower{std::make_unique<sim::AlwaysOnPolicy>()};
               }});
  r.add_power({.name = "immediate-sleep",
               .description = "sleeps the instant the server idles (\"ad hoc\")",
               .options = {},
               .factory = [](const core::ExperimentConfig&, common::Config&) {
                 return BuiltPower{std::make_unique<sim::ImmediateSleepPolicy>()};
               }});
  r.add_power({.name = "fixed-timeout",
               .description = "sleep after a fixed idle timeout",
               .options = {{"timeout_s", "idle timeout in seconds (default: fixed_timeout_s)"}},
               .factory = [](const core::ExperimentConfig& cfg, common::Config& opts) {
                 const double t = opts.get_double("timeout_s", cfg.fixed_timeout_s);
                 return BuiltPower{std::make_unique<sim::FixedTimeoutPolicy>(t)};
               }});
  r.add_power({.name = "rl-dpm",
               .description = "the paper's RL local tier (tabular SMDP + predictor)",
               .options = {{"predictor", "workload predictor kind (default: local.predictor; "
                                         "lstm|last-value|sliding-mean|window|ar)"}},
               .learning = true,
               .factory = [](const core::ExperimentConfig& cfg, common::Config& opts) {
                 core::LocalPowerManagerOptions local = cfg.local;
                 local.predictor = opts.get_string("predictor", cfg.local.predictor);
                 auto rl = std::make_unique<core::RlPowerManager>(local);
                 BuiltPower built;
                 built.rl = rl.get();
                 built.policy = std::move(rl);
                 return built;
               }});

  return r;
}

}  // namespace

const PolicyRegistry& PolicyRegistry::builtin() {
  static const PolicyRegistry registry = build_builtin();
  return registry;
}

// ---- system resolution -----------------------------------------------------

ResolvedSystem resolve_system(const core::ExperimentConfig& cfg) {
  ResolvedSystem r;
  switch (cfg.system) {
    case core::SystemKind::kRoundRobin:
      r.allocator = "round-robin";
      r.power = "always-on";
      break;
    case core::SystemKind::kDrlOnly:
      r.allocator = "drl";
      r.power = "immediate-sleep";
      break;
    case core::SystemKind::kHierarchical:
      r.allocator = "drl";
      r.power = "rl-dpm";
      break;
    case core::SystemKind::kDrlFixedTimeout:
      r.allocator = "drl";
      r.power = "fixed-timeout";
      break;
    case core::SystemKind::kLeastLoaded:
      r.allocator = "least-loaded";
      r.power = "immediate-sleep";
      break;
    case core::SystemKind::kFirstFitPacking:
      r.allocator = "first-fit-packing";
      r.power = "immediate-sleep";
      break;
  }
  if (!cfg.allocator.empty()) {
    r.allocator = cfg.allocator;
    r.allocator_opts = cfg.allocator_opts;
  } else if (!cfg.allocator_opts.keys().empty()) {
    throw std::invalid_argument(
        "ExperimentConfig: allocator.* options require the allocator key");
  }
  if (!cfg.power.empty()) {
    r.power = cfg.power;
    r.power_opts = cfg.power_opts;
  } else if (!cfg.power_opts.keys().empty()) {
    throw std::invalid_argument("ExperimentConfig: power.* options require the power key");
  }
  return r;
}

SystemBundle build_system(const core::ExperimentConfig& cfg) {
  const ResolvedSystem sel = resolve_system(cfg);
  const PolicyRegistry& reg = PolicyRegistry::builtin();
  BuiltAllocator a = reg.make_allocator(sel.allocator, cfg, sel.allocator_opts);
  BuiltPower p = reg.make_power(sel.power, cfg, sel.power_opts);
  SystemBundle bundle;
  bundle.allocation = std::move(a.policy);
  bundle.power = std::move(p.policy);
  bundle.drl = a.drl;
  bundle.local_rl = p.rl;
  bundle.allocator_name = sel.allocator;
  bundle.power_name = sel.power;
  return bundle;
}

void validate_system_selection(const core::ExperimentConfig& cfg) {
  const ResolvedSystem sel = resolve_system(cfg);
  const PolicyRegistry& reg = PolicyRegistry::builtin();
  const AllocatorInfo& a = reg.allocator_info(sel.allocator);
  reg.validate_options(a, sel.allocator_opts);
  const PowerInfo& p = reg.power_info(sel.power);
  reg.validate_options(p, sel.power_opts);
  if (p.name == "rl-dpm") {
    common::Config opts = sel.power_opts;
    const std::string kind = opts.get_string("predictor", cfg.local.predictor);
    const std::vector<std::string> kinds = core::predictor_kinds();
    if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) {
      throw std::invalid_argument("ExperimentConfig: " +
                                  common::unknown_key_message("predictor", kind, kinds));
    }
  }
}

// ---- listing ---------------------------------------------------------------

namespace {

void print_padded(std::ostream& out, const std::string& name, const std::string& rest) {
  out << "  " << name;
  for (std::size_t i = name.size(); i < 20; ++i) out << ' ';
  out << ' ' << rest << '\n';
}

template <class Info>
void print_options(std::ostream& out, const std::string& prefix, const Info& info) {
  for (const OptionSpec& o : info.options) {
    print_padded(out, "  " + prefix + "." + o.key, o.doc);
  }
}

}  // namespace

void print_policy_listing(std::ostream& out) {
  const PolicyRegistry& reg = PolicyRegistry::builtin();
  out << "allocation policies (config: allocator = <name>, options as allocator.<key>):\n";
  for (const std::string& name : reg.allocator_names()) {
    const AllocatorInfo& info = reg.allocator_info(name);
    print_padded(out, name, info.description + (info.learning ? " [learning]" : ""));
    print_options(out, "allocator", info);
  }
  out << "power policies (config: power = <name>, options as power.<key>):\n";
  for (const std::string& name : reg.power_names()) {
    const PowerInfo& info = reg.power_info(name);
    print_padded(out, name, info.description + (info.learning ? " [learning]" : ""));
    print_options(out, "power", info);
  }
}

}  // namespace hcrl::policy
