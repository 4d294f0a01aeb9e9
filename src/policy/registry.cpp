#include "src/policy/registry.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "src/common/rng.hpp"
#include "src/common/suggest.hpp"
#include "src/core/global_tier.hpp"
#include "src/core/local_tier.hpp"
#include "src/core/predictor.hpp"

namespace hcrl::policy {

namespace {

/// fixed-timeout's idle timeout when its option block sets none.
constexpr double kDefaultIdleTimeoutS = 60.0;

/// " (default <v>)" for an option's doc line, printed from the typed default
/// the factory falls back to, so --list-policies cannot drift from the code.
/// No iostreams: building the registry must not pull in locale state, which
/// adds to every run's resident memory.
template <class T>
std::string default_is(const T& value) {
  std::string text;
  if constexpr (std::is_same_v<T, bool>) {
    text = value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::string>) {
    text = value;
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, 6);
    text.assign(buf, end.ptr);
  } else {
    text = std::to_string(value);
  }
  return " (default " + text + ")";
}

/// The `seed` option: falls back to the config's allocator_seed or
/// power_seed, which a nonzero Scenario::seed re-derives; an explicit option
/// beats both.
std::uint64_t seed_option(const common::Config& opts, std::uint64_t fallback) {
  return static_cast<std::uint64_t>(opts.get_int("seed", static_cast<std::int64_t>(fallback)));
}

std::string seed_doc(std::uint64_t fallback) {
  return "RNG seed" + default_is(fallback) + ", re-derived by a nonzero scenario seed";
}

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

/// The entry and its block as the config wrote it, for a factory's error:
/// `power policy 'fixed-timeout' (power.timeout_s = -5)`.
std::string entry_as_written(const std::string& kind, const std::string& name,
                             const std::string& prefix, const common::Config& block) {
  std::string keys;
  for (const std::string& key : block.keys()) {
    keys += (keys.empty() ? "" : ", ") + prefix + key + " = " + block.get_string(key);
  }
  return kind + " '" + name + "'" + (keys.empty() ? "" : " (" + keys + ")");
}

/// Checks `opts` against the entry's schema and runs its factory on a copy
/// whose errors name keys as `prefix + key`. A std::invalid_argument the
/// factory throws gets the entry and its block as written, unless it already
/// names one of the block's keys (a value that does not parse).
template <class Info>
auto build_entry(const std::string& kind, const std::string& prefix, const Info& info,
                 const core::ExperimentConfig& cfg, const common::Config& opts) {
  check_block(kind, info.name, info.options, opts);
  common::Config block = opts;  // factory marks reads on the copy
  block.set_key_prefix(prefix);
  auto built = [&] {
    try {
      return info.factory(cfg, block);
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      for (const std::string& key : block.keys()) {
        if (what.find("'" + prefix + key + "'") != std::string::npos) throw;
      }
      throw std::invalid_argument(entry_as_written(kind, info.name, prefix, block) + ": " + what);
    }
  }();
  if (built.policy == nullptr) {
    throw std::logic_error("PolicyRegistry: " + kind + " '" + info.name +
                           "' factory returned null");
  }
  const auto unread = block.unused_keys();
  if (!unread.empty()) {
    throw std::logic_error("PolicyRegistry: " + kind + " '" + info.name +
                           "' schema names option '" + unread.front() +
                           "' but the factory never read it");
  }
  return built;
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

BuiltAllocator PolicyRegistry::make_allocator(const std::string& name,
                                              const core::ExperimentConfig& cfg,
                                              const common::Config& opts) const {
  return build_entry("allocator", "allocator.", allocator_info(name), cfg, opts);
}

BuiltPower PolicyRegistry::make_power(const std::string& name, const core::ExperimentConfig& cfg,
                                      const common::Config& opts) const {
  return build_entry("power policy", "power.", power_info(name), cfg, opts);
}

// ---- builtin entries -------------------------------------------------------

namespace {

PolicyRegistry build_builtin() {
  PolicyRegistry r;
  const core::ExperimentConfig cfg_default;
  const core::DrlAllocatorOptions drl_default;
  const core::LocalPowerManagerOptions local_default;

  // -- allocation (global tier) ----------------------------------------------
  r.add_allocator({.name = "round-robin",
                   .description = "paper baseline: cyclic dispatch",
                   .options = {},
                   .factory = [](const core::ExperimentConfig&, common::Config&) {
                     return BuiltAllocator{std::make_unique<sim::RoundRobinAllocator>()};
                   }});
  r.add_allocator({.name = "random",
                   .description = "uniformly random dispatch (diagnostic)",
                   .options = {{"seed", seed_doc(cfg_default.allocator_seed)}},
                   .factory = [](const core::ExperimentConfig& cfg, common::Config& opts) {
                     return BuiltAllocator{std::make_unique<sim::RandomAllocator>(
                         common::Rng(seed_option(opts, cfg.allocator_seed)))};
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
                   .options = {{"k", "servers sampled per decision "
                                     "(default min(3, num_servers))"},
                               {"seed", seed_doc(cfg_default.allocator_seed)}},
                   .factory = [](const core::ExperimentConfig& cfg, common::Config& opts) {
                     // k draws per decision, so k is bounded by the cluster;
                     // the default fits any cluster, an explicit k is checked.
                     const std::int64_t k = opts.get_int(
                         "k", std::min<std::int64_t>(3, static_cast<std::int64_t>(cfg.num_servers)));
                     if (k <= 0 || static_cast<std::uint64_t>(k) > cfg.num_servers) {
                       throw std::invalid_argument("k must be in [1, num_servers = " +
                                                   std::to_string(cfg.num_servers) + "]");
                     }
                     const common::Rng rng(seed_option(opts, cfg.allocator_seed));
                     return BuiltAllocator{
                         std::make_unique<sim::RandomKAllocator>(static_cast<std::size_t>(k), rng)};
                   }});
  r.add_allocator(
      {.name = "drl",
       .description = "the paper's DRL global tier (grouped Q-network)",
       .options = {{"guide", "exploration guide allocator, must be non-learning "
                             "(default first-fit-packing)"},
                   {"beta", "SMDP discount rate per second" + default_is(drl_default.beta)},
                   {"w_power", "Eqn. 4 reward weight on power" + default_is(drl_default.w_power)},
                   {"w_vms", "Eqn. 4 reward weight on jobs in the system" +
                                 default_is(drl_default.w_vms)},
                   {"w_reliability", "Eqn. 4 reward weight on the hot-spot penalty" +
                                         default_is(drl_default.w_reliability)},
                   {"w_chosen_queue", "shaping weight on the chosen server's queue" +
                                          default_is(drl_default.w_chosen_queue)},
                   {"guide_mix", "share of exploratory actions the guide picks" +
                                     default_is(drl_default.guide_mix)},
                   {"learning_rate",
                    "Sub-Q Adam learning rate" + default_is(drl_default.qnet.learning_rate)},
                   {"subq_hidden", "Sub-Q hidden units" + default_is(drl_default.qnet.subq_hidden)},
                   {"batch_size", "DQN minibatch size" + default_is(drl_default.batch_size)},
                   {"seed", seed_doc(cfg_default.allocator_seed)}},
       .learning = true,
       .factory = [&r](const core::ExperimentConfig& cfg, common::Config& opts) {
         // The cluster sizes the state, the Sub-Q heads and the autoencoders
         // (§V-A); the option block sets the rest.
         core::DrlAllocatorOptions drl;
         drl.qnet.encoder.num_servers = cfg.num_servers;
         drl.qnet.encoder.num_groups = cfg.num_groups;
         drl.qnet.encoder.num_resources = cfg.server.num_resources;
         drl.qnet.precision = cfg.precision;
         drl.beta = opts.get_double("beta", drl.beta);
         drl.w_power = opts.get_double("w_power", drl.w_power);
         drl.w_vms = opts.get_double("w_vms", drl.w_vms);
         drl.w_reliability = opts.get_double("w_reliability", drl.w_reliability);
         drl.w_chosen_queue = opts.get_double("w_chosen_queue", drl.w_chosen_queue);
         drl.guide_mix = opts.get_double("guide_mix", drl.guide_mix);
         drl.qnet.learning_rate = opts.get_double("learning_rate", drl.qnet.learning_rate);
         drl.qnet.subq_hidden = opts.get_count("subq_hidden", drl.qnet.subq_hidden);
         drl.batch_size = opts.get_count("batch_size", drl.batch_size);
         drl.seed = seed_option(opts, cfg.allocator_seed);
         const std::string guide = opts.get_string("guide", "first-fit-packing");
         if (r.allocator_info(guide).learning) {
           throw std::invalid_argument("guide '" + guide + "' must be non-learning");
         }
         auto allocator = std::make_unique<core::DrlAllocator>(drl);
         // A seeded guide (random, random-k) draws from the resolved seed.
         core::ExperimentConfig guide_cfg = cfg;
         guide_cfg.allocator_seed = drl.seed;
         allocator->set_guide(r.make_allocator(guide, guide_cfg).policy);
         BuiltAllocator built;
         built.drl = allocator.get();
         built.policy = std::move(allocator);
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
               .options = {{"timeout_s", "idle timeout in seconds, inf never sleeps" +
                                             default_is(kDefaultIdleTimeoutS)}},
               .factory = [](const core::ExperimentConfig&, common::Config& opts) {
                 const double t = opts.get_double("timeout_s", kDefaultIdleTimeoutS);
                 return BuiltPower{std::make_unique<sim::FixedTimeoutPolicy>(t)};
               }});
  std::string kinds;
  for (const std::string& kind : core::predictor_kinds()) {
    kinds += (kinds.empty() ? "" : "|") + kind;
  }
  r.add_power(
      {.name = "rl-dpm",
       .description = "the paper's RL local tier (tabular SMDP + predictor)",
       .options = {{"predictor",
                    "workload predictor, " + kinds + default_is(local_default.predictor)},
                   {"w", "Eqn. 5 reward weight on power; 1 - w weighs the queue" +
                             default_is(local_default.w)},
                   {"shared_table", "sub-managers learn into one Q-table" +
                                        default_is(local_default.shared_table)},
                   {"learning_rate", "Q-learning rate" +
                                         default_is(local_default.agent.learning_rate)},
                   {"beta", "SMDP discount rate per second" + default_is(local_default.agent.beta)},
                   {"seed", seed_doc(cfg_default.power_seed)}},
       .learning = true,
       .factory = [](const core::ExperimentConfig& cfg, common::Config& opts) {
         // Each server's power and wake costs scale the Eqn. 5 reward (§VI);
         // the option block sets the rest.
         core::LocalPowerManagerOptions local;
         local.num_servers = cfg.num_servers;
         local.power_scale_watts = cfg.server.power.peak_watts;
         local.t_on_s = cfg.server.t_on;
         local.t_off_s = cfg.server.t_off;
         local.transition_watts = cfg.server.power.transition_watts;
         local.lstm.precision = cfg.precision;
         local.predictor = opts.get_string("predictor", local.predictor);
         local.w = opts.get_double("w", local.w);
         local.shared_table = opts.get_bool("shared_table", local.shared_table);
         local.agent.learning_rate = opts.get_double("learning_rate", local.agent.learning_rate);
         local.agent.beta = opts.get_double("beta", local.agent.beta);
         local.seed = seed_option(opts, cfg.power_seed);
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

// ---- system presets --------------------------------------------------------

const std::vector<SystemPreset>& system_presets() {
  static const std::vector<SystemPreset> presets = {
      {"round-robin", "round-robin", "always-on"},
      {"drl-only", "drl", "immediate-sleep"},
      {"hierarchical", "drl", "rl-dpm"},
      {"drl-fixed-timeout", "drl", "fixed-timeout"},
      {"least-loaded", "least-loaded", "immediate-sleep"},
      {"first-fit-packing", "first-fit-packing", "immediate-sleep"},
  };
  return presets;
}

void apply_system(core::ExperimentConfig& cfg, const std::string& name) {
  std::vector<std::string> names;
  for (const SystemPreset& p : system_presets()) {
    if (name == p.name) {
      cfg.allocator = p.allocator;
      cfg.power = p.power;
      return;
    }
    names.emplace_back(p.name);
  }
  throw std::invalid_argument(common::unknown_key_message("system", name, names));
}

SystemBundle build_system(const core::ExperimentConfig& cfg) {
  cfg.validate_fields();
  const PolicyRegistry& reg = PolicyRegistry::builtin();
  BuiltAllocator a = reg.make_allocator(cfg.allocator, cfg, cfg.allocator_opts);
  BuiltPower p = reg.make_power(cfg.power, cfg, cfg.power_opts);
  SystemBundle bundle;
  bundle.allocation = std::move(a.policy);
  bundle.power = std::move(p.policy);
  bundle.drl = a.drl;
  bundle.local_rl = p.rl;
  return bundle;
}

// ---- listing ---------------------------------------------------------------

namespace {

void print_padded(std::ostream& out, const std::string& name, const std::string& rest) {
  out << "  " << name;
  for (std::size_t i = name.size(); i < 26; ++i) out << ' ';
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
