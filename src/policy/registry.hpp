// Policy plug-in registry: named factories for every allocation (global
// tier) and power (local tier) policy in the system.
//
// The registry replaces the ad-hoc construction that used to live in
// core/runner.cpp: a policy is an entry — name, one-line description, option
// schema, learning flag, factory — and anything that can name a
// registered entry (an ExperimentConfig, a tournament combo, a CLI flag) can
// construct it. New policies and new scenarios then multiply instead of add:
// registering one policy makes it a row in every tournament, a value for the
// `allocator =` / `power =` config keys, and a line in every CLI's
// --list-policies, with no driver changes.
//
// Contract for an entry (see src/policy/README.md for the long form):
//  * `name` is unique within its kind and stable — configs and leaderboard
//    artifacts reference it.
//  * `options` lists every key the factory reads from its option block;
//    make_allocator/make_power reject unknown keys with a did-you-mean
//    diagnostic, so the schema IS the validation. The factory is the only
//    check on option values (ExperimentConfig::validate runs it).
//  * `learning` must match what the factory builds (a non-null learner
//    view) — the registry audit test instantiates every entry and checks.
//  * Factories must be deterministic: everything stochastic seeds from the
//    ExperimentConfig (or an option key), never from global state. A
//    learning tier's factory sizes its options from the cluster the config
//    describes and overrides the rest from its block.
//
// Layering note: policy/ sits beside core/ rather than below it. Factories
// consume core's option structs (DrlAllocatorOptions, LocalPowerManagerOptions)
// to build the learning tiers, and core's Scenario::build_policies
// (scenario.cpp) builds systems through build_system() below — a mutual
// .cpp-level dependency inside the single hcrl library, with no header cycle
// (scenario.hpp only forward-declares SystemBundle).
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/experiment.hpp"
#include "src/core/global_tier.hpp"
#include "src/core/local_tier.hpp"
#include "src/sim/policies.hpp"

namespace hcrl::policy {

/// A constructed allocation policy plus the learner hook the driver wires
/// (pretraining, set_learning). Null `drl` = non-learning.
struct BuiltAllocator {
  std::unique_ptr<sim::AllocationPolicy> policy;
  core::DrlAllocator* drl = nullptr;  // non-owning view into `policy`
};

struct BuiltPower {
  std::unique_ptr<sim::PowerPolicy> policy;
  core::RlPowerManager* rl = nullptr;  // non-owning view into `policy`
};

/// One option key a factory understands, with a doc line for listings.
struct OptionSpec {
  std::string key;
  std::string doc;
};

struct AllocatorInfo {
  std::string name;
  std::string description;
  std::vector<OptionSpec> options;
  /// True for policies that learn online (the driver runs the offline
  /// construction phase for these).
  bool learning = false;
  /// Builds the policy. `opts` arrives as a by-value copy of the per-policy
  /// option block; the registry rejects keys the factory did not read.
  std::function<BuiltAllocator(const core::ExperimentConfig& cfg, common::Config& opts)> factory;
};

struct PowerInfo {
  std::string name;
  std::string description;
  std::vector<OptionSpec> options;
  bool learning = false;
  std::function<BuiltPower(const core::ExperimentConfig& cfg, common::Config& opts)> factory;
};

class PolicyRegistry {
 public:
  /// Register an entry; throws std::invalid_argument on duplicate names or
  /// null factories.
  void add_allocator(AllocatorInfo info);
  void add_power(PowerInfo info);

  bool has_allocator(const std::string& name) const;
  bool has_power(const std::string& name) const;

  /// Lookup; unknown names throw std::invalid_argument with a did-you-mean
  /// suggestion and the full valid-name list.
  const AllocatorInfo& allocator_info(const std::string& name) const;
  const PowerInfo& power_info(const std::string& name) const;

  /// Registration order (the order listings and tournaments iterate).
  std::vector<std::string> allocator_names() const;
  std::vector<std::string> power_names() const;

  /// Construct a policy. Option blocks are validated against the schema;
  /// keys the factory leaves unread are also rejected (schema drift guard).
  /// A value that does not parse is reported under the option as the
  /// config writes it (`allocator.k`), and any other std::invalid_argument
  /// the factory throws is prefixed with the entry and its block as written
  /// (`power policy 'fixed-timeout' (power.timeout_s = -5): ...`).
  BuiltAllocator make_allocator(const std::string& name, const core::ExperimentConfig& cfg,
                                const common::Config& opts = {}) const;
  BuiltPower make_power(const std::string& name, const core::ExperimentConfig& cfg,
                        const common::Config& opts = {}) const;

  /// The built-in policy set. Allocators: round-robin, random, least-loaded,
  /// first-fit-packing, best-fit, worst-fit, tetris, random-k, drl. Powers:
  /// always-on, immediate-sleep, fixed-timeout, rl-dpm.
  static const PolicyRegistry& builtin();

 private:
  std::vector<AllocatorInfo> allocators_;  // registration order; small N
  std::vector<PowerInfo> powers_;
};

/// A paper system (§VII-B, Fig. 10): a name for one allocator + power pair.
struct SystemPreset {
  const char* name;
  const char* allocator;
  const char* power;
};

/// The six presets, in table order: round-robin, drl-only, hierarchical,
/// drl-fixed-timeout, least-loaded, first-fit-packing.
const std::vector<SystemPreset>& system_presets();

/// Set cfg.allocator / cfg.power to the preset's pair. The option blocks are
/// left alone: they apply to whichever pair the config ends up naming.
/// Unknown names throw std::invalid_argument with a did-you-mean.
void apply_system(core::ExperimentConfig& cfg, const std::string& name);

/// Everything run_scenario needs to run a system: both constructed tiers
/// plus the learner views run_scenario wires (pretraining, set_learning).
struct SystemBundle {
  std::unique_ptr<sim::AllocationPolicy> allocation;
  std::unique_ptr<sim::PowerPolicy> power;
  core::DrlAllocator* drl = nullptr;
  core::RlPowerManager* local_rl = nullptr;
};

/// Check the config's own fields (ExperimentConfig::validate_fields), then
/// build its allocator and power policies from the builtin registry. Every
/// run builds its pair here exactly once (Scenario::build_policies, before
/// the trace is produced), and ExperimentConfig::validate builds and
/// discards the same pair, so a bad policy name, option key or option value
/// fails before any simulation state exists, with a did-you-mean for names
/// and keys.
SystemBundle build_system(const core::ExperimentConfig& cfg);

/// The shared --list-policies body: every registered allocator and power
/// policy with its description, a `[learning]` tag on the learning tiers,
/// and its option schema.
/// run_experiment, trace_tools and tournament all print exactly this.
void print_policy_listing(std::ostream& out);

}  // namespace hcrl::policy
