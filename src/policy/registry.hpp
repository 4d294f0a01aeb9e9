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
//    diagnostic, so the schema IS the validation.
//  * `learning` must match what the factory builds (a non-null learner
//    view) — the registry audit test instantiates every entry and checks.
//  * Factories must be deterministic: everything stochastic seeds from the
//    ExperimentConfig (or an option key), never from global state.
//
// Layering note: policy/ sits beside core/ rather than below it. Factories
// consume core's option structs (DrlAllocatorOptions, LocalPowerManagerOptions)
// to build the learning tiers, and core's driver (runner.cpp) builds systems
// through build_system() below — a mutual .cpp-level dependency inside the
// single hcrl library, with no header cycle.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/experiment.hpp"
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

  /// Validate an option block against an entry's schema without building:
  /// throws on any key the schema does not name (did-you-mean included).
  void validate_options(const AllocatorInfo& info, const common::Config& opts) const;
  void validate_options(const PowerInfo& info, const common::Config& opts) const;

  /// Construct a policy. Option blocks are validated against the schema;
  /// keys the factory leaves unread are also rejected (schema drift guard).
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

/// The system a config resolves to: the pair implied by `system`, with any
/// non-empty allocator/power override applied on top.
struct ResolvedSystem {
  std::string allocator;
  common::Config allocator_opts;
  std::string power;
  common::Config power_opts;
};

ResolvedSystem resolve_system(const core::ExperimentConfig& cfg);

/// Everything run_scenario needs to run a system: both constructed tiers
/// plus the learner views run_scenario wires (pretraining, set_learning).
struct SystemBundle {
  std::unique_ptr<sim::AllocationPolicy> allocation;
  std::unique_ptr<sim::PowerPolicy> power;
  core::DrlAllocator* drl = nullptr;
  core::RlPowerManager* local_rl = nullptr;
  std::string allocator_name;  // registry names actually used
  std::string power_name;
};

/// The registry construction path used by core::run_scenario: resolve the
/// config's system selection and build both tiers from the builtin registry.
SystemBundle build_system(const core::ExperimentConfig& cfg);

/// Config-time diagnostics (called from ExperimentConfig::validate):
/// resolve the selection, check names and option keys against the registry,
/// and check the predictor kind when the local tier is the RL manager. All
/// failures are std::invalid_argument with did-you-mean suggestions.
void validate_system_selection(const core::ExperimentConfig& cfg);

/// The shared --list-policies body: every registered allocator and power
/// policy with descriptions, option schemas and parallel-safety flags.
/// run_experiment, trace_tools and tournament all print exactly this.
void print_policy_listing(std::ostream& out);

}  // namespace hcrl::policy
