// "Did you mean ...?" diagnostics for string-keyed registries.
//
// Every name-to-thing lookup in the codebase (policy registry, scenario
// registry, predictor kinds, system presets) fails the same way: a user typo
// hits a bare "unknown key" throw and the valid keys have to be dug out of
// the source. closest_match() finds the nearest registered name by edit
// distance; unknown_key_message() formats the uniform diagnostic every
// lookup now throws.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace hcrl::common {

/// Levenshtein edit distance (insert/delete/substitute, unit costs).
std::size_t edit_distance(const std::string& a, const std::string& b);

/// The candidate closest to `name` by edit distance, provided it is close
/// enough to plausibly be a typo (distance <= max(2, |name| / 3)). Ties are
/// broken by candidate order. nullopt when nothing is close or the list is
/// empty.
std::optional<std::string> closest_match(const std::string& name,
                                         const std::vector<std::string>& candidates);

/// Uniform diagnostic: `unknown <what> '<name>' (did you mean '<c>'?;
/// valid: a, b, c)`. The did-you-mean clause is omitted when no candidate
/// is plausibly close.
std::string unknown_key_message(const std::string& what, const std::string& name,
                                const std::vector<std::string>& candidates);

}  // namespace hcrl::common
