// Minimal typed key/value configuration.
//
// Experiments are described by flat `key = value` files (or programmatic
// maps). Typed getters validate and convert; unknown keys are detectable so
// configs stay in sync with the code. parse_count and parse_number are the
// strict parsers for count and real-number arguments on the command line.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hcrl::common {

class Config {
 public:
  Config() = default;

  /// Parse from text of the form `key = value` per line; '#' starts a
  /// comment; blank lines ignored. Later duplicates override earlier ones.
  static Config from_string(const std::string& text);
  static Config from_file(const std::string& path);

  void set(const std::string& key, const std::string& value);
  /// Overload so string literals don't decay into the bool overload.
  void set(const std::string& key, const char* value) { set(key, std::string(value)); }
  /// Stored round-trip exact: get_double returns `value` bit for bit.
  void set(const std::string& key, double value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, bool value);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;
  double get_double(const std::string& key) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  bool get_bool(const std::string& key) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// A count: an int that must be >= 0, rejected before a size_t cast could
  /// wrap it.
  std::size_t get_count(const std::string& key, std::size_t fallback) const;

  /// Error messages name a key as `prefix + key`, so a block read under
  /// bare keys (`k`) reports the key as the user wrote it (`allocator.k`).
  void set_key_prefix(std::string prefix) { key_prefix_ = std::move(prefix); }

  /// Keys present in the config but never read through a getter.
  std::vector<std::string> unused_keys() const;
  std::vector<std::string> keys() const;

  std::string to_string() const;

 private:
  std::optional<std::string> raw(const std::string& key) const;
  /// The key as the user wrote it, for error messages.
  std::string written(const std::string& key) const { return key_prefix_ + key; }

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::string key_prefix_;
};

/// Parses a count argument strictly: the whole of `text` must be decimal
/// digits (no sign, space or suffix) for a value in [min, SIZE_MAX].
/// Throws std::invalid_argument naming `what` otherwise.
std::size_t parse_count(const std::string& text, const std::string& what, std::size_t min = 0);

/// Parses a real-number argument strictly: the whole of `text` must be one
/// number (`inf` and `-inf` included, NaN not), with no space or suffix.
/// Range checks are the caller's. Throws std::invalid_argument naming
/// `what` otherwise.
double parse_number(const std::string& text, const std::string& what);

}  // namespace hcrl::common
