#include "src/common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/common/csv.hpp"

namespace hcrl::common {

namespace {
std::string trim(const std::string& s) {
  auto b = s.find_first_not_of(" \t\r\n");
  auto e = s.find_last_not_of(" \t\r\n");
  return b == std::string::npos ? std::string{} : s.substr(b, e - b + 1);
}
}  // namespace

Config Config::from_string(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("Config: missing '=' on line " + std::to_string(lineno));
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw std::invalid_argument("Config: empty key on line " + std::to_string(lineno));
    }
    // A repeated key in config text is almost always a copy-paste mistake;
    // silently letting the later line win hides it. Programmatic overrides
    // go through Config::set, which keeps last-write-wins semantics.
    if (!cfg.values_.emplace(key, value).second) {
      throw std::invalid_argument("Config: duplicate key '" + key + "' on line " +
                                  std::to_string(lineno));
    }
  }
  return cfg;
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("Config: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_string(buf.str());
}

void Config::set(const std::string& key, const std::string& value) { values_[key] = value; }
void Config::set(const std::string& key, double value) { values_[key] = format_csv_double(value); }
void Config::set(const std::string& key, std::int64_t value) { values_[key] = std::to_string(value); }
void Config::set(const std::string& key, bool value) { values_[key] = value ? "true" : "false"; }

bool Config::has(const std::string& key) const { return values_.count(key) > 0; }

std::optional<std::string> Config::raw(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  read_[key] = true;
  return it->second;
}

std::string Config::get_string(const std::string& key) const {
  auto v = raw(key);
  if (!v) throw std::invalid_argument("Config: missing key '" + written(key) + "'");
  return *v;
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  auto v = raw(key);
  return v ? *v : fallback;
}

double Config::get_double(const std::string& key) const {
  const std::string v = get_string(key);
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing chars");
    return d;
  } catch (const std::exception&) {
    throw std::invalid_argument("Config: key '" + written(key) + "' is not a double: " + v);
  }
}

double Config::get_double(const std::string& key, double fallback) const {
  return has(key) ? get_double(key) : fallback;
}

std::int64_t Config::get_int(const std::string& key) const {
  const std::string v = get_string(key);
  try {
    std::size_t pos = 0;
    const std::int64_t i = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing chars");
    return i;
  } catch (const std::exception&) {
    throw std::invalid_argument("Config: key '" + written(key) + "' is not an int: " + v);
  }
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  return has(key) ? get_int(key) : fallback;
}

bool Config::get_bool(const std::string& key) const {
  std::string v = get_string(key);
  std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) { return std::tolower(c); });
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Config: key '" + written(key) + "' is not a bool: " + v);
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  return has(key) ? get_bool(key) : fallback;
}

std::size_t Config::get_count(const std::string& key, std::size_t fallback) const {
  if (!has(key)) return fallback;
  const std::int64_t v = get_int(key);
  if (v < 0) {
    throw std::invalid_argument("Config: key '" + written(key) + "' must be >= 0: " +
                                std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_) {
    if (!read_.count(k)) out.push_back(k);
  }
  return out;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

std::string Config::to_string() const {
  std::ostringstream os;
  for (const auto& [k, v] : values_) os << k << " = " << v << "\n";
  return os.str();
}

std::size_t parse_count(const std::string& text, const std::string& what, std::size_t min) {
  std::size_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc() || ptr != end || n < min) {
    throw std::invalid_argument(what + " must be an integer >= " + std::to_string(min) +
                                ", got '" + text + "'");
  }
  return n;
}

double parse_number(const std::string& text, const std::string& what) {
  double x = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, x);
  if (ec != std::errc() || ptr != end || std::isnan(x)) {
    throw std::invalid_argument(what + " must be a number, got '" + text + "'");
  }
  return x;
}

}  // namespace hcrl::common
