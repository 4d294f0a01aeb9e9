#include "src/common/suggest.hpp"

#include <algorithm>
#include <numeric>

namespace hcrl::common {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Single-row dynamic program; strings here are short config keys.
  std::vector<std::size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), std::size_t{0});
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];  // row[j-1] from the previous row
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({row[j - 1] + 1, up + 1, subst});
      diag = up;
    }
  }
  return row[b.size()];
}

std::optional<std::string> closest_match(const std::string& name,
                                         const std::vector<std::string>& candidates) {
  const std::size_t threshold = std::max<std::size_t>(2, name.size() / 3);
  std::optional<std::string> best;
  std::size_t best_dist = threshold + 1;
  for (const std::string& c : candidates) {
    const std::size_t d = edit_distance(name, c);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

std::string unknown_key_message(const std::string& what, const std::string& name,
                                const std::vector<std::string>& candidates) {
  std::string msg = "unknown " + what + " '" + name + "'";
  msg += " (";
  if (const auto guess = closest_match(name, candidates)) {
    msg += "did you mean '" + *guess + "'?; ";
  }
  msg += "valid:";
  for (const std::string& c : candidates) msg += " " + c;
  if (candidates.empty()) msg += " none";
  msg += ")";
  return msg;
}

}  // namespace hcrl::common
