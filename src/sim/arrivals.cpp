#include "src/sim/arrivals.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace hcrl::sim {

void validate_trace(const std::vector<Job>& jobs, std::size_t dims, const char* who) {
  // Pre-routed arrival events carry the trace index in their JobId-typed
  // `job` field, so a larger trace would silently alias indices.
  if (jobs.size() > static_cast<std::size_t>(std::numeric_limits<JobId>::max())) {
    throw std::invalid_argument(std::string(who) + ": trace exceeds JobId index range");
  }
  std::vector<JobId> ids;
  ids.reserve(jobs.size());
  Time prev = 0.0;
  for (const Job& j : jobs) {
    j.validate(dims);
    if (j.arrival < prev) throw std::invalid_argument(std::string(who) + ": not sorted by arrival");
    prev = j.arrival;
    ids.push_back(j.id);
  }
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    throw std::invalid_argument(std::string(who) + ": duplicate id");
  }
}

}  // namespace hcrl::sim
