#pragma once

namespace hcrl::core {

/// Empty stub: bench_e2e still names it; the next benchmark change deletes it.
class DecisionService {};

}  // namespace hcrl::core
