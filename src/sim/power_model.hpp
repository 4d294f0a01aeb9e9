// Server power model — Eqn. (3) of the paper, after Fan/Weber/Barroso:
//   P(x) = P(0%) + (P(100%) - P(0%)) * (2x - x^1.4)
// with x the CPU utilization in [0, 1]. Sleep draws ~0 W; mode transitions
// draw more than idle (the paper cites [21, 22]) — we default them to peak.
#pragma once

#include <cmath>
#include <stdexcept>

namespace hcrl::sim {

struct PowerModel {
  double idle_watts = 87.0;        // P(0%)   (paper, §VII-A)
  double peak_watts = 145.0;       // P(100%) (paper, §VII-A)
  double sleep_watts = 0.0;        // paper assumes zero in sleep
  double transition_watts = 145.0; // during sleep<->active transitions

  /// Active-mode power at CPU utilization x in [0, 1] (clamped).
  double active_power(double utilization) const noexcept;

  void validate() const {
    if (!(idle_watts >= 0.0 && peak_watts >= idle_watts && std::isfinite(peak_watts))) {
      throw std::invalid_argument("PowerModel: need 0 <= idle <= peak < inf");
    }
    if (!(sleep_watts >= 0.0 && std::isfinite(sleep_watts)) ||
        !(transition_watts >= 0.0 && std::isfinite(transition_watts))) {
      throw std::invalid_argument("PowerModel: sleep and transition power must be finite and >= 0");
    }
  }
};

}  // namespace hcrl::sim
