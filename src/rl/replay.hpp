// Experience replay memory (the paper's "experience memory D", §IV).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/matrix.hpp"

namespace hcrl::rl {

/// One SMDP transition: state, action, average reward *rate* over the
/// sojourn, sojourn length tau, and successor state.
struct Transition {
  nn::Vec state;
  std::size_t action = 0;
  double reward_rate = 0.0;
  double tau = 0.0;
  nn::Vec next_state;
};

/// Fixed-capacity ring buffer with uniform sampling.
template <typename T = Transition>
class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
    if (capacity == 0) throw std::invalid_argument("ReplayBuffer: capacity must be > 0");
    items_.reserve(capacity);
  }

  void push(T item) {
    if (items_.size() < capacity_) {
      items_.push_back(std::move(item));
    } else {
      items_[head_] = std::move(item);
      head_ = (head_ + 1) % capacity_;
    }
  }

  std::size_t size() const noexcept { return items_.size(); }

  const T& at(std::size_t i) const { return items_.at(i); }

  /// Sample `n` items uniformly with replacement.
  std::vector<const T*> sample(std::size_t n, common::Rng& rng) const {
    if (items_.empty()) throw std::logic_error("ReplayBuffer::sample: empty");
    std::vector<const T*> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto idx =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(items_.size()) - 1));
      out.push_back(&items_[idx]);
    }
    return out;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::vector<T> items_;
};

}  // namespace hcrl::rl
