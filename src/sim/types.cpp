#include "src/sim/types.hpp"

#include <algorithm>
#include <sstream>

namespace hcrl::sim {

namespace {

std::size_t checked_dims(std::size_t dims) {
  if (dims > ResourceVector::kMaxDims) {
    throw std::invalid_argument("ResourceVector: " + std::to_string(dims) +
                                " dimensions exceed the limit of " +
                                std::to_string(ResourceVector::kMaxDims));
  }
  return dims;
}

}  // namespace

ResourceVector::ResourceVector(std::size_t dims, double fill) : dims_(checked_dims(dims)) {
  std::fill_n(v_.begin(), dims_, fill);
}

ResourceVector::ResourceVector(std::initializer_list<double> init)
    : dims_(checked_dims(init.size())) {
  std::copy(init.begin(), init.end(), v_.begin());
}

void ResourceVector::throw_index_error(std::size_t i, std::size_t dims) {
  throw std::out_of_range("ResourceVector: index " + std::to_string(i) + " >= dims " +
                          std::to_string(dims));
}

double ResourceVector::max_component() const noexcept {
  double m = 0.0;
  for (std::size_t i = 0; i < dims_; ++i) m = std::max(m, v_[i]);
  return m;
}

void ResourceVector::clamp(double lo, double hi) noexcept {
  for (std::size_t i = 0; i < dims_; ++i) v_[i] = std::clamp(v_[i], lo, hi);
}

std::string ResourceVector::to_string() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < dims_; ++i) {
    if (i) os << ", ";
    os << v_[i];
  }
  os << "]";
  return os.str();
}

void Job::validate(std::size_t expected_dims) const {
  if (duration <= 0.0) throw std::invalid_argument("Job: duration must be > 0");
  if (arrival < 0.0) throw std::invalid_argument("Job: arrival must be >= 0");
  if (demand.dims() != expected_dims) throw std::invalid_argument("Job: wrong demand dims");
  for (std::size_t i = 0; i < demand.dims(); ++i) {
    if (demand[i] < 0.0 || demand[i] > 1.0) {
      throw std::invalid_argument("Job: demand component out of [0,1]");
    }
  }
}

}  // namespace hcrl::sim
