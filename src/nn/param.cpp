#include "src/nn/param.hpp"

#include <stdexcept>

namespace hcrl::nn {

template <class S>
std::vector<ParamSegmentT<S>> gather_segments(const std::vector<ParamBlockPtrT<S>>& params) {
  std::vector<ParamSegmentT<S>> segs;
  for (const auto& p : params) {
    if (!p) throw std::invalid_argument("gather_segments: null param block");
    p->append_segments(segs);
  }
  return segs;
}

template <class S>
void copy_param_values(const std::vector<ParamBlockPtrT<S>>& src,
                       const std::vector<ParamBlockPtrT<S>>& dst) {
  auto s = gather_segments(src);
  auto d = gather_segments(dst);
  if (s.size() != d.size()) throw std::invalid_argument("copy_param_values: segment count mismatch");
  for (std::size_t k = 0; k < s.size(); ++k) {
    if (s[k].n != d[k].n) throw std::invalid_argument("copy_param_values: segment size mismatch");
    for (std::size_t i = 0; i < s[k].n; ++i) d[k].value[i] = s[k].value[i];
  }
}

template <class S>
std::vector<double> flatten_param_values(const std::vector<ParamBlockPtrT<S>>& params) {
  std::vector<double> out;
  for (const auto& s : gather_segments(params)) {
    for (std::size_t i = 0; i < s.n; ++i) out.push_back(static_cast<double>(s.value[i]));
  }
  return out;
}

#define HCRL_NN_INSTANTIATE_PARAM(S)                                                      \
  template std::vector<ParamSegmentT<S>> gather_segments<S>(                              \
      const std::vector<ParamBlockPtrT<S>>&);                                             \
  template void copy_param_values<S>(const std::vector<ParamBlockPtrT<S>>&,               \
                                     const std::vector<ParamBlockPtrT<S>>&);              \
  template std::vector<double> flatten_param_values<S>(const std::vector<ParamBlockPtrT<S>>&);

HCRL_NN_INSTANTIATE_PARAM(float)
HCRL_NN_INSTANTIATE_PARAM(double)
#undef HCRL_NN_INSTANTIATE_PARAM

}  // namespace hcrl::nn
