// Vectorizable transcendentals for the f32 compute mode.
//
// The elementwise halves of the NN substrate — activation sweeps and LSTM
// gate nonlinearities — are transcendental-bound: one libm call per element
// costs more than the GEMM feeding it. For float, a Cephes-style polynomial
// exp (magic-number round-to-nearest, Cody-Waite ln2 split, degree-5
// minimax polynomial — SSE2-vectorizable) replaces libm, with Taylor
// branches below |x| = 0.25 where the exp-based forms would cancel:
//   exp      <= ~8e-8  relative error
//   expm1    <= ~1.6e-6 relative
//   tanh     <= ~4e-7  relative
//   sigmoid  <= ~1.5e-7 relative
// (measured against double libm over [-20, 20] plus a dense near-zero
// sweep) — well inside the 1e-4 f32-vs-f64 parity budget of the gates.
//
// exp_fast itself has no branch; expm1_fast and tanh_fast branch on
// |x| < 0.25, so a loop over their scalar forms does not vectorize. The
// ELU sweep therefore calls the four-lane forms below, which evaluate both
// arms and select per lane.
//
// The double path deliberately stays on libm: f64 is the reference
// precision and its results must not move. Dispatch is by Scalar type, and
// every execution path of one Scalar uses the same functions, so batch-1
// and batched sweeps stay bit-identical per precision.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace hcrl::nn::fastmath {

/// Branch-free polynomial expf; |rel err| <= ~8e-8 over the finite range.
/// Inputs are clamped to the finite-result range (the NN paths feed gate
/// pre-activations and ELU arguments, never infinities).
inline float exp_fast(float x) noexcept {
  x = std::min(x, 88.37f);
  x = std::max(x, -87.33f);
  // Round x/ln2 to the nearest integer with the 1.5*2^23 magic constant:
  // the integer lands in the mantissa bits (exact for |k| < 2^22), readable
  // both as a float (y - magic) and as an int (bit difference) without any
  // SSE4 rounding instruction.
  const float y = x * 1.44269504088896341f + 12582912.0f;
  const std::int32_t k = std::bit_cast<std::int32_t>(y) - std::bit_cast<std::int32_t>(12582912.0f);
  const float kf = y - 12582912.0f;
  // Cody-Waite two-term ln2 so r = x - k*ln2 stays accurate.
  float r = x - kf * 0.693359375f;
  r = r - kf * -2.12194440e-4f;
  // Cephes degree-5 minimax polynomial for exp(r), r in [-ln2/2, ln2/2].
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const float e = r * r * p + r + 1.0f;
  // 2^k as a float, by building the exponent field directly.
  const float scale = std::bit_cast<float>((k + 127) << 23);
  return e * scale;
}

inline float expm1_fast(float x) noexcept {
  // exp_fast(x) - 1 cancels catastrophically for small |x| (the result is
  // the rounding noise of exp near 1), so switch to the Taylor series there:
  // truncation error ~x^6/720, far below float epsilon at the threshold.
  if (std::abs(x) < 0.25f) {
    float p = 1.0f / 120.0f;
    p = p * x + 1.0f / 24.0f;
    p = p * x + 1.0f / 6.0f;
    p = p * x + 0.5f;
    p = p * x + 1.0f;
    return p * x;
  }
  return exp_fast(x) - 1.0f;
}

#if defined(__GNUC__) || defined(__clang__)
// Four-lane forms of exp_fast and expm1_fast (GNU vector extensions, 16-byte
// lanes): op for op the scalar functions above, with expm1_fast's two arms
// both evaluated and selected per lane, so every lane's bits equal the
// scalar call's.
typedef float F4 __attribute__((vector_size(16)));
typedef std::int32_t I4 __attribute__((vector_size(16)));

inline constexpr F4 splat(float v) noexcept { return F4{v, v, v, v}; }

/// Per lane, mask ? a : b (mask lanes are all-ones or all-zero).
inline F4 select(I4 mask, F4 a, F4 b) noexcept {
  return reinterpret_cast<F4>((mask & reinterpret_cast<I4>(a)) | (~mask & reinterpret_cast<I4>(b)));
}

inline F4 exp_fast(F4 x) noexcept {
  x = select(splat(88.37f) < x, splat(88.37f), x);    // std::min(x, 88.37f)
  x = select(x < splat(-87.33f), splat(-87.33f), x);  // std::max(x, -87.33f)
  const F4 y = x * 1.44269504088896341f + 12582912.0f;
  const I4 k = reinterpret_cast<I4>(y) - std::bit_cast<std::int32_t>(12582912.0f);
  const F4 kf = y - 12582912.0f;
  F4 r = x - kf * 0.693359375f;
  r = r - kf * -2.12194440e-4f;
  F4 p = r * 1.9875691500e-4f + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const F4 e = r * r * p + r + 1.0f;
  const F4 scale = reinterpret_cast<F4>((k + 127) << 23);
  return e * scale;
}

inline F4 expm1_fast(F4 x) noexcept {
  const F4 ax = reinterpret_cast<F4>(reinterpret_cast<I4>(x) & 0x7fffffff);  // std::abs
  F4 p = x * (1.0f / 120.0f) + 1.0f / 24.0f;
  p = p * x + 1.0f / 6.0f;
  p = p * x + 0.5f;
  p = p * x + 1.0f;
  return select(ax < splat(0.25f), p * x, exp_fast(x) - 1.0f);
}
#endif

inline float sigmoid_fast(float x) noexcept { return 1.0f / (1.0f + exp_fast(-x)); }

inline float tanh_fast(float x) noexcept {
  const float a = std::abs(x);
  float t;
  if (a < 0.25f) {
    // 1 - 2/(e+1) cancels for small arguments; odd Taylor series instead
    // (x - x^3/3 + 2x^5/15 - 17x^7/315), accurate to ~1e-8 relative here.
    const float z = a * a;
    float p = -17.0f / 315.0f;
    p = p * z + 2.0f / 15.0f;
    p = p * z - 1.0f / 3.0f;
    p = p * z + 1.0f;
    t = p * a;
  } else {
    const float e = exp_fast(2.0f * a);
    t = 1.0f - 2.0f / (e + 1.0f);
  }
  return x < 0.0f ? -t : t;
}

// --- Scalar-typed dispatch used by the elementwise NN kernels --------------

template <class S>
inline S exp_s(S x) noexcept {
  return std::exp(x);
}
template <>
inline float exp_s<float>(float x) noexcept {
  return exp_fast(x);
}

template <class S>
inline S expm1_s(S x) noexcept {
  return std::expm1(x);
}
template <>
inline float expm1_s<float>(float x) noexcept {
  return expm1_fast(x);
}

template <class S>
inline S tanh_s(S x) noexcept {
  return std::tanh(x);
}
template <>
inline float tanh_s<float>(float x) noexcept {
  return tanh_fast(x);
}

template <class S>
inline S sigmoid_s(S x) noexcept {
  return S(1) / (S(1) + std::exp(-x));
}
template <>
inline float sigmoid_s<float>(float x) noexcept {
  return sigmoid_fast(x);
}

}  // namespace hcrl::nn::fastmath
