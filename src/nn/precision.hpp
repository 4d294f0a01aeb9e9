// Compute precision of the NN substrate.
//
// Every class in src/nn is templated on a Scalar type and instantiated for
// float and double; Precision is the runtime-facing selector that the agent
// boundary (core::GroupedQNetwork, core::LstmPredictor) and the experiment
// config use to pick an instantiation. The f32 mode halves
// cache/bandwidth pressure and doubles SIMD lanes in the GEMM-bound paths;
// Q-learning is noise-tolerant, and the f32-vs-f64 parity gates in
// tests/batch_parity_test.cpp pin the numerical agreement.
#pragma once

#include <string>

namespace hcrl::nn {

enum class Precision { kF32, kF64 };

std::string to_string(Precision p);

/// "f32"/"float" -> kF32, "f64"/"double" -> kF64; throws std::invalid_argument.
Precision precision_from_string(const std::string& name);

/// Process-wide default, read once from the HCRL_PRECISION environment
/// variable ("f32" or "f64"); kF64 when unset. This is what experiment and
/// agent option structs initialize their `precision` field from, so a CI leg
/// can flip the whole experiment stack to f32 without a rebuild.
Precision default_precision();

}  // namespace hcrl::nn
