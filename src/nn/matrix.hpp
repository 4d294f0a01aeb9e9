// Dense row-major matrix and GEMM kernels for the NN substrate.
//
// The networks in this project are tiny (tens to a few hundred units), so a
// straightforward matrix with cache-friendly loops is both simple and fast
// enough; there is intentionally no BLAS dependency. The GEMM kernels below
// are the whole substrate: every layer carries a (batch x dim) activation
// Matrix through them, and single-sample work runs them at batch 1.
//
// Everything is templated on the Scalar type and instantiated for float and
// double (matrix.cpp). `Matrix`/`Vec` alias the double instantiation — the
// default precision of the library — while the f32 instantiation doubles
// SIMD lanes and halves cache/bandwidth pressure for the GEMM-bound sweeps
// (the micro-kernel widens its register tile accordingly). The runtime
// selector between the two lives in precision.hpp.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace hcrl::nn {

template <class Scalar>
using VecT = std::vector<Scalar>;

template <class Scalar>
class MatrixT {
 public:
  using value_type = Scalar;

  MatrixT() = default;
  MatrixT(std::size_t rows, std::size_t cols, Scalar fill = Scalar(0));

  // Storage is a capacity-tracked raw buffer (not std::vector) so that
  // resize_for_overwrite() can hand out genuinely uninitialized memory:
  // every batched layer output is fully written by a GEMM or elementwise
  // kernel, and zero-filling it first would be a wasted pass per matrix.
  MatrixT(const MatrixT& other);
  MatrixT(MatrixT&& other) noexcept;
  MatrixT& operator=(const MatrixT& other);
  MatrixT& operator=(MatrixT&& other) noexcept;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }

  Scalar& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  Scalar operator()(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

  Scalar* data() noexcept { return data_.get(); }
  const Scalar* data() const noexcept { return data_.get(); }

  void fill(Scalar v) noexcept;
  void resize(std::size_t rows, std::size_t cols, Scalar fill = Scalar(0));
  /// Resize leaving element values unspecified (cheap when the shape is
  /// already right); callers must overwrite every element before reading.
  void resize_for_overwrite(std::size_t rows, std::size_t cols);

  bool same_shape(const MatrixT& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string shape_string() const;

  // --- row-oriented helpers for the batched (batch x dim) layout ----------

  /// 1 x n matrix holding `x` as its single row.
  static MatrixT from_row(const VecT<Scalar>& x);
  /// rows.size() x rows[0].size() matrix; all rows must share one length.
  static MatrixT from_rows(const std::vector<VecT<Scalar>>& rows);

  /// Copy of row r as a Vec.
  VecT<Scalar> row(std::size_t r) const;
  void set_row(std::size_t r, const VecT<Scalar>& x);
  /// set_row from a possibly differently-typed source (value conversion per
  /// element) — the precision boundary of the type-erased agents.
  template <class U>
  void set_row_cast(std::size_t r, const std::vector<U>& x) {
    assert(r < rows_ && x.size() == cols_);
    Scalar* dst = data_.get() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) dst[c] = static_cast<Scalar>(x[c]);
  }
  /// out[c] += sum over rows of this(r, c), accumulated in row order so the
  /// result is bit-identical to adding the rows one by one (bias gradients).
  void add_col_sums_into(VecT<Scalar>& out) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t capacity_ = 0;
  std::unique_ptr<Scalar[]> data_;
};

using Matrix = MatrixT<double>;
using Vec = VecT<double>;

// --- GEMM kernels ---------------------------------------------------------
//
// C (+)= op(A) * op(B) with blocked, cache-friendly loops. When `accumulate`
// is false C is resized and overwritten; when true C must already have the
// result shape and the product is added into it. Shape mismatches throw
// std::invalid_argument. Each output element's reduction runs in strictly
// increasing k order from 0, so a GEMM that fits one L2 panel (every NN
// layer here) equals the plain scalar loop bit for bit at any batch size
// (Gemm.BitIdenticalToScalarReference in matrix_test), and a batched call
// equals its rows run at batch 1 — the property the batch-parity suite pins
// down.

/// C (+)= A * B;  A is (m x k), B is (k x n), C is (m x n).
template <class S>
void gemm(const MatrixT<S>& A, const MatrixT<S>& B, MatrixT<S>& C, bool accumulate = false);
/// C (+)= A^T * B;  A is (k x m), B is (k x n), C is (m x n).
template <class S>
void gemm_tn(const MatrixT<S>& A, const MatrixT<S>& B, MatrixT<S>& C, bool accumulate = false);
/// C (+)= A * B^T;  A is (m x k), B is (n x k), C is (m x n).
template <class S>
void gemm_nt(const MatrixT<S>& A, const MatrixT<S>& B, MatrixT<S>& C, bool accumulate = false);

/// No-op stub: bench_e2e still calls it; the next benchmark change deletes it.
inline void set_gemm_threads(std::size_t /*n*/) noexcept {}

/// Index of the maximum element (first on ties); requires non-empty.
template <class S>
std::size_t argmax(const VecT<S>& x);

extern template class MatrixT<float>;
extern template class MatrixT<double>;

}  // namespace hcrl::nn
