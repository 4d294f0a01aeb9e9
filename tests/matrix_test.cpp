#include "src/nn/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <stdexcept>

#include "src/common/rng.hpp"

namespace hcrl::nn {
namespace {

TEST(Matrix, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
}

// One sample through the GEMM kernels at batch 1: W x (gemm_nt), W^T x
// (gemm) and the rank-1 gradient update (gemm_tn, accumulating).
TEST(Matrix, MultiplyKnownValues) {
  Matrix m(2, 3);
  // [1 2 3; 4 5 6] * [1 0 -1]^T = [-2, -2]
  m(0, 0) = 1; m(0, 1) = 2; m(0, 2) = 3;
  m(1, 0) = 4; m(1, 1) = 5; m(1, 2) = 6;
  Matrix y;
  gemm_nt(Matrix::from_row({1.0, 0.0, -1.0}), m, y);
  ASSERT_EQ(y.rows(), 1u);
  ASSERT_EQ(y.cols(), 2u);
  EXPECT_DOUBLE_EQ(y(0, 0), -2.0);
  EXPECT_DOUBLE_EQ(y(0, 1), -2.0);
}

TEST(Matrix, MultiplyTransposedKnownValues) {
  Matrix m(2, 3);
  m(0, 0) = 1; m(0, 1) = 2; m(0, 2) = 3;
  m(1, 0) = 4; m(1, 1) = 5; m(1, 2) = 6;
  Matrix y;
  gemm(Matrix::from_row({1.0, 1.0}), m, y);  // column sums
  ASSERT_EQ(y.rows(), 1u);
  ASSERT_EQ(y.cols(), 3u);
  EXPECT_DOUBLE_EQ(y(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 9.0);
}

TEST(Matrix, AddOuterAccumulates) {
  Matrix m(2, 2, 1.0);
  // m += outer(a, b) = a^T b for the rows a = [1 2], b = [3 4].
  gemm_tn(Matrix::from_row({1.0, 2.0}), Matrix::from_row({3.0, 4.0}), m, /*accumulate=*/true);
  EXPECT_DOUBLE_EQ(m(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 9.0);
}

TEST(Matrix, ResizeReshapes) {
  Matrix m(1, 1, 2.0);
  m.resize(3, 4, 0.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_DOUBLE_EQ(m(2, 3), 0.5);
}

TEST(Matrix, SameShape) {
  EXPECT_TRUE(Matrix(2, 3).same_shape(Matrix(2, 3)));
  EXPECT_FALSE(Matrix(2, 3).same_shape(Matrix(3, 2)));
}

TEST(VecHelpers, ArgmaxFirstOnTies) {
  EXPECT_EQ(argmax(Vec{1.0, 5.0, 5.0, 2.0}), 1u);
  EXPECT_EQ(argmax(Vec{-3.0}), 0u);
  EXPECT_THROW(argmax(Vec{}), std::invalid_argument);
}

// --- GEMM kernels ---------------------------------------------------------

Matrix make(std::size_t rows, std::size_t cols, std::initializer_list<double> vals) {
  Matrix m(rows, cols);
  std::size_t i = 0;
  for (double v : vals) m.data()[i++] = v;
  return m;
}

void expect_matrix_eq(const Matrix& a, const Matrix& b, double tol = 1e-12) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a(r, c), b(r, c), tol) << "(" << r << "," << c << ")";
    }
  }
}

TEST(Gemm, GoldenSmallProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const Matrix A = make(2, 2, {1, 2, 3, 4});
  const Matrix B = make(2, 2, {5, 6, 7, 8});
  Matrix C;
  gemm(A, B, C);
  expect_matrix_eq(C, make(2, 2, {19, 22, 43, 50}));
}

TEST(Gemm, GoldenRectangular) {
  // (2x3) * (3x2)
  const Matrix A = make(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix B = make(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix C;
  gemm(A, B, C);
  expect_matrix_eq(C, make(2, 2, {58, 64, 139, 154}));
}

TEST(Gemm, TransposeVariantsMatchExplicitTranspose) {
  common::Rng rng(3);
  auto rand_matrix = [&rng](std::size_t r, std::size_t c) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0, 1.0);
    return m;
  };
  auto transpose = [](const Matrix& m) {
    Matrix t(m.cols(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) t(c, r) = m(r, c);
    }
    return t;
  };
  for (int trial = 0; trial < 5; ++trial) {
    const auto m = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    const auto k = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    const auto n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    const Matrix At = rand_matrix(k, m);  // A^T stored; A = transpose(At)
    const Matrix B = rand_matrix(k, n);
    Matrix via_tn, via_plain;
    gemm_tn(At, B, via_tn);
    gemm(transpose(At), B, via_plain);
    expect_matrix_eq(via_tn, via_plain);

    const Matrix A2 = rand_matrix(m, k);
    const Matrix Bt = rand_matrix(n, k);  // B^T stored
    Matrix via_nt, via_plain2;
    gemm_nt(A2, Bt, via_nt);
    gemm(A2, transpose(Bt), via_plain2);
    expect_matrix_eq(via_nt, via_plain2);
  }
}

TEST(Gemm, AccumulateAddsIntoExisting) {
  const Matrix A = make(1, 2, {1, 2});
  const Matrix B = make(2, 1, {3, 4});
  Matrix C(1, 1, 100.0);
  gemm(A, B, C, /*accumulate=*/true);
  EXPECT_DOUBLE_EQ(C(0, 0), 111.0);  // 100 + 1*3 + 2*4
}

TEST(Gemm, ShapeMismatchThrows) {
  const Matrix A(2, 3), B(2, 3);  // inner dims disagree for plain product
  Matrix C;
  EXPECT_THROW(gemm(A, B, C), std::invalid_argument);
  const Matrix D(4, 3);
  EXPECT_THROW(gemm_tn(A, D, C), std::invalid_argument);  // A rows != D rows
  const Matrix E(4, 5);
  EXPECT_THROW(gemm_nt(A, E, C), std::invalid_argument);  // A cols != E cols
  Matrix F(9, 9, 1.0);
  EXPECT_THROW(gemm(A, Matrix(3, 2), F, /*accumulate=*/true), std::invalid_argument);
}

TEST(Gemm, IdentityIsNeutral) {
  common::Rng rng(5);
  Matrix A(4, 4);
  for (std::size_t i = 0; i < A.size(); ++i) A.data()[i] = rng.uniform(-3.0, 3.0);
  Matrix I(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) I(i, i) = 1.0;
  Matrix L, R;
  gemm(I, A, L);
  gemm(A, I, R);
  expect_matrix_eq(L, A);
  expect_matrix_eq(R, A);
}

TEST(Gemm, AssociativityProperty) {
  // (A B) C == A (B C) for random matrices, to numerical tolerance.
  common::Rng rng(6);
  auto rand_matrix = [&rng](std::size_t r, std::size_t c) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0, 1.0);
    return m;
  };
  for (int trial = 0; trial < 5; ++trial) {
    const auto d1 = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
    const auto d2 = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
    const auto d3 = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
    const auto d4 = 1 + static_cast<std::size_t>(rng.uniform_int(0, 7));
    const Matrix A = rand_matrix(d1, d2), B = rand_matrix(d2, d3), C = rand_matrix(d3, d4);
    Matrix AB, AB_C, BC, A_BC;
    gemm(A, B, AB);
    gemm(AB, C, AB_C);
    gemm(B, C, BC);
    gemm(A, BC, A_BC);
    expect_matrix_eq(AB_C, A_BC, 1e-10);
  }
}

// --- Bit-identity oracle for the micro-kernel -------------------------------

enum class GemmKind { kNN, kNT, kTN };

// Scalar reference: C (m x n) (+)= op(A) op(B), each element summing its kk
// products in increasing k from +0 in one register, then landing with one
// store or add. a(i, k) and b(k, j) read the operands as the GEMM kind sees
// them.
template <class S>
void reference_gemm(GemmKind kind, const MatrixT<S>& A, const MatrixT<S>& B, MatrixT<S>& C,
                    std::size_t m, std::size_t kk, std::size_t n, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      S acc = S(0);
      for (std::size_t k = 0; k < kk; ++k) {
        const S a = kind == GemmKind::kTN ? A(k, i) : A(i, k);
        const S b = kind == GemmKind::kNT ? B(j, k) : B(k, j);
        acc += a * b;
      }
      if (accumulate) {
        C(i, j) += acc;
      } else {
        C(i, j) = acc;
      }
    }
  }
}

template <class S>
MatrixT<S> random_matrix(std::size_t rows, std::size_t cols, common::Rng& rng) {
  MatrixT<S> M(rows, cols);
  for (std::size_t i = 0; i < M.size(); ++i) M.data()[i] = static_cast<S>(rng.normal());
  return M;
}

// Index of the first element whose bits differ, or -1 when all match.
template <class S>
std::ptrdiff_t first_bit_mismatch(const MatrixT<S>& got, const MatrixT<S>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(S)) != 0) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

// Every row-edge height (m = 1..9 crosses the 4-row tile twice), every
// column-edge width at both lane counts (n = 1..40 covers the 8-wide f64
// and 16-wide f32 tiles with each whole-vector count and remainder), and
// depths from one product to a whole paper-shape k-chain.
template <class S>
void check_gemm_bit_identical_to_reference() {
  common::Rng rng(20261018);
  for (const std::size_t kk : {1u, 7u, 84u, 128u}) {
    for (std::size_t m = 1; m <= 9; ++m) {
      for (std::size_t n = 1; n <= 40; ++n) {
        for (const GemmKind kind : {GemmKind::kNN, GemmKind::kNT, GemmKind::kTN}) {
          const MatrixT<S> A = kind == GemmKind::kTN ? random_matrix<S>(kk, m, rng)
                                                      : random_matrix<S>(m, kk, rng);
          const MatrixT<S> B = kind == GemmKind::kNT ? random_matrix<S>(n, kk, rng)
                                                      : random_matrix<S>(kk, n, rng);
          const MatrixT<S> C0 = random_matrix<S>(m, n, rng);
          for (const bool accumulate : {false, true}) {
            MatrixT<S> got = accumulate ? C0 : MatrixT<S>();
            MatrixT<S> want = accumulate ? C0 : MatrixT<S>(m, n);
            switch (kind) {
              case GemmKind::kNN: gemm(A, B, got, accumulate); break;
              case GemmKind::kNT: gemm_nt(A, B, got, accumulate); break;
              case GemmKind::kTN: gemm_tn(A, B, got, accumulate); break;
            }
            reference_gemm(kind, A, B, want, m, kk, n, accumulate);
            ASSERT_EQ(first_bit_mismatch(got, want), -1)
                << "kind=" << static_cast<int>(kind) << " m=" << m << " kk=" << kk << " n=" << n
                << " accumulate=" << accumulate;
          }
        }
      }
    }
  }
}

TEST(Gemm, BitIdenticalToScalarReferenceF64) { check_gemm_bit_identical_to_reference<double>(); }

TEST(Gemm, BitIdenticalToScalarReferenceF32) { check_gemm_bit_identical_to_reference<float>(); }

TEST(MatrixRowHelpers, FromRowsRowSetRowColSums) {
  const Matrix m = Matrix::from_rows({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  ASSERT_EQ(m.rows(), 3u);
  ASSERT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
  const Vec r1 = m.row(1);
  EXPECT_DOUBLE_EQ(r1[0], 3.0);

  Matrix n(2, 2, 0.0);
  n.set_row(1, {7.0, 8.0});
  EXPECT_DOUBLE_EQ(n(1, 1), 8.0);
  EXPECT_DOUBLE_EQ(n(0, 1), 0.0);

  Vec sums(2, 10.0);
  m.add_col_sums_into(sums);
  EXPECT_DOUBLE_EQ(sums[0], 19.0);  // 10 + 1+3+5
  EXPECT_DOUBLE_EQ(sums[1], 22.0);  // 10 + 2+4+6

  EXPECT_THROW(Matrix::from_rows({{1.0}, {1.0, 2.0}}), std::invalid_argument);
}

}  // namespace
}  // namespace hcrl::nn
