#include "src/nn/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "src/telemetry/registry.hpp"

namespace hcrl::nn {

template <class Scalar>
MatrixT<Scalar>::MatrixT(std::size_t rows, std::size_t cols, Scalar fill) {
  resize(rows, cols, fill);
}

template <class Scalar>
MatrixT<Scalar>::MatrixT(const MatrixT& other) {
  resize_for_overwrite(other.rows_, other.cols_);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) data_[i] = other.data_[i];
}

template <class Scalar>
MatrixT<Scalar>::MatrixT(MatrixT&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      capacity_(other.capacity_),
      data_(std::move(other.data_)) {
  other.rows_ = other.cols_ = other.capacity_ = 0;
}

template <class Scalar>
MatrixT<Scalar>& MatrixT<Scalar>::operator=(const MatrixT& other) {
  if (this == &other) return *this;
  resize_for_overwrite(other.rows_, other.cols_);
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) data_[i] = other.data_[i];
  return *this;
}

template <class Scalar>
MatrixT<Scalar>& MatrixT<Scalar>::operator=(MatrixT&& other) noexcept {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  capacity_ = other.capacity_;
  data_ = std::move(other.data_);
  other.rows_ = other.cols_ = other.capacity_ = 0;
  return *this;
}

template <class Scalar>
void MatrixT<Scalar>::fill(Scalar v) noexcept {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) data_[i] = v;
}

template <class Scalar>
void MatrixT<Scalar>::resize(std::size_t rows, std::size_t cols, Scalar fill_value) {
  resize_for_overwrite(rows, cols);
  fill(fill_value);
}

template <class Scalar>
void MatrixT<Scalar>::resize_for_overwrite(std::size_t rows, std::size_t cols) {
  const std::size_t n = rows * cols;
  if (n > capacity_) {
    data_ = std::make_unique_for_overwrite<Scalar[]>(n);
    capacity_ = n;
  }
  rows_ = rows;
  cols_ = cols;
}

template <class Scalar>
std::string MatrixT<Scalar>::shape_string() const {
  std::ostringstream os;
  os << rows_ << "x" << cols_;
  return os.str();
}

template <class Scalar>
MatrixT<Scalar> MatrixT<Scalar>::from_row(const VecT<Scalar>& x) {
  MatrixT m(1, x.size());
  for (std::size_t c = 0; c < x.size(); ++c) m.data_[c] = x[c];
  return m;
}

template <class Scalar>
MatrixT<Scalar> MatrixT<Scalar>::from_rows(const std::vector<VecT<Scalar>>& rows) {
  if (rows.empty()) return MatrixT();
  MatrixT m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != m.cols_) {
      throw std::invalid_argument("Matrix::from_rows: ragged row lengths");
    }
    for (std::size_t c = 0; c < m.cols_; ++c) m.data_[r * m.cols_ + c] = rows[r][c];
  }
  return m;
}

template <class Scalar>
VecT<Scalar> MatrixT<Scalar>::row(std::size_t r) const {
  assert(r < rows_);
  const Scalar* src = data_.get() + r * cols_;
  return VecT<Scalar>(src, src + cols_);
}

template <class Scalar>
void MatrixT<Scalar>::set_row(std::size_t r, const VecT<Scalar>& x) {
  assert(r < rows_ && x.size() == cols_);
  Scalar* dst = data_.get() + r * cols_;
  for (std::size_t c = 0; c < cols_; ++c) dst[c] = x[c];
}

template <class Scalar>
void MatrixT<Scalar>::add_col_sums_into(VecT<Scalar>& out) const {
  assert(out.size() == cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const Scalar* src = data_.get() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) out[c] += src[c];
  }
}

template class MatrixT<float>;
template class MatrixT<double>;

namespace {

// The tiles use GNU vector extensions (16-byte lanes) on gcc/clang.
// Elsewhere the plain scalar loops run — identical arithmetic, identical
// rounding, since lane ops are IEEE scalar ops. Either form relies on the
// library's -ffp-contract=off: a fused multiply-add in one path and not in
// another would round differently.
#if defined(__GNUC__) || defined(__clang__)
#define HCRL_GEMM_VECTOR_EXT 1
#else
#define HCRL_GEMM_VECTOR_EXT 0
#endif

// Register-tile shape of the shared micro-kernel: 4 rows x four 16-byte
// vectors of accumulator per row. A float lane is half as wide as a double
// lane, so the f32 tile doubles its N extent (4x16 vs 4x8) while filling
// the same vector registers — the "wider micro-tile" of the f32 mode.
template <class S>
struct Tile {
  static constexpr std::size_t kM = 4;
  static constexpr std::size_t kN = 8;
};
template <>
struct Tile<float> {
  static constexpr std::size_t kM = 4;
  static constexpr std::size_t kN = 16;
};

// L2 panel blocks for large shapes: a (kK x kN) panel of bkn stays
// cache-resident (~0.4 MB at either precision — float halves the element
// size, so the f32 panels double their extent) while every row of A streams
// past it.
template <class S>
struct Panel {
  static constexpr std::size_t kK = 192;
  static constexpr std::size_t kN = 256;
};
template <>
struct Panel<float> {
  static constexpr std::size_t kK = 256;
  static constexpr std::size_t kN = 512;
};

template <class S>
void prepare_output(MatrixT<S>& C, std::size_t rows, std::size_t cols, bool accumulate,
                    const char* who) {
  if (accumulate) {
    if (C.rows() != rows || C.cols() != cols) {
      throw std::invalid_argument(std::string(who) + ": accumulate into " + C.shape_string() +
                                  ", want " + std::to_string(rows) + "x" + std::to_string(cols));
    }
  } else {
    // Every element is written by the kernels below (overwrite mode), so the
    // usual zero-fill pass would be pure overhead.
    C.resize_for_overwrite(rows, cols);
  }
}

// Reusable packing buffer for the transposed operand of gemm_tn/gemm_nt.
// thread_local so concurrent experiment sweeps don't share it; reusing the
// allocation matters because a fresh buffer per call means an mmap + page
// faults + a redundant zero-fill on every GEMM. One buffer per Scalar type.
template <class S>
std::vector<S>& pack_scratch() {
  thread_local std::vector<S> scratch;
  return scratch;
}

// dst (rows x cols) = src (cols x rows) transposed, in 8x8 blocks so reads
// and writes both stay within a handful of cache lines per block.
template <class S>
void pack_transpose(const S* src, S* dst, std::size_t rows, std::size_t cols) {
  constexpr std::size_t kB = 8;
  for (std::size_t r0 = 0; r0 < rows; r0 += kB) {
    const std::size_t r1 = std::min(r0 + kB, rows);
    for (std::size_t c0 = 0; c0 < cols; c0 += kB) {
      const std::size_t c1 = std::min(c0 + kB, cols);
      for (std::size_t c = c0; c < c1; ++c) {
        const S* srow = src + c * rows;
        for (std::size_t r = r0; r < r1; ++r) dst[r * cols + c] = srow[r];
      }
    }
  }
}

#if HCRL_GEMM_VECTOR_EXT
// MR rows x NV 16-byte vectors of c (+)= a * bkn with the accumulators held
// in vector registers across the whole k loop: each lane runs its element's
// products in increasing k order with one mul + one add per k, so the
// result is bit-identical to the scalar loops (lane ops are IEEE scalar
// ops). a[i][k] enters the lanes as one vector-times-scalar multiply, a
// single splat per row per k. Explicit lane-wise multiply-adds sidestep the
// autovectorizer's shuffle-heavy k-direction gather (measured ~2.4x on the
// f32 kernel).
template <std::size_t MR, std::size_t NV, bool kOverwrite, class S>
void vector_tile(const S* a, std::size_t lda, const S* bkn, std::size_t ldb, S* c,
                 std::size_t ldc, std::size_t kk) {
  typedef S V __attribute__((vector_size(16)));
  constexpr std::size_t kLanes = 16 / sizeof(S);
  V acc[MR][NV] = {};
  for (std::size_t k = 0; k < kk; ++k) {
    const S* brow = bkn + k * ldb;
    V bv[NV];
    for (std::size_t v = 0; v < NV; ++v) __builtin_memcpy(&bv[v], brow + v * kLanes, sizeof(V));
    for (std::size_t ii = 0; ii < MR; ++ii) {
      const S aik = a[ii * lda + k];
      for (std::size_t v = 0; v < NV; ++v) acc[ii][v] += bv[v] * aik;
    }
  }
  for (std::size_t ii = 0; ii < MR; ++ii) {
    S* crow = c + ii * ldc;
    for (std::size_t v = 0; v < NV; ++v) {
      if constexpr (kOverwrite) {
        __builtin_memcpy(crow + v * kLanes, &acc[ii][v], sizeof(V));
      } else {
        V cv;
        __builtin_memcpy(&cv, crow + v * kLanes, sizeof(V));
        cv += acc[ii][v];
        __builtin_memcpy(crow + v * kLanes, &cv, sizeof(V));
      }
    }
  }
}

// MR rows x NR columns (NR narrower than one vector) in a fixed-width
// scalar register tile: the remainder of a column-edge tile, same per-element
// k order as the lanes.
template <std::size_t MR, std::size_t NR, bool kOverwrite, class S>
void scalar_tile(const S* a, std::size_t lda, const S* bkn, std::size_t ldb, S* c,
                 std::size_t ldc, std::size_t kk) {
  S acc[MR][NR] = {};
  for (std::size_t k = 0; k < kk; ++k) {
    const S* brow = bkn + k * ldb;
    for (std::size_t ii = 0; ii < MR; ++ii) {
      const S aik = a[ii * lda + k];
      for (std::size_t jj = 0; jj < NR; ++jj) acc[ii][jj] += aik * brow[jj];
    }
  }
  for (std::size_t ii = 0; ii < MR; ++ii) {
    S* crow = c + ii * ldc;
    for (std::size_t jj = 0; jj < NR; ++jj) {
      if constexpr (kOverwrite) {
        crow[jj] = acc[ii][jj];
      } else {
        crow[jj] += acc[ii][jj];
      }
    }
  }
}

// One MR-row tile of nr <= Tile<S>::kN columns: its whole vectors in one
// vector_tile, then the nr % kLanes columns left over in one scalar_tile.
template <std::size_t MR, bool kOverwrite, class S>
void row_tile(std::size_t nr, const S* a, std::size_t lda, const S* bkn, std::size_t ldb, S* c,
              std::size_t ldc, std::size_t kk) {
  constexpr std::size_t kLanes = 16 / sizeof(S);
  static_assert(Tile<S>::kN == 4 * kLanes);
  switch (nr / kLanes) {
    case 1: vector_tile<MR, 1, kOverwrite>(a, lda, bkn, ldb, c, ldc, kk); break;
    case 2: vector_tile<MR, 2, kOverwrite>(a, lda, bkn, ldb, c, ldc, kk); break;
    case 3: vector_tile<MR, 3, kOverwrite>(a, lda, bkn, ldb, c, ldc, kk); break;
    case 4: vector_tile<MR, 4, kOverwrite>(a, lda, bkn, ldb, c, ldc, kk); return;
    default: break;
  }
  const std::size_t j = nr / kLanes * kLanes;
  switch (nr - j) {
    case 1: scalar_tile<MR, 1, kOverwrite>(a, lda, bkn + j, ldb, c + j, ldc, kk); return;
    case 2:
      if constexpr (kLanes > 2) scalar_tile<MR, 2, kOverwrite>(a, lda, bkn + j, ldb, c + j, ldc, kk);
      return;
    case 3:
      if constexpr (kLanes > 3) scalar_tile<MR, 3, kOverwrite>(a, lda, bkn + j, ldb, c + j, ldc, kk);
      return;
    default: return;
  }
}
#endif

// Shared blocked micro-kernel: c (m x n) = or += a (m x kk) * bkn (kk x n),
// all row-major. Each tile keeps a Tile<S>::kM x Tile<S>::kN accumulator
// block in registers across the whole k loop (c sees one store per element
// instead of one per multiply-accumulate). With GNU vector extensions every
// tile runs in vector lanes — row-edge tiles of a short A (m < kM, every
// batch-1 call) and column-edge tiles (n not a multiple of kN) included —
// and only a column edge's last nr % lanes columns take a scalar register
// tile. Every output element — any tile, any m — sums its kk products in
// increasing k order inside a register starting from 0 and lands on memory
// with a single store or add, so batch-1 calls and batched calls produce
// identical sums.
template <bool kOverwrite, class S>
void tile_mul_add(const S* a, std::size_t lda, const S* bkn, std::size_t ldb, S* c,
                  std::size_t ldc, std::size_t m, std::size_t kk, std::size_t n) {
  constexpr std::size_t kTileM = Tile<S>::kM;
  constexpr std::size_t kTileN = Tile<S>::kN;
  for (std::size_t i0 = 0; i0 < m; i0 += kTileM) {
    const std::size_t mr = std::min(kTileM, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += kTileN) {
      const std::size_t nr = std::min(kTileN, n - j0);
#if HCRL_GEMM_VECTOR_EXT
      static_assert(kTileM == 4);
      const S* at = a + i0 * lda;
      const S* bt = bkn + j0;
      S* ct = c + i0 * ldc + j0;
      switch (mr) {
        case 1: row_tile<1, kOverwrite>(nr, at, lda, bt, ldb, ct, ldc, kk); break;
        case 2: row_tile<2, kOverwrite>(nr, at, lda, bt, ldb, ct, ldc, kk); break;
        case 3: row_tile<3, kOverwrite>(nr, at, lda, bt, ldb, ct, ldc, kk); break;
        default: row_tile<4, kOverwrite>(nr, at, lda, bt, ldb, ct, ldc, kk); break;
      }
#else
      if (mr == kTileM && nr == kTileN) {
        // Hot full tile, portable scalar form: fixed trip counts unroll and
        // keep acc in registers.
        S acc[kTileM][kTileN] = {};
        for (std::size_t k = 0; k < kk; ++k) {
          const S* brow = bkn + k * ldb + j0;
          for (std::size_t ii = 0; ii < kTileM; ++ii) {
            const S aik = a[(i0 + ii) * lda + k];
            for (std::size_t jj = 0; jj < kTileN; ++jj) acc[ii][jj] += aik * brow[jj];
          }
        }
        for (std::size_t ii = 0; ii < kTileM; ++ii) {
          S* crow = c + (i0 + ii) * ldc + j0;
          for (std::size_t jj = 0; jj < kTileN; ++jj) {
            if constexpr (kOverwrite) {
              crow[jj] = acc[ii][jj];
            } else {
              crow[jj] += acc[ii][jj];
            }
          }
        }
        continue;
      }
      // Edge tile: same structure with runtime trip counts — loads stay
      // contiguous and accumulation order is identical.
      S acc[kTileM][kTileN] = {};
      for (std::size_t k = 0; k < kk; ++k) {
        const S* brow = bkn + k * ldb + j0;
        for (std::size_t ii = 0; ii < mr; ++ii) {
          const S aik = a[(i0 + ii) * lda + k];
          for (std::size_t jj = 0; jj < nr; ++jj) acc[ii][jj] += aik * brow[jj];
        }
      }
      for (std::size_t ii = 0; ii < mr; ++ii) {
        S* crow = c + (i0 + ii) * ldc + j0;
        for (std::size_t jj = 0; jj < nr; ++jj) {
          if constexpr (kOverwrite) {
            crow[jj] = acc[ii][jj];
          } else {
            crow[jj] += acc[ii][jj];
          }
        }
      }
#endif
    }
  }
}

// c (m x n) = or += a (m x kk) * bkn (kk x n), all row-major and densely
// packed, as one tile_mul_add call: every element's k-chain stays whole.
template <class S>
void tile_mul_whole(const S* a, const S* bkn, S* c, std::size_t m, std::size_t kk, std::size_t n,
                    bool accumulate) {
  if (accumulate) {
    tile_mul_add<false>(a, kk, bkn, n, c, n, m, kk, n);
  } else {
    tile_mul_add<true>(a, kk, bkn, n, c, n, m, kk, n);
  }
}

struct GemmMetrics {
  telemetry::MetricId calls;
  telemetry::MetricId macs;

  static const GemmMetrics& get() {
    static const GemmMetrics m = [] {
      auto& reg = telemetry::global_registry();
      return GemmMetrics{
          .calls = reg.counter("nn.gemm.calls"),
          .macs = reg.counter("nn.gemm.macs"),
      };
    }();
    return m;
  }
};

// c (m x n) = or += a (m x kk) * bkn (kk x n), all row-major and densely
// packed, on the calling thread. Shapes that fit one panel (every NN
// layer in this project) take the single tile_mul_add call, preserving the
// exact per-element accumulation order the parity tests pin down. So does a
// short A (m < Tile<S>::kM, every batch-1 call), which would reuse no panel
// of bkn: batch-1 sums stay one chain at any depth. Larger shapes are split
// into panels, which regroups each element's k-chain into per-panel partial
// sums (same k order, different rounding breaks — well inside the parity
// budget).
template <class S>
void tile_mul(const S* a, const S* bkn, S* c, std::size_t m, std::size_t kk, std::size_t n,
              bool accumulate) {
  if (telemetry::enabled()) {
    const GemmMetrics& gm = GemmMetrics::get();
    telemetry::count(gm.calls);
    telemetry::count(gm.macs, static_cast<std::uint64_t>(m) * kk * n);
  }
  constexpr std::size_t kKBlock = Panel<S>::kK;
  constexpr std::size_t kNBlock = Panel<S>::kN;
  if (m < Tile<S>::kM || (kk <= kKBlock && n <= kNBlock)) {
    tile_mul_whole(a, bkn, c, m, kk, n, accumulate);
    return;
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kNBlock) {
    const std::size_t nb = std::min(kNBlock, n - j0);
    for (std::size_t k0 = 0; k0 < kk; k0 += kKBlock) {
      const std::size_t kb = std::min(kKBlock, kk - k0);
      const bool first = k0 == 0 && !accumulate;
      if (first) {
        tile_mul_add<true>(a + k0, kk, bkn + k0 * n + j0, n, c + j0, n, m, kb, nb);
      } else {
        tile_mul_add<false>(a + k0, kk, bkn + k0 * n + j0, n, c + j0, n, m, kb, nb);
      }
    }
  }
}

}  // namespace

template <class S>
void gemm(const MatrixT<S>& A, const MatrixT<S>& B, MatrixT<S>& C, bool accumulate) {
  if (A.cols() != B.rows()) {
    throw std::invalid_argument("gemm: shape mismatch " + A.shape_string() + " * " +
                                B.shape_string());
  }
  const std::size_t m = A.rows(), kk = A.cols(), n = B.cols();
  prepare_output(C, m, n, accumulate, "gemm");
  // B is already (kk x n) row-major — the micro-kernel's native layout.
  tile_mul(A.data(), B.data(), C.data(), m, kk, n, accumulate);
}

template <class S>
void gemm_tn(const MatrixT<S>& A, const MatrixT<S>& B, MatrixT<S>& C, bool accumulate) {
  if (A.rows() != B.rows()) {
    throw std::invalid_argument("gemm_tn: shape mismatch " + A.shape_string() + "^T * " +
                                B.shape_string());
  }
  const std::size_t kk = A.rows(), m = A.cols(), n = B.cols();
  prepare_output(C, m, n, accumulate, "gemm_tn");
  // Pack A^T (m x kk) once — O(m*kk), amortized over the m*kk*n kernel work.
  auto& scratch = pack_scratch<S>();
  scratch.resize(m * kk);
  S* at = scratch.data();
  pack_transpose(A.data(), at, m, kk);
  tile_mul(at, B.data(), C.data(), m, kk, n, accumulate);
}

template <class S>
void gemm_nt(const MatrixT<S>& A, const MatrixT<S>& B, MatrixT<S>& C, bool accumulate) {
  if (A.cols() != B.cols()) {
    throw std::invalid_argument("gemm_nt: shape mismatch " + A.shape_string() + " * " +
                                B.shape_string() + "^T");
  }
  const std::size_t m = A.rows(), kk = A.cols(), n = B.rows();
  prepare_output(C, m, n, accumulate, "gemm_nt");
  const S* a = A.data();
  const S* b = B.data();
  S* c = C.data();
  // Batched path: pack B^T (kk x n) once — amortized across the m batch
  // rows — then run the register-tiled micro-kernel.
  if (m >= Tile<S>::kM) {
    auto& scratch = pack_scratch<S>();
    scratch.resize(kk * n);
    S* bt = scratch.data();
    pack_transpose(b, bt, kk, n);
    tile_mul(a, bt, c, m, kk, n, accumulate);
    return;
  }
  // Small-batch path: both operands walked along contiguous rows; skipping
  // the pack is cheaper below the tile height. Same k-ordered register dot
  // and single store/add per element as the micro-kernel, so results are
  // identical.
  for (std::size_t i = 0; i < m; ++i) {
    const S* arow = a + i * kk;
    S* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const S* brow = b + j * kk;
      S acc = S(0);
      for (std::size_t k = 0; k < kk; ++k) acc += arow[k] * brow[k];
      if (accumulate) {
        crow[j] += acc;
      } else {
        crow[j] = acc;
      }
    }
  }
}

template <class S>
std::size_t argmax(const VecT<S>& x) {
  if (x.empty()) throw std::invalid_argument("argmax: empty vector");
  std::size_t best = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[best]) best = i;
  }
  return best;
}

// Explicit instantiations: the library ships exactly the float and double
// kernels (matrix.hpp declares the templates without definitions).
#define HCRL_NN_INSTANTIATE_MATRIX(S)                                                  \
  template void gemm<S>(const MatrixT<S>&, const MatrixT<S>&, MatrixT<S>&, bool);      \
  template void gemm_tn<S>(const MatrixT<S>&, const MatrixT<S>&, MatrixT<S>&, bool);   \
  template void gemm_nt<S>(const MatrixT<S>&, const MatrixT<S>&, MatrixT<S>&, bool);   \
  template std::size_t argmax<S>(const VecT<S>&);

HCRL_NN_INSTANTIATE_MATRIX(float)
HCRL_NN_INSTANTIATE_MATRIX(double)
#undef HCRL_NN_INSTANTIATE_MATRIX

}  // namespace hcrl::nn
