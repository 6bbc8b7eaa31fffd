#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace dt::tensor {

namespace {
void check_same_size(std::span<const float> a, std::span<const float> b) {
  common::check(a.size() == b.size(), "ops: size mismatch");
}
}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  check_same_size(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(std::span<float> x, float alpha) noexcept {
  for (float& v : x) v *= alpha;
}

void copy(std::span<const float> src, std::span<float> dst) {
  check_same_size(src, dst);
  std::copy(src.begin(), src.end(), dst.begin());
}

void add(std::span<const float> a, std::span<const float> b,
         std::span<float> dst) {
  check_same_size(a, b);
  check_same_size(a, dst);
  for (std::size_t i = 0; i < a.size(); ++i) dst[i] = a[i] + b[i];
}

void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> dst) {
  check_same_size(a, b);
  check_same_size(a, dst);
  for (std::size_t i = 0; i < a.size(); ++i) dst[i] = a[i] - b[i];
}

void relu(std::span<float> x) noexcept {
  for (float& v : x) v = v > 0.0f ? v : 0.0f;
}

void relu_backward(std::span<const float> activation,
                   std::span<const float> grad_out, std::span<float> grad_in) {
  check_same_size(activation, grad_out);
  check_same_size(activation, grad_in);
  for (std::size_t i = 0; i < activation.size(); ++i) {
    grad_in[i] = activation[i] > 0.0f ? grad_out[i] : 0.0f;
  }
}

float dot(std::span<const float> a, std::span<const float> b) {
  check_same_size(a, b);
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(acc);
}

float sum(std::span<const float> x) noexcept {
  double acc = 0.0;
  for (float v : x) acc += v;
  return static_cast<float>(acc);
}

float l2_norm(std::span<const float> x) noexcept {
  double acc = 0.0;
  for (float v : x) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float max_abs(std::span<const float> x) noexcept {
  float m = 0.0f;
  for (float v : x) m = std::max(m, std::fabs(v));
  return m;
}

namespace {

void check_2d(const Tensor& t, const char* name) {
  if (t.rank() != 2) common::fail(std::string("matmul: ") + name + " not 2-D");
}

// ---- GEMM building blocks ---------------------------------------------------
//
// Every GEMM output is a fixed sequence of the fmadd below (ops.hpp). The
// kernels only choose which of those sequences run side by side in
// registers, never their order or their rounding.

// The one multiply-add every chain is built from. It is spelled out rather
// than left to -ffp-contract: GCC's vectorizer does not contract a*b + c
// consistently in tiled code, so a fused build could mix fused and unfused
// steps depending on the tile.
inline float fmadd(float a, float b, float c) {
#ifdef __FMA__
  return std::fma(a, b, c);
#else
  return c + a * b;
#endif
}

// Eight floats as one value. A fixed-width GNU vector makes the lane layout
// explicit (gemm_nt's combine tree depends on it) and leaves the mapping to
// the target: one AVX register, or two SSE ones. All of these helpers are
// inlined, so the vector-argument ABI that -Wpsabi warns about (reported
// against the whole unit in builds without AVX) never applies.
#pragma GCC diagnostic ignored "-Wpsabi"
typedef float v8f __attribute__((vector_size(32)));
typedef float v4f __attribute__((vector_size(16)));

inline v8f load8(const float* p) {
  v8f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store8(float* p, v8f v) { std::memcpy(p, &v, sizeof v); }

inline v8f splat8(float x) { return v8f{x, x, x, x, x, x, x, x}; }

// Lane-wise fmadd: one vector FMA, or a vector multiply and add.
inline v8f fmadd8(v8f a, v8f b, v8f c) {
  v8f r;
#pragma GCC unroll 8
  for (int l = 0; l < 8; ++l) r[l] = fmadd(a[l], b[l], c[l]);
  return r;
}

// Per-host-thread scratch for packed and padded copies: GEMMs run
// concurrently on the runtime's compute pool, so this must not be shared
// across threads.
thread_local std::vector<float> g_scratch;

float* scratch(std::size_t floats) {
  if (g_scratch.size() < floats) g_scratch.resize(floats);
  return g_scratch.data();
}

// ---- gemm_nn / gemm_tn ------------------------------------------------------

// Cache blocking: a kKc x kNc block of B (128 KiB) is swept by every row
// tile before the next block is touched. Blocking cuts each chain into
// consecutive pieces, parked in C in between, which rounds nothing. When
// B's rows are wider than a block, the block is first copied into a
// contiguous panel, so a tile walks consecutive memory rather than one
// page per step.
constexpr std::int64_t kNc = 256;  // B columns per block
constexpr std::int64_t kKc = 128;  // reduction steps per block
constexpr int kMr = 8;             // C rows per register tile

// Row r of a tile reads a(r, s) = a[r][s * a_step].
using TileRows = const float* [kMr];

// One kMr x (8 * NV) tile of C, held in registers over `steps` steps:
//   acc[r][j] = fmadd(a(r, s), b[s][j], acc[r][j]),  s = 0, 1, ..., steps-1
// The accumulators start from C (`load_c`) or from +0, and are stored once
// at the end.
template <int NV>
void gemm_tile(const TileRows& a, std::int64_t a_step, const float* b,
               std::int64_t ldb, float* c, std::int64_t ldc,
               std::int64_t steps, bool load_c) {
  v8f acc[kMr][NV];
#pragma GCC unroll 8
  for (int r = 0; r < kMr; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) {
      acc[r][v] = load_c ? load8(c + r * ldc + 8 * v) : v8f{};
    }
  }
  for (std::int64_t s = 0; s < steps; ++s) {
    v8f bv[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) bv[v] = load8(b + s * ldb + 8 * v);
#pragma GCC unroll 8
    for (int r = 0; r < kMr; ++r) {
      const v8f av = splat8(a[r][s * a_step]);
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) acc[r][v] = fmadd8(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kMr; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) store8(c + r * ldc + 8 * v, acc[r][v]);
  }
}

// A tile of which only the top-left `rows` x `cols` lies inside C (at the
// bottom or right edge): it runs through a local copy of C, so nothing past
// the edge is touched. Rows past the edge repeat the last row of A (see
// gemm_rows) and are dropped; columns past the edge read B's zero padding.
template <int NV>
void gemm_clipped_tile(const TileRows& a, std::int64_t a_step,
                       const float* b, std::int64_t ldb, float* c,
                       std::int64_t ldc, std::int64_t steps,
                       std::int64_t rows, std::int64_t cols, bool load_c) {
  if (rows == kMr && cols == 8 * NV) {
    gemm_tile<NV>(a, a_step, b, ldb, c, ldc, steps, load_c);
    return;
  }
  float cbuf[kMr][8 * NV];
  for (int r = 0; r < kMr; ++r) {
    for (int j = 0; j < 8 * NV; ++j) {
      cbuf[r][j] = load_c && r < rows && j < cols ? c[r * ldc + j] : 0.0f;
    }
  }
  gemm_tile<NV>(a, a_step, b, ldb, cbuf[0], 8 * NV, steps, load_c);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t j = 0; j < cols; ++j) c[r * ldc + j] = cbuf[r][j];
  }
}

// C(rows x n) (+)= sum over s of a(r, s) * B[s][:], B row-major with `steps`
// rows: the shared body of gemm_nn (a(r, s) = A[r][s]) and gemm_tn
// (a(r, s) = A[s][r]).
//
// Each row block is covered by 16-wide tiles, then an 8-wide one when
// exactly 8 columns remain. Any other remainder is one tile over a copy of
// those columns of B, zero-padded to `padded_w` (8 or 16) floats per step:
// a narrow output such as the MLP's 10 classes is one vector pass, not a
// vector plus a scalar tail.
void gemm_rows(const float* a, std::int64_t a_row, std::int64_t a_step,
               const float* b, float* c, std::int64_t rows, std::int64_t steps,
               std::int64_t n, bool accumulate) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kNc) {
    const std::int64_t nc = std::min(kNc, n - j0);
    const std::int64_t whole = nc % 16 == 8 ? nc : nc / 16 * 16;
    const std::int64_t narrow = nc - whole;
    const std::int64_t padded_w = narrow > 8 ? 16 : 8;
    // A product with no steps still clears C when not accumulating.
    for (std::int64_t s0 = 0; s0 < std::max<std::int64_t>(steps, 1);
         s0 += kKc) {
      const std::int64_t kc = std::min(kKc, steps - s0);
      const bool load_c = accumulate || s0 > 0;
      // Scratch holds the contiguous panel (if any), then the padded columns.
      const std::int64_t panel_size = n > kNc ? kc * nc : 0;
      float* const panel =
          scratch(static_cast<std::size_t>(panel_size + kc * padded_w));
      float* const padded = panel + panel_size;
      const float* bp = b + s0 * n + j0;
      std::int64_t ldb = n;
      if (panel_size > 0) {
        for (std::int64_t s = 0; s < kc; ++s) {
          std::memcpy(panel + s * nc, bp + s * n, sizeof(float) * nc);
        }
        bp = panel;
        ldb = nc;
      }
      if (narrow > 0) {
        for (std::int64_t s = 0; s < kc; ++s) {
          for (std::int64_t j = 0; j < padded_w; ++j) {
            padded[s * padded_w + j] =
                j < narrow ? bp[s * ldb + whole + j] : 0.0f;
          }
        }
      }
      for (std::int64_t r0 = 0; r0 < rows; r0 += kMr) {
        const std::int64_t mr = std::min<std::int64_t>(kMr, rows - r0);
        TileRows ar;
#pragma GCC unroll 8
        for (int r = 0; r < kMr; ++r) {
          const std::int64_t row = std::min<std::int64_t>(r0 + r, rows - 1);
          ar[r] = a + row * a_row + s0 * a_step;
        }
        float* cr = c + r0 * n + j0;
        for (std::int64_t j = 0; j < whole; j += 16) {
          if (j + 16 > whole) {
            gemm_clipped_tile<1>(ar, a_step, bp + j, ldb, cr + j, n, kc, mr,
                                 8, load_c);
          } else {
            gemm_clipped_tile<2>(ar, a_step, bp + j, ldb, cr + j, n, kc, mr,
                                 16, load_c);
          }
        }
        if (narrow > 0 && padded_w == 8) {
          gemm_clipped_tile<1>(ar, a_step, padded, 8, cr + whole, n, kc, mr,
                               narrow, load_c);
        } else if (narrow > 0) {
          gemm_clipped_tile<2>(ar, a_step, padded, 16, cr + whole, n, kc, mr,
                               narrow, load_c);
        }
      }
    }
  }
}

}  // namespace

// C[m x n] (+)= A[m x k] * B[k x n].
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_rows(a, k, 1, b, c, m, k, n, accumulate);
}

// C[k x n] (+)= A[m x k]^T * B[m x n].
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_rows(a, 1, k, b, c, k, m, n, accumulate);
}

// ---- gemm_nt ----------------------------------------------------------------

namespace {

constexpr int kDotTile = 4;  // A rows and B rows per dot tile

// [x0+x1, x2+x3, y0+y1, y2+y3, x4+x5, x6+x7, y4+y5, y6+y7]
inline v8f pair_sums(v8f x, v8f y) {
  return __builtin_shufflevector(x, y, 0, 2, 8, 10, 4, 6, 12, 14) +
         __builtin_shufflevector(x, y, 1, 3, 9, 11, 5, 7, 13, 15);
}

// Entry q is ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)) over the
// lanes l of d[q]: the combine tree of four dots at once.
inline v4f combine4(const v8f (&d)[kDotTile]) {
  // g = [sums of lanes 0-3 of d0..d3 | sums of lanes 4-7 of d0..d3]
  const v8f g = pair_sums(pair_sums(d[0], d[1]), pair_sums(d[2], d[3]));
  return __builtin_shufflevector(g, g, 0, 1, 2, 3) +
         __builtin_shufflevector(g, g, 4, 5, 6, 7);
}

using DotRows = const float* [kDotTile];

// acc[r][q] = fmadd8(ar[r][j..j+7], br[q][j..j+7], acc[r][q]) for all r, q.
inline void dot_step(v8f (&acc)[kDotTile][kDotTile], const DotRows& ar,
                     const DotRows& br, std::int64_t j) {
  v8f bv[kDotTile];
#pragma GCC unroll 8
  for (int q = 0; q < kDotTile; ++q) bv[q] = load8(br[q] + j);
#pragma GCC unroll 8
  for (int r = 0; r < kDotTile; ++r) {
    const v8f av = load8(ar[r] + j);
#pragma GCC unroll 8
    for (int q = 0; q < kDotTile; ++q) acc[r][q] = fmadd8(av, bv[q], acc[r][q]);
  }
}

// A 4 x 4 block of dot products of A rows with B rows, each in eight lanes:
//   lane[l] = fmadd(a[j], b[j], lane[l]),  j = l, l + 8, l + 16, ... < n
// then combine4, then C = d (or C + d). Rows past the matrix edge repeat
// its last row, and their results are dropped. The last partial group of
// eight comes from `a_tail`/`b_tail` (8 floats per row) padded with a = -0
// and b = +0: their product -0 leaves a lane unchanged (x + -0 == x for
// every x, zeros included).
void dot_tile(const float* a, const float* a_tail, std::int64_t rows_a,
              const float* b, const float* b_tail, std::int64_t rows_b,
              float* c, std::int64_t n, std::int64_t ldc, bool accumulate) {
  const std::int64_t n8 = n / 8 * 8;
  DotRows ar, br, at, bt;
#pragma GCC unroll 8
  for (int t = 0; t < kDotTile; ++t) {
    const std::int64_t ia = std::min<std::int64_t>(t, rows_a - 1);
    const std::int64_t ib = std::min<std::int64_t>(t, rows_b - 1);
    ar[t] = a + ia * n;
    br[t] = b + ib * n;
    at[t] = n8 < n ? a_tail + ia * 8 : nullptr;
    bt[t] = n8 < n ? b_tail + ib * 8 : nullptr;
  }
  v8f acc[kDotTile][kDotTile] = {};
  for (std::int64_t j = 0; j < n8; j += 8) dot_step(acc, ar, br, j);
  if (n8 < n) dot_step(acc, at, bt, 0);
#pragma GCC unroll 8
  for (int r = 0; r < kDotTile; ++r) {
    if (r == rows_a) break;
    float* cr = c + r * ldc;
    const v4f d = combine4(acc[r]);
    if (rows_b >= kDotTile) {
      v4f out;
      std::memcpy(&out, cr, sizeof out);
      out = accumulate ? out + d : d;
      std::memcpy(cr, &out, sizeof out);
    } else {
      for (std::int64_t q = 0; q < rows_b; ++q) {
        cr[q] = accumulate ? cr[q] + d[q] : d[q];
      }
    }
  }
}

// The last n % 8 entries of each of `rows` rows, padded to 8 with `pad`.
void pack_tails(const float* src, std::int64_t rows, std::int64_t n,
                float pad, float* dst) {
  const std::int64_t n8 = n / 8 * 8;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (int l = 0; l < 8; ++l) {
      dst[r * 8 + l] = n8 + l < n ? src[r * n + n8 + l] : pad;
    }
  }
}

}  // namespace

// C[m x k] (+)= A[m x n] * B[k x n]^T: rows of A against rows of B, a grid
// of dot products over contiguous data.
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
  const float* a_tail = nullptr;
  const float* b_tail = nullptr;
  if (n % 8 != 0) {
    float* tails = scratch(static_cast<std::size_t>((m + k) * 8));
    pack_tails(a, m, n, -0.0f, tails);
    pack_tails(b, k, n, 0.0f, tails + m * 8);
    a_tail = tails;
    b_tail = tails + m * 8;
  }
  for (std::int64_t i = 0; i < m; i += kDotTile) {
    for (std::int64_t p = 0; p < k; p += kDotTile) {
      dot_tile(a + i * n, a_tail ? a_tail + i * 8 : nullptr, m - i, b + p * n,
               b_tail ? b_tail + p * 8 : nullptr, k - p, c + i * k + p, n, k,
               accumulate);
    }
  }
}

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_2d(a, "A");
  check_2d(b, "B");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  common::check(b.dim(0) == k, "matmul: inner dimension mismatch");
  common::check(c.rank() == 2 && c.dim(0) == m && c.dim(1) == n,
                "matmul: output shape mismatch");
  gemm_nn(a.data().data(), b.data().data(), c.data().data(), m, k, n,
          accumulate);
}

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  // C(k x n) = A(m x k)^T * B(m x n)
  check_2d(a, "A");
  check_2d(b, "B");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  common::check(b.dim(0) == m, "matmul_tn: row count mismatch");
  common::check(c.rank() == 2 && c.dim(0) == k && c.dim(1) == n,
                "matmul_tn: output shape mismatch");
  gemm_tn(a.data().data(), b.data().data(), c.data().data(), m, k, n,
          accumulate);
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  // C(m x k) = A(m x n) * B(k x n)^T
  check_2d(a, "A");
  check_2d(b, "B");
  const std::int64_t m = a.dim(0), n = a.dim(1), k = b.dim(0);
  common::check(b.dim(1) == n, "matmul_nt: column count mismatch");
  common::check(c.rank() == 2 && c.dim(0) == m && c.dim(1) == k,
                "matmul_nt: output shape mismatch");
  gemm_nt(a.data().data(), b.data().data(), c.data().data(), m, n, k,
          accumulate);
}

void add_row_bias(Tensor& x, std::span<const float> bias) {
  common::check(x.rank() == 2, "add_row_bias: x not 2-D");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  common::check(static_cast<std::int64_t>(bias.size()) == n,
                "add_row_bias: bias size mismatch");
  for (std::int64_t i = 0; i < m; ++i) {
    float* row = x.data().data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) row[j] += bias[j];
  }
}

void sum_rows(const Tensor& x, std::span<float> dst) {
  common::check(x.rank() == 2, "sum_rows: x not 2-D");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  common::check(static_cast<std::int64_t>(dst.size()) == n,
                "sum_rows: output size mismatch");
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = x.data().data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) dst[j] += row[j];
  }
}

void softmax_rows(Tensor& logits) {
  common::check(logits.rank() == 2, "softmax_rows: logits not 2-D");
  const std::int64_t m = logits.dim(0), n = logits.dim(1);
  for (std::int64_t i = 0; i < m; ++i) {
    float* row = logits.data().data() + i * n;
    float mx = row[0];
    for (std::int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::int64_t j = 0; j < n; ++j) {
      row[j] = std::exp(row[j] - mx);
      denom += row[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::int64_t j = 0; j < n; ++j) row[j] *= inv;
  }
}

std::int64_t argmax_row(const Tensor& x, std::int64_t r) {
  common::check(x.rank() == 2 && r >= 0 && r < x.dim(0),
                "argmax_row: bad arguments");
  const std::int64_t n = x.dim(1);
  const float* row = x.data().data() + r * n;
  std::int64_t best = 0;
  for (std::int64_t j = 1; j < n; ++j) {
    if (row[j] > row[best]) best = j;
  }
  return best;
}

void fill_normal(Tensor& t, common::Rng& rng, float stddev) {
  for (float& v : t.data()) {
    v = static_cast<float>(rng.normal(0.0, stddev));
  }
}

void fill_uniform(Tensor& t, common::Rng& rng, float bound) {
  for (float& v : t.data()) {
    v = static_cast<float>(rng.uniform(-bound, bound));
  }
}

float topk_abs_threshold(std::span<const float> x, std::size_t k) {
  common::check(k >= 1 && k <= x.size(), "topk_abs_threshold: bad k");
  std::vector<float> mags(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) mags[i] = std::fabs(x[i]);
  // k-th largest magnitude = element at index k-1 in descending order.
  std::nth_element(mags.begin(), mags.begin() + (k - 1), mags.end(),
                   std::greater<float>());
  return mags[k - 1];
}

std::string Tensor::shape_string() const {
  std::string out = "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(shape_[i]);
  }
  out += "]";
  return out;
}

}  // namespace dt::tensor
