#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
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

// Cache-blocking parameters shared by the packed kernels. The packed B
// panel is kKc x kNc floats = 128 KiB, sized for a typical L2; the 4-row
// register tile turns each packed row load into four FMAs, and the
// branch-free inner loops auto-vectorize at -O2 (the old `aval == 0.0f`
// skip both defeated vectorization and pessimized dense data).
constexpr std::int64_t kNc = 256;  // B-panel columns per block
constexpr std::int64_t kKc = 128;  // reduction depth per block
constexpr std::int64_t kMr = 4;    // C rows per register tile

// Per-host-thread packing buffer: GEMMs run concurrently on the runtime's
// compute pool, so this must not be shared across threads.
thread_local std::vector<float> g_pack;

// Packs `rows` rows of length `cols` from src (leading dimension ld,
// starting at column j0) into a contiguous rows x cols panel.
void pack_panel(const float* src, std::int64_t ld, std::int64_t j0,
                std::int64_t rows, std::int64_t cols, float* dst) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* s = src + r * ld + j0;
    std::copy(s, s + cols, dst + r * cols);
  }
}

void check_2d(const Tensor& t, const char* name) {
  if (t.rank() != 2) common::fail(std::string("matmul: ") + name + " not 2-D");
}

}  // namespace

// C[m x n] (+)= A[m x k] * B[k x n]. Per output element the reduction runs
// p = 0..k-1 in order (blocking only reorders independent elements), so the
// float accumulation order is fixed and host-independent.
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0f);
  for (std::int64_t j0 = 0; j0 < n; j0 += kNc) {
    const std::int64_t nc = std::min(kNc, n - j0);
    for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
      const std::int64_t kc = std::min(kKc, k - p0);
      g_pack.resize(static_cast<std::size_t>(kc * nc));
      float* pack = g_pack.data();
      pack_panel(b + p0 * n, n, j0, kc, nc, pack);

      std::int64_t i = 0;
      for (; i + kMr <= m; i += kMr) {
        const float* a0 = a + (i + 0) * k + p0;
        const float* a1 = a + (i + 1) * k + p0;
        const float* a2 = a + (i + 2) * k + p0;
        const float* a3 = a + (i + 3) * k + p0;
        float* c0 = c + (i + 0) * n + j0;
        float* c1 = c + (i + 1) * n + j0;
        float* c2 = c + (i + 2) * n + j0;
        float* c3 = c + (i + 3) * n + j0;
        for (std::int64_t p = 0; p < kc; ++p) {
          const float* bp = pack + p * nc;
          const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
          for (std::int64_t j = 0; j < nc; ++j) {
            c0[j] += v0 * bp[j];
            c1[j] += v1 * bp[j];
            c2[j] += v2 * bp[j];
            c3[j] += v3 * bp[j];
          }
        }
      }
      for (; i < m; ++i) {
        const float* ai = a + i * k + p0;
        float* ci = c + i * n + j0;
        for (std::int64_t p = 0; p < kc; ++p) {
          const float* bp = pack + p * nc;
          const float v = ai[p];
          for (std::int64_t j = 0; j < nc; ++j) ci[j] += v * bp[j];
        }
      }
    }
  }
}

// C[k x n] (+)= A[m x k]^T * B[m x n]: the reduction runs over A/B rows, so
// the register tile is over C rows (= A columns) and the packed panel is a
// block of B rows, reused across every C-row tile.
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  if (!accumulate) std::fill(c, c + k * n, 0.0f);
  for (std::int64_t j0 = 0; j0 < n; j0 += kNc) {
    const std::int64_t nc = std::min(kNc, n - j0);
    for (std::int64_t i0 = 0; i0 < m; i0 += kKc) {
      const std::int64_t ic = std::min(kKc, m - i0);
      g_pack.resize(static_cast<std::size_t>(ic * nc));
      float* pack = g_pack.data();
      pack_panel(b + i0 * n, n, j0, ic, nc, pack);

      std::int64_t p = 0;
      for (; p + kMr <= k; p += kMr) {
        float* c0 = c + (p + 0) * n + j0;
        float* c1 = c + (p + 1) * n + j0;
        float* c2 = c + (p + 2) * n + j0;
        float* c3 = c + (p + 3) * n + j0;
        for (std::int64_t i = 0; i < ic; ++i) {
          const float* ar = a + (i0 + i) * k + p;
          const float* bp = pack + i * nc;
          const float v0 = ar[0], v1 = ar[1], v2 = ar[2], v3 = ar[3];
          for (std::int64_t j = 0; j < nc; ++j) {
            c0[j] += v0 * bp[j];
            c1[j] += v1 * bp[j];
            c2[j] += v2 * bp[j];
            c3[j] += v3 * bp[j];
          }
        }
      }
      for (; p < k; ++p) {
        float* cp = c + p * n + j0;
        for (std::int64_t i = 0; i < ic; ++i) {
          const float* bp = pack + i * nc;
          const float v = a[(i0 + i) * k + p];
          for (std::int64_t j = 0; j < nc; ++j) cp[j] += v * bp[j];
        }
      }
    }
  }
}

namespace {

// 8-lane dot product: eight independent accumulation chains let the
// compiler keep a vector accumulator without -ffast-math (a single-chain
// float reduction cannot legally be vectorized). The lane-combine order is
// fixed, so results are deterministic.
float dot_lanes(const float* x, const float* y, std::int64_t n) {
  float lane[8] = {};
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    for (int l = 0; l < 8; ++l) lane[l] += x[j + l] * y[j + l];
  }
  for (; j < n; ++j) lane[j & 7] += x[j] * y[j];
  const float s01 = lane[0] + lane[1], s23 = lane[2] + lane[3];
  const float s45 = lane[4] + lane[5], s67 = lane[6] + lane[7];
  return (s01 + s23) + (s45 + s67);
}

}  // namespace

// C[m x k] (+)= A[m x n] * B[k x n]^T: rows of A against rows of B, i.e. a
// grid of dot products over contiguous data — no packing needed.
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* ar = a + i * n;
    float* cr = c + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float d = dot_lanes(ar, b + p * n, n);
      cr[p] = accumulate ? cr[p] + d : d;
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
