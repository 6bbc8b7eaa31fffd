#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/gemm_kernels.hpp"

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

}  // namespace

// The kernels run at the host's widest single-register width
// (kernels::HostVec); gemm_kernels.hpp has their tiling.
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  kernels::gemm_nn<kernels::HostVec>(a, b, c, m, k, n, accumulate);
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate) {
  kernels::gemm_tn<kernels::HostVec>(a, b, c, m, k, n, accumulate);
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate) {
  kernels::gemm_nt<kernels::HostVec>(a, b, c, m, n, k, accumulate);
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
