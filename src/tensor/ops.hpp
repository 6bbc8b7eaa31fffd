// Math kernels over Tensor / float spans.
//
// These are the only numerical primitives the NN and compression substrates
// use. They are single-threaded by design: inter-worker parallelism comes
// from the runtime's compute offload (Process::advance_compute), which runs
// many single-threaded kernels concurrently.
//
// Accumulation policy: every GEMM kernel (matmul / matmul_tn / matmul_nt
// and the raw gemm_* entry points) accumulates in float32, matching the
// fp32 training arithmetic of the frameworks the paper studies. BLAS-1
// reductions over whole tensors (dot, sum, l2_norm) keep double
// accumulators: they feed convergence statistics where magnitude spread is
// large.
//
// GEMM arithmetic contract. Each output element is one fixed sequence of
// multiply-adds, fmadd(a, b, c) = std::fma(a, b, c), correctly rounded on
// every build (one instruction where the kernel unit is built with FMA,
// __FMA__; the default native build on x86-64):
//   gemm_nn  C[i][j] = chain over p = 0..k-1 of fmadd(A[i][p], B[p][j], .)
//   gemm_tn  C[p][j] = chain over i = 0..m-1 of fmadd(A[i][p], B[i][j], .)
// each chain starting from C (accumulate) or from +0. gemm_nt computes
// each dot product in eight lanes, lane l chaining the products of
// j = l, l+8, l+16, ... in order from +0, combines them as
// ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)), then stores d or
// C + d. The register-tiled kernels (gemm_kernels.hpp) reproduce these
// sequences bit for bit, so results do not depend on tile shapes, vector
// width, build flags, host core count or the runtime's compute_threads;
// tests/test_tensor.cpp (GemmContract) checks them against the plain loops
// at both tile widths.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace dt::common {
class Rng;
}

namespace dt::tensor {

// ---- element-wise / BLAS-1 -------------------------------------------------

/// y += alpha * x (sizes must match).
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// x *= alpha.
void scale(std::span<float> x, float alpha) noexcept;

/// dst = src (sizes must match).
void copy(std::span<const float> src, std::span<float> dst);

/// Element-wise: dst = a + b.
void add(std::span<const float> a, std::span<const float> b,
         std::span<float> dst);

/// Element-wise: dst = a - b.
void sub(std::span<const float> a, std::span<const float> b,
         std::span<float> dst);

/// Element-wise in place: x = max(x, 0).
void relu(std::span<float> x) noexcept;

/// Backward of ReLU: grad_in = grad_out where activation > 0, else 0.
void relu_backward(std::span<const float> activation,
                   std::span<const float> grad_out, std::span<float> grad_in);

[[nodiscard]] float dot(std::span<const float> a, std::span<const float> b);
[[nodiscard]] float sum(std::span<const float> x) noexcept;
[[nodiscard]] float l2_norm(std::span<const float> x) noexcept;
[[nodiscard]] float max_abs(std::span<const float> x) noexcept;

// ---- GEMM family (row-major) ----------------------------------------------
//
// Raw-pointer kernels: no shape checks, caller guarantees the dimensions.
// The hot layers (Conv2d's im2col path) call these directly on sub-buffers
// to avoid materializing Tensor views.

/// C(m x n) (+)= A(m x k) * B(k x n).
void gemm_nn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate);

/// C(k x n) (+)= A(m x k)^T * B(m x n).
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate);

/// C(m x k) (+)= A(m x n) * B(k x n)^T.
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t n, std::int64_t k, bool accumulate);

/// C = A(mxk) * B(kxn). `accumulate` keeps existing C, otherwise C is
/// overwritten.
void matmul(const Tensor& a, const Tensor& b, Tensor& c,
            bool accumulate = false);

/// C(k x n) = A(m x k)^T * B(m x n).
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c,
               bool accumulate = false);

/// C(m x k) = A(m x n) * B(k x n)^T.
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c,
               bool accumulate = false);

/// Adds row vector `bias` (size n) to every row of `x` (m x n).
void add_row_bias(Tensor& x, std::span<const float> bias);

/// Accumulates column sums of `x` (m x n) into `dst` (size n).
void sum_rows(const Tensor& x, std::span<float> dst);

// ---- softmax / classification ----------------------------------------------

/// Row-wise in-place softmax on logits (m x n), numerically stabilized.
void softmax_rows(Tensor& logits);

/// Index of the maximum entry of row `r`.
[[nodiscard]] std::int64_t argmax_row(const Tensor& x, std::int64_t r);

// ---- random fills -----------------------------------------------------------

/// Fills with N(0, stddev^2).
void fill_normal(Tensor& t, common::Rng& rng, float stddev);

/// Fills with U(-bound, bound).
void fill_uniform(Tensor& t, common::Rng& rng, float bound);

// ---- selection (used by DGC sparsification) ---------------------------------

/// Magnitude threshold such that exactly `k` elements of `x` satisfy
/// |x[i]| >= threshold (ties broken arbitrarily but consistently).
/// Requires 1 <= k <= x.size().
[[nodiscard]] float topk_abs_threshold(std::span<const float> x,
                                       std::size_t k);

}  // namespace dt::tensor
