// Unit + property tests for the tensor substrate. GEMM variants are checked
// against a naive reference over randomized shapes (parameterized), and bit
// for bit against the explicit multiply-add loops of their contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace dt::tensor {
namespace {

TEST(Tensor, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, DataConstructorValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), common::Error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_EQ(t.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshape({4, 2}), common::Error);
}

TEST(Tensor, FillAndIndex) {
  Tensor t({4});
  t.fill(2.5f);
  EXPECT_EQ(t[3], 2.5f);
}

TEST(Tensor, ShapeString) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.shape_string(), "[2, 3, 4]");
}

TEST(Ops, AxpyScaleCopy) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {10, 20, 30};
  axpy(2.0f, x, y);
  EXPECT_EQ(y, (std::vector<float>{12, 24, 36}));
  scale(y, 0.5f);
  EXPECT_EQ(y, (std::vector<float>{6, 12, 18}));
  copy(x, y);
  EXPECT_EQ(y, x);
}

TEST(Ops, AddSub) {
  std::vector<float> a = {1, 2}, b = {3, 5}, d(2);
  add(a, b, d);
  EXPECT_EQ(d, (std::vector<float>{4, 7}));
  sub(b, a, d);
  EXPECT_EQ(d, (std::vector<float>{2, 3}));
}

TEST(Ops, SizeMismatchThrows) {
  std::vector<float> a = {1, 2}, b = {3};
  EXPECT_THROW(axpy(1.0f, a, b), common::Error);
  EXPECT_THROW((void)dot(a, b), common::Error);
}

TEST(Ops, ReluAndBackward) {
  std::vector<float> x = {-1, 0, 2};
  relu(x);
  EXPECT_EQ(x, (std::vector<float>{0, 0, 2}));
  std::vector<float> gout = {5, 5, 5}, gin(3);
  relu_backward(x, gout, gin);
  EXPECT_EQ(gin, (std::vector<float>{0, 0, 5}));
}

TEST(Ops, Reductions) {
  std::vector<float> x = {3, -4};
  EXPECT_FLOAT_EQ(sum(x), -1.0f);
  EXPECT_FLOAT_EQ(l2_norm(x), 5.0f);
  EXPECT_FLOAT_EQ(max_abs(x), 4.0f);
  EXPECT_FLOAT_EQ(dot(x, x), 25.0f);
}

TEST(Ops, MatmulKnownValues) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c({2, 2});
  matmul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50);
  // accumulate adds on top
  matmul(a, b, c, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c.at(1, 1), 100);
}

TEST(Ops, MatmulShapeChecks) {
  Tensor a({2, 3}), b({2, 2}), c({2, 2});
  EXPECT_THROW(matmul(a, b, c), common::Error);
}

// Reference GEMM for the property tests.
void ref_matmul(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
      c.at(i, j) = static_cast<float>(acc);
    }
  }
}

class GemmProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmProperty, MatchesReferenceAllVariants) {
  const auto [m, k, n] = GetParam();
  common::Rng rng(m * 10007 + k * 101 + n);
  Tensor a({m, k}), b({k, n});
  fill_normal(a, rng, 1.0f);
  fill_normal(b, rng, 1.0f);

  Tensor c({m, n}), ref({m, n});
  matmul(a, b, c);
  ref_matmul(a, b, ref);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3f * (std::fabs(ref[i]) + 1.0f));
  }

  // matmul_tn: C(k x n) = A2(m x k)^T * B(m x n)
  Tensor a2({m, k}), b2({m, n});
  fill_normal(a2, rng, 1.0f);
  fill_normal(b2, rng, 1.0f);
  Tensor ctn({k, n});
  matmul_tn(a2, b2, ctn);
  Tensor a2t({k, m});
  for (int i = 0; i < m; ++i)
    for (int p = 0; p < k; ++p) a2t.at(p, i) = a2.at(i, p);
  Tensor reftn({k, n});
  ref_matmul(a2t, b2, reftn);
  for (std::int64_t i = 0; i < ctn.numel(); ++i) {
    EXPECT_NEAR(ctn[i], reftn[i], 1e-3f * (std::fabs(reftn[i]) + 1.0f));
  }

  // matmul_nt: C(m x k) = A3(m x n) * B3(k x n)^T
  Tensor a3({m, n}), b3({k, n});
  fill_normal(a3, rng, 1.0f);
  fill_normal(b3, rng, 1.0f);
  Tensor cnt({m, k});
  matmul_nt(a3, b3, cnt);
  Tensor b3t({n, k});
  for (int i = 0; i < k; ++i)
    for (int j = 0; j < n; ++j) b3t.at(j, i) = b3.at(i, j);
  Tensor refnt({m, k});
  ref_matmul(a3, b3t, refnt);
  for (std::int64_t i = 0; i < cnt.numel(); ++i) {
    EXPECT_NEAR(cnt[i], refnt[i], 1e-3f * (std::fabs(refnt[i]) + 1.0f));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmProperty,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 64, 1), std::make_tuple(33, 17, 9),
                      std::make_tuple(64, 72, 65),
                      // Crosses the kernels' cache-block boundaries
                      // (kKc = 128 reduction depth, kNc = 256 columns).
                      std::make_tuple(9, 131, 260),
                      std::make_tuple(130, 300, 270)));

TEST(Ops, GemmAccumulationPolicyFloat32AllVariants) {
  // Policy (ops.hpp): every GEMM variant accumulates in float32. The same
  // product computed through all three transposition cases must therefore
  // agree to float rounding — no variant secretly carries double precision.
  const std::int64_t m = 37, k = 150, n = 61;
  common::Rng rng(99);
  Tensor a({m, k}), b({k, n});
  fill_normal(a, rng, 1.0f);
  fill_normal(b, rng, 1.0f);

  Tensor c_nn({m, n});
  matmul(a, b, c_nn);

  Tensor at({k, m});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t p = 0; p < k; ++p) at.at(p, i) = a.at(i, p);
  Tensor c_tn({m, n});
  matmul_tn(at, b, c_tn);  // (A^T)^T * B = A * B

  Tensor bt({n, k});
  for (std::int64_t p = 0; p < k; ++p)
    for (std::int64_t j = 0; j < n; ++j) bt.at(j, p) = b.at(p, j);
  Tensor c_nt({m, n});
  matmul_nt(a, bt, c_nt);  // A * (B^T)^T = A * B

  Tensor ref({m, n});
  ref_matmul(a, b, ref);
  for (std::int64_t i = 0; i < c_nn.numel(); ++i) {
    const float tol = 1e-3f * (std::fabs(ref[i]) + 1.0f);
    EXPECT_NEAR(c_nn[i], ref[i], tol);
    EXPECT_NEAR(c_tn[i], ref[i], tol);
    EXPECT_NEAR(c_nt[i], ref[i], tol);
    // Variants differ only by float summation order, never by a precision
    // class: their spread must be far below the double-reference tolerance.
    EXPECT_NEAR(c_tn[i], c_nn[i], tol * 0.5f);
    EXPECT_NEAR(c_nt[i], c_nn[i], tol * 0.5f);
  }
}

TEST(Ops, GemmAccumulateAddsOntoExistingOutput) {
  const std::int64_t m = 5, k = 140, n = 259;
  common::Rng rng(7);
  Tensor a({m, k}), b({k, n}), bias({m, n});
  fill_normal(a, rng, 1.0f);
  fill_normal(b, rng, 1.0f);
  fill_normal(bias, rng, 1.0f);

  Tensor once({m, n});
  matmul(a, b, once);
  Tensor acc = bias;
  matmul(a, b, acc, /*accumulate=*/true);
  for (std::int64_t i = 0; i < acc.numel(); ++i) {
    // Not bit-equal: with accumulate the prior value heads the summation
    // chain instead of being added last, so rounding differs slightly.
    EXPECT_NEAR(acc[i], bias[i] + once[i],
                1e-4f * (std::fabs(acc[i]) + 1.0f));
  }
}

TEST(Ops, GemmBitwiseDeterministicAcrossCalls) {
  // Fixed summation order: repeated evaluation is bit-identical (the
  // property the runtime's parallel compute offload relies on).
  const std::int64_t m = 33, k = 200, n = 300;
  common::Rng rng(3);
  Tensor a({m, k}), b({k, n});
  fill_normal(a, rng, 1.0f);
  fill_normal(b, rng, 1.0f);
  Tensor c1({m, n}), c2({m, n});
  matmul(a, b, c1);
  matmul(a, b, c2);
  for (std::int64_t i = 0; i < c1.numel(); ++i) EXPECT_EQ(c1[i], c2[i]);
}

TEST(Tensor, EnsureShapeReusesStorage) {
  Tensor t({4, 8});
  const float* before = t.data().data();
  t.ensure_shape({2, 8});  // shrink: same allocation
  EXPECT_EQ(t.data().data(), before);
  EXPECT_EQ(t.numel(), 16);
  t.ensure_shape({4, 8});  // regrow within capacity: same allocation
  EXPECT_EQ(t.data().data(), before);
  EXPECT_EQ(t.shape(), (Shape{4, 8}));
}

TEST(Ops, AddRowBiasAndSumRows) {
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  std::vector<float> bias = {10, 20, 30};
  add_row_bias(x, bias);
  EXPECT_FLOAT_EQ(x.at(1, 2), 36);
  std::vector<float> sums(3, 0.0f);
  sum_rows(x, sums);
  EXPECT_FLOAT_EQ(sums[0], 11 + 14);
  EXPECT_FLOAT_EQ(sums[2], 33 + 36);
}

TEST(Ops, SoftmaxRowsSumToOneAndOrderPreserved) {
  common::Rng rng(99);
  Tensor logits({5, 8});
  fill_normal(logits, rng, 3.0f);
  Tensor raw = logits;
  softmax_rows(logits);
  for (int r = 0; r < 5; ++r) {
    double s = 0;
    for (int c = 0; c < 8; ++c) {
      EXPECT_GT(logits.at(r, c), 0.0f);
      s += logits.at(r, c);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
    EXPECT_EQ(argmax_row(logits, r), argmax_row(raw, r));
  }
}

TEST(Ops, SoftmaxNumericallyStableForLargeLogits) {
  Tensor logits({1, 3}, {1000.0f, 1001.0f, 999.0f});
  softmax_rows(logits);
  for (int c = 0; c < 3; ++c) {
    EXPECT_TRUE(std::isfinite(logits.at(0, c)));
  }
  EXPECT_EQ(argmax_row(logits, 0), 1);
}

TEST(Ops, FillUniformBounds) {
  common::Rng rng(5);
  Tensor t({1000});
  fill_uniform(t, rng, 0.25f);
  for (float v : t.data()) {
    EXPECT_GE(v, -0.25f);
    EXPECT_LE(v, 0.25f);
  }
}

class TopKProperty : public ::testing::TestWithParam<int> {};

TEST_P(TopKProperty, ThresholdSelectsAtLeastKAndTopK) {
  const int k = GetParam();
  common::Rng rng(k * 7 + 1);
  Tensor t({257});
  fill_normal(t, rng, 1.0f);
  const float thr = topk_abs_threshold(t.data(), static_cast<std::size_t>(k));
  int selected = 0;
  float min_selected = 1e30f, max_rejected = 0.0f;
  for (float v : t.data()) {
    if (std::fabs(v) >= thr) {
      ++selected;
      min_selected = std::min(min_selected, std::fabs(v));
    } else {
      max_rejected = std::max(max_rejected, std::fabs(v));
    }
  }
  EXPECT_GE(selected, k);           // ties can only add
  EXPECT_GE(min_selected, max_rejected);  // selection is magnitude-downward-closed
  // With continuous random data, ties are measure-zero: exactly k.
  EXPECT_EQ(selected, k);
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKProperty,
                         ::testing::Values(1, 2, 16, 128, 256, 257));

TEST(Ops, TopKBadKThrows) {
  std::vector<float> x = {1, 2, 3};
  EXPECT_THROW((void)topk_abs_threshold(x, 0), common::Error);
  EXPECT_THROW((void)topk_abs_threshold(x, 4), common::Error);
}

// ---- the GEMM kernels' arithmetic, bit for bit ------------------------------
//
// ops.hpp fixes how every GEMM output element is computed, not only how close
// it lands: the loops below spell that contract out one element at a time,
// and every kernel must reproduce them exactly. This file is compiled with
// the kernel translation unit's flags (tests/CMakeLists.txt), so the kernels
// it instantiates are built as ops.cpp's are.

float fmadd(float a, float b, float c) { return std::fma(a, b, c); }

// C(m x n) (+)= A(m x k) * B(k x n): one in-order chain over p per element.
void fma_ref_nn(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float s = accumulate ? c[i * n + j] : 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        s = fmadd(a[i * k + p], b[p * n + j], s);
      }
      c[i * n + j] = s;
    }
  }
}

// C(k x n) (+)= A(m x k)^T * B(m x n): one in-order chain over i per element.
void fma_ref_tn(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n, bool accumulate) {
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t j = 0; j < n; ++j) {
      float s = accumulate ? c[p * n + j] : 0.0f;
      for (std::int64_t i = 0; i < m; ++i) {
        s = fmadd(a[i * k + p], b[i * n + j], s);
      }
      c[p * n + j] = s;
    }
  }
}

// C(m x k) (+)= A(m x n) * B(k x n)^T: eight chains per element, lane j % 8
// taking every eighth product in order, then a fixed pairwise combine; the
// prior C value is added to the finished dot.
void fma_ref_nt(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t n, std::int64_t k, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      float lane[8] = {};
      for (std::int64_t j = 0; j < n; ++j) {
        lane[j % 8] = fmadd(a[i * n + j], b[p * n + j], lane[j % 8]);
      }
      const float d = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                      ((lane[4] + lane[5]) + (lane[6] + lane[7]));
      c[i * k + p] = accumulate ? c[i * k + p] + d : d;
    }
  }
}

using GemmFn = void (*)(const float*, const float*, float*, std::int64_t,
                        std::int64_t, std::int64_t, bool);

// A GEMM entry point checked against the contract. Both tile widths of
// gemm_kernels.hpp are instantiated whatever the build's target: a width
// the target has no single register for runs on narrower ones, with the
// same arithmetic.
struct NamedKernel {
  const char* name;
  GemmFn fn;
};

const std::vector<NamedKernel> kNnKernels = {
    {"gemm_nn", gemm_nn},
    {"8-float gemm_nn", kernels::gemm_nn<kernels::v8f>},
    {"16-float gemm_nn", kernels::gemm_nn<kernels::v16f>}};
const std::vector<NamedKernel> kTnKernels = {
    {"gemm_tn", gemm_tn},
    {"8-float gemm_tn", kernels::gemm_tn<kernels::v8f>},
    {"16-float gemm_tn", kernels::gemm_tn<kernels::v16f>}};
const std::vector<NamedKernel> kNtKernels = {
    {"gemm_nt", gemm_nt},
    {"8-float gemm_nt", kernels::gemm_nt<kernels::v8f>},
    {"16-float gemm_nt", kernels::gemm_nt<kernels::v16f>}};

// (d0, d1, d2) are a kernel's three dimension arguments in order; a layout
// picks each operand's extent from them.
struct GemmLayout {
  int a_rows, a_cols, b_rows, b_cols, c_rows, c_cols;
};
// gemm_nn(a, b, c, m, k, n): A m x k, B k x n, C m x n.
constexpr GemmLayout kNnLayout = {0, 1, 1, 2, 0, 2};
// gemm_tn(a, b, c, m, k, n): A m x k, B m x n, C k x n.
constexpr GemmLayout kTnLayout = {0, 1, 0, 2, 1, 2};
// gemm_nt(a, b, c, m, n, k): A m x n, B k x n, C m x k.
constexpr GemmLayout kNtLayout = {0, 1, 2, 1, 0, 2};

// Values spread over nine binades with signed zeros mixed in, so a kernel
// that reorders, splits or un-fuses any chain shows up in the last bits.
std::vector<float> contract_values(common::Rng& rng, std::int64_t count) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v) {
    if (rng.bernoulli(0.05)) {
      x = rng.bernoulli(0.5) ? 0.0f : -0.0f;
    } else {
      x = static_cast<float>(
          std::ldexp(rng.normal(), static_cast<int>(rng.uniform_int(-4, 4))));
    }
  }
  return v;
}

// Log-uniform in [1, hi]: most shapes stay small, a few reach hi.
std::int64_t log_uniform_dim(common::Rng& rng, std::int64_t hi) {
  const double x = std::exp(rng.uniform(0.0, std::log(hi + 1.0)));
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(x), 1, hi);
}

// Output elements compared with the reference (once per shape and
// accumulate setting), and those whose bits differ in any kernel.
struct ContractTally {
  std::int64_t checked = 0, mismatched = 0;
  std::string first_failure;
};

// Runs `ref` and every kernel on one shape with seeded operands, with
// accumulate off and on.
void check_shape(const std::vector<NamedKernel>& kernels, GemmFn ref,
                 const GemmLayout& l, const std::int64_t (&d)[3],
                 common::Rng& rng, ContractTally& tally) {
  const std::vector<float> a = contract_values(rng, d[l.a_rows] * d[l.a_cols]);
  const std::vector<float> b = contract_values(rng, d[l.b_rows] * d[l.b_cols]);
  const std::vector<float> c0 =
      contract_values(rng, d[l.c_rows] * d[l.c_cols]);
  for (bool accumulate : {false, true}) {
    std::vector<float> want = c0;
    ref(a.data(), b.data(), want.data(), d[0], d[1], d[2], accumulate);
    tally.checked += static_cast<std::int64_t>(want.size());
    for (const NamedKernel& kernel : kernels) {
      std::vector<float> got = c0;
      kernel.fn(a.data(), b.data(), got.data(), d[0], d[1], d[2], accumulate);
      for (std::size_t e = 0; e < got.size(); ++e) {
        if (std::bit_cast<std::uint32_t>(got[e]) ==
            std::bit_cast<std::uint32_t>(want[e])) {
          continue;
        }
        if (tally.mismatched++ == 0) {
          tally.first_failure =
              std::string(kernel.name) + " shape (" + std::to_string(d[0]) +
              ", " + std::to_string(d[1]) + ", " + std::to_string(d[2]) +
              ") accumulate=" + std::to_string(accumulate) + " element " +
              std::to_string(e);
        }
      }
    }
  }
}

// Runs the kernels and `ref` on kShapes seeded shapes and counts output
// elements whose bits differ.
void expect_matches_fma_reference(const std::vector<NamedKernel>& kernels,
                                  GemmFn ref, const GemmLayout& layout,
                                  std::uint64_t seed) {
  constexpr int kShapes = 1000;
  common::Rng rng(seed);
  ContractTally tally;
  for (int s = 0; s < kShapes; ++s) {
    std::int64_t d[3] = {log_uniform_dim(rng, 300), log_uniform_dim(rng, 300),
                         log_uniform_dim(rng, 300)};
    switch (s % 5) {
      case 1:  // narrow last dimension: below one vector
        d[2] = rng.uniform_int(1, 15);
        break;
      case 4:  // narrow middle dimension (gemm_nt's dot length)
        d[1] = rng.uniform_int(1, 15);
        break;
      case 2:  // deep reductions
        d[1] = rng.uniform_int(129, 300);
        break;
      case 3:  // row counts that no register tile divides
        d[0] = 8 * rng.uniform_int(0, 20) + rng.uniform_int(1, 7);
        break;
      default:
        break;
    }
    check_shape(kernels, ref, layout, d, rng, tally);
  }
  EXPECT_GT(tally.checked, 1'000'000);
  EXPECT_EQ(tally.mismatched, 0)
      << "first differing output: " << tally.first_failure;
}

TEST(GemmContract, NnMatchesExplicitFmaReference) {
  expect_matches_fma_reference(kNnKernels, fma_ref_nn, kNnLayout, 101);
}

TEST(GemmContract, TnMatchesExplicitFmaReference) {
  expect_matches_fma_reference(kTnKernels, fma_ref_tn, kTnLayout, 202);
}

TEST(GemmContract, NtMatchesExplicitFmaReference) {
  expect_matches_fma_reference(kNtKernels, fma_ref_nt, kNtLayout, 303);
}

// The functional MLP's layers (32 -> 64 -> 64 -> 10, batch 16), each as
// forward (gemm_nn), weight gradient (gemm_tn) and input gradient (gemm_nt).
TEST(GemmContract, MlpShapesMatchExplicitFmaReference) {
  common::Rng rng(404);
  ContractTally tally;
  constexpr std::int64_t kBatch = 16;
  for (const auto& [in, out] :
       {std::pair<std::int64_t, std::int64_t>{32, 64}, {64, 64}, {64, 10}}) {
    check_shape(kNnKernels, fma_ref_nn, kNnLayout, {kBatch, in, out}, rng,
                tally);
    check_shape(kTnKernels, fma_ref_tn, kTnLayout, {kBatch, in, out}, rng,
                tally);
    check_shape(kNtKernels, fma_ref_nt, kNtLayout, {kBatch, out, in}, rng,
                tally);
  }
  EXPECT_EQ(tally.mismatched, 0)
      << "first differing output: " << tally.first_failure;
}

// Widths on either side of the 32-column tile (two 16-float vectors, or
// two 16-column tiles of 8-float ones): one partial vector or two, after
// no whole tile or one. gemm_nt takes the same widths as its dot length
// and B row count, so every tail length meets both dot tile heights.
TEST(GemmContract, WidthsAroundTheTileMatchExplicitFmaReference) {
  common::Rng rng(505);
  ContractTally tally;
  for (std::int64_t lo : {17, 33}) {
    for (std::int64_t w = lo; w < lo + 15; ++w) {
      check_shape(kNnKernels, fma_ref_nn, kNnLayout, {13, 19, w}, rng, tally);
      check_shape(kTnKernels, fma_ref_tn, kTnLayout, {19, 13, w}, rng, tally);
      check_shape(kNtKernels, fma_ref_nt, kNtLayout, {13, w, w}, rng, tally);
    }
  }
  EXPECT_EQ(tally.mismatched, 0)
      << "first differing output: " << tally.first_failure;
}

}  // namespace
}  // namespace dt::tensor
