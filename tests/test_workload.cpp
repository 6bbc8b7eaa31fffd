// Tests for the Workload abstraction: slot structure, wire-size scaling,
// replica management, parameter-space operations, evaluation, and the
// functional/cost-only mode boundary.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/trainer.hpp"
#include "cost/profiles.hpp"
#include "nn/layers.hpp"

namespace dt::core {
namespace {

Workload small_workload(int workers, std::uint64_t seed = 21) {
  FunctionalWorkloadSpec spec;
  spec.train_samples = 512;
  spec.test_samples = 128;
  spec.input_dim = 8;
  spec.hidden_dim = 12;
  spec.num_classes = 4;
  spec.batch = 8;
  spec.num_workers = workers;
  spec.seed = seed;
  return make_functional_workload(spec);
}

TEST(Workload, FunctionalSlotStructure) {
  Workload wl = small_workload(2);
  EXPECT_TRUE(wl.functional());
  EXPECT_EQ(wl.num_workers(), 2);
  // 3 Dense layers -> 6 parameter slots (weight + bias each).
  EXPECT_EQ(wl.num_slots(), 6u);
  EXPECT_EQ(wl.slot_numel(0), 8 * 12);
  EXPECT_EQ(wl.slot_numel(1), 12);
}

TEST(Workload, WireBytesScaleToProfileTotal) {
  Workload wl = small_workload(2);
  const auto total = static_cast<double>(wl.total_wire_bytes());
  const auto profile_total =
      static_cast<double>(cost::resnet50_profile().total_bytes());
  EXPECT_NEAR(total / profile_total, 1.0, 0.01);
  // Per-slot wire size stays proportional to slot element count.
  const double per_elem0 = static_cast<double>(wl.slot_wire_bytes(0)) /
                           static_cast<double>(wl.slot_numel(0));
  const double per_elem2 = static_cast<double>(wl.slot_wire_bytes(2)) /
                           static_cast<double>(wl.slot_numel(2));
  EXPECT_NEAR(per_elem0 / per_elem2, 1.0, 0.01);
}

TEST(Workload, AllReplicasStartIdentical) {
  Workload wl = small_workload(3);
  const auto& init = wl.initial_params();
  for (int w = 0; w < 3; ++w) {
    const auto params = wl.params(w);
    ASSERT_EQ(params.size(), init.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
      for (std::int64_t j = 0; j < params[i].numel(); ++j) {
        EXPECT_EQ(params[i][static_cast<std::size_t>(j)],
                  init[i][static_cast<std::size_t>(j)]);
      }
    }
  }
}

TEST(Workload, ComputeGradientsProducesNonzeroGrads) {
  Workload wl = small_workload(1);
  const double loss = wl.compute_gradients(0);
  EXPECT_GT(loss, 0.0);
  double norm = 0.0;
  for (const auto& g : wl.gradients(0)) {
    for (float v : g.data()) norm += std::fabs(v);
  }
  EXPECT_GT(norm, 0.0);
}

TEST(Workload, WorkersDrawDifferentBatches) {
  Workload wl = small_workload(2);
  const double l0 = wl.compute_gradients(0);
  const double l1 = wl.compute_gradients(1);
  // Same initial parameters but disjoint shards: losses differ.
  EXPECT_NE(l0, l1);
}

TEST(Workload, SetParamsRoundTrip) {
  Workload wl = small_workload(2);
  auto p = wl.params(0);
  p[0].fill(0.5f);
  wl.set_params(1, p);
  EXPECT_EQ(wl.param_slot(1, 0)[0], 0.5f);
  // set_param_slot single-slot variant.
  tensor::Tensor t(p[1].shape());
  t.fill(-1.0f);
  wl.set_param_slot(1, 1, t);
  EXPECT_EQ(wl.param_slot(1, 1)[0], -1.0f);
}

TEST(Workload, BlendParamsIsConvexCombination) {
  Workload wl = small_workload(2);
  auto other = wl.params(1);
  for (auto& t : other) t.fill(1.0f);
  const float before = wl.param_slot(0, 0)[0];
  wl.blend_params(0, other, 0.25f);
  EXPECT_NEAR(wl.param_slot(0, 0)[0], 0.75f * before + 0.25f, 1e-6);
}

TEST(Workload, ElasticPullMovesTowardAnchor) {
  Workload wl = small_workload(1);
  auto anchor = wl.params(0);
  for (auto& t : anchor) t.fill(2.0f);
  const float before = wl.param_slot(0, 0)[0];
  wl.elastic_pull(0, anchor, 0.5f);
  EXPECT_NEAR(wl.param_slot(0, 0)[0], before + 0.5f * (2.0f - before), 1e-6);
}

// Parameters over several binades, so a fused multiply-add or a
// reordered sum shows in the last bits.
std::vector<tensor::Tensor> spread_params(const Workload& wl, int worker,
                                          std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<tensor::Tensor> params = wl.params(worker);
  for (tensor::Tensor& t : params) {
    for (float& v : t.data()) {
      v = static_cast<float>(std::ldexp(
          rng.normal(), static_cast<int>(rng.uniform_int(-6, 6))));
    }
  }
  return params;
}

// a * b rounded once to float: the double product of two floats is exact.
float rounded_product(float a, float b) {
  return static_cast<float>(static_cast<double>(a) * b);
}

bool same_bits(float x, float y) {
  return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
}

// blend_params and elastic_pull are vectorized, yet still multiply, multiply
// and add with one rounding each; the decentralized goldens depend on it.
TEST(Workload, BlendAndElasticPullMatchScalarExpressionsBitForBit) {
  Workload wl = small_workload(2);
  const std::vector<tensor::Tensor> mine = spread_params(wl, 0, 31);
  const std::vector<tensor::Tensor> other = spread_params(wl, 1, 32);
  constexpr float kWeight = 0.3f, kAlpha = 0.7f;

  wl.set_params(0, mine);
  wl.blend_params(0, other, kWeight);
  const float keep = 1.0f - kWeight;
  std::int64_t checked = 0, mismatched = 0;
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const auto p = mine[i].data(), o = other[i].data();
    const auto got = wl.param_slot(0, i).data();
    for (std::size_t j = 0; j < p.size(); ++j, ++checked) {
      const float want =
          rounded_product(keep, p[j]) + rounded_product(kWeight, o[j]);
      if (!same_bits(got[j], want)) ++mismatched;
    }
  }

  wl.set_params(0, mine);
  wl.elastic_pull(0, other, kAlpha);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    const auto p = mine[i].data(), a = other[i].data();
    const auto got = wl.param_slot(0, i).data();
    for (std::size_t j = 0; j < p.size(); ++j, ++checked) {
      const float want = p[j] + rounded_product(kAlpha, a[j] - p[j]);
      if (!same_bits(got[j], want)) ++mismatched;
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_EQ(mismatched, 0) << "of " << checked;
}

TEST(Workload, ApplyGradientsMovesAgainstGradient) {
  Workload wl = small_workload(1);
  wl.compute_gradients(0);
  const auto grads = wl.gradients(0);
  const auto before = wl.params(0);
  wl.apply_gradients(0, grads, 0.1f);
  // First step of momentum SGD: delta = -lr * (g + wd*w).
  const float g = grads[0][0];
  const float w = before[0][0];
  EXPECT_NEAR(wl.param_slot(0, 0)[0], w - 0.1f * (g + 1e-4f * w), 1e-5);
}

TEST(Workload, ApplySlotGradientMatchesWholeModelPath) {
  Workload a = small_workload(1, 5);
  Workload b = small_workload(1, 5);
  a.compute_gradients(0);
  b.compute_gradients(0);
  const auto grads = a.gradients(0);
  a.apply_gradients(0, grads, 0.05f);
  for (std::size_t slot = 0; slot < b.num_slots(); ++slot) {
    b.apply_slot_gradient(0, slot, grads[slot], 0.05f);
  }
  for (std::size_t slot = 0; slot < b.num_slots(); ++slot) {
    for (std::int64_t j = 0; j < grads[slot].numel(); ++j) {
      EXPECT_EQ(a.param_slot(0, slot)[static_cast<std::size_t>(j)],
                b.param_slot(0, slot)[static_cast<std::size_t>(j)]);
    }
  }
}

TEST(Workload, AverageWorkerParamsIsElementwiseMean) {
  Workload wl = small_workload(2);
  auto p0 = wl.params(0);
  auto p1 = wl.params(1);
  for (auto& t : p0) t.fill(1.0f);
  for (auto& t : p1) t.fill(3.0f);
  wl.set_params(0, p0);
  wl.set_params(1, p1);
  const auto avg = wl.average_worker_params();
  EXPECT_FLOAT_EQ(avg[0][0], 2.0f);
}

TEST(Workload, EvaluateParamsConsistentWithEvaluate) {
  Workload wl = small_workload(2);
  const double direct = wl.evaluate(0);
  const double via_params = wl.evaluate_params(wl.params(0));
  EXPECT_DOUBLE_EQ(direct, via_params);
}

TEST(Workload, TimingBatchScalesComputeTimeOnly) {
  Workload wl = small_workload(1);
  EXPECT_EQ(wl.timing_batch(), 128);  // spec default: the paper's batch
  common::Rng r1(1), r2(1);
  const double t128 = wl.forward_time(r1);
  wl.set_timing_batch(256);
  const double t256 = wl.forward_time(r2);  // same jitter draw
  EXPECT_NEAR(t256 / t128, 2.0, 1e-6);
  // Wire bytes unaffected by the timing batch.
  EXPECT_EQ(wl.slot_wire_bytes(0), small_workload(1).slot_wire_bytes(0));
}

TEST(Workload, BackwardSlotTimesSumToNominalBackward) {
  Workload wl = small_workload(1);
  cost::ComputeModel cm;  // default = what the workload uses
  double sum = 0.0;
  for (std::size_t i = 0; i < wl.num_slots(); ++i) {
    sum += wl.backward_slot_time(i);
  }
  const double nominal =
      cm.backward_ratio * cost::resnet50_profile().total_flops_fwd() *
      static_cast<double>(wl.timing_batch()) / cm.device.effective_flops();
  EXPECT_NEAR(sum, nominal, nominal * 1e-6);
}

TEST(Workload, CostOnlyModeGuardsFunctionalHooks) {
  Workload wl = make_cost_workload(cost::vgg16_profile(), 96);
  EXPECT_FALSE(wl.functional());
  EXPECT_EQ(wl.num_slots(), 16u);
  EXPECT_EQ(wl.total_wire_bytes(), cost::vgg16_profile().total_bytes());
  EXPECT_THROW((void)wl.compute_gradients(0), common::Error);
  EXPECT_THROW((void)wl.params(0), common::Error);
  EXPECT_THROW((void)wl.evaluate(0), common::Error);
  EXPECT_THROW((void)wl.iterations_per_epoch(), common::Error);
}

TEST(Workload, IterationsPerEpochSplitsDataAcrossWorkers) {
  Workload wl2 = small_workload(2);
  Workload wl4 = small_workload(4);
  // 512 samples, batch 8: 32 iterations split across workers.
  EXPECT_EQ(wl2.iterations_per_epoch(), 512 / (8 * 2));
  EXPECT_EQ(wl4.iterations_per_epoch(), 512 / (8 * 4));
}

TEST(Workload, RejectsUndersizedDataset) {
  FunctionalWorkloadSpec spec;
  spec.train_samples = 16;
  spec.test_samples = 8;
  spec.batch = 16;
  spec.num_workers = 4;  // needs 64 samples per global batch
  EXPECT_THROW(make_functional_workload(spec), common::Error);
}

}  // namespace
}  // namespace dt::core
