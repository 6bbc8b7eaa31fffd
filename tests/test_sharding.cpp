// Tests for the PS framework: layer-wise sharding plans (bijection,
// balancing, the VGG-16 skew) and shard-side state operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "core/workload.hpp"
#include "cost/profiles.hpp"
#include "nn/optimizer.hpp"
#include "ps/shard_state.hpp"
#include "ps/sharding.hpp"

namespace dt::ps {
namespace {

std::vector<std::uint64_t> bytes_of(const cost::ModelProfile& m) {
  std::vector<std::uint64_t> out;
  for (const auto& l : m.layers) out.push_back(l.bytes());
  return out;
}

class ShardingBijection : public ::testing::TestWithParam<int> {};

TEST_P(ShardingBijection, EverySlotOnExactlyOneShard) {
  const int shards = GetParam();
  const auto bytes = bytes_of(cost::resnet50_profile());
  for (ShardPolicy policy :
       {ShardPolicy::round_robin, ShardPolicy::greedy_balance}) {
    ShardingPlan plan = ShardingPlan::build(bytes, shards, policy);
    EXPECT_LE(plan.num_shards, shards);
    // slot -> shard consistent with shard -> slots.
    std::set<std::size_t> covered;
    for (int sh = 0; sh < plan.num_shards; ++sh) {
      for (std::size_t slot : plan.shard_slots[static_cast<std::size_t>(sh)]) {
        EXPECT_EQ(plan.slot_to_shard[slot], sh);
        EXPECT_TRUE(covered.insert(slot).second) << "slot duplicated";
      }
    }
    EXPECT_EQ(covered.size(), bytes.size());
    // shard_bytes consistent.
    const std::uint64_t total =
        std::accumulate(bytes.begin(), bytes.end(), std::uint64_t{0});
    const std::uint64_t sharded = std::accumulate(
        plan.shard_bytes.begin(), plan.shard_bytes.end(), std::uint64_t{0});
    EXPECT_EQ(total, sharded);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardingBijection,
                         ::testing::Values(1, 2, 3, 6, 12, 54, 100));

TEST(Sharding, MoreShardsThanSlotsClamps) {
  std::vector<std::uint64_t> bytes = {10, 20, 30};
  ShardingPlan plan = ShardingPlan::build(bytes, 8);
  EXPECT_EQ(plan.num_shards, 3);
}

TEST(Sharding, Vgg16LayerwiseIsSkewedGreedyIsNot) {
  const auto bytes = bytes_of(cost::vgg16_profile());
  ShardingPlan rr = ShardingPlan::build(bytes, 6, ShardPolicy::round_robin);
  ShardingPlan greedy =
      ShardingPlan::build(bytes, 6, ShardPolicy::greedy_balance);
  // Layer-wise: fc1 (~74% of bytes) pins one shard -> imbalance ~0.74.
  EXPECT_GT(rr.imbalance(), 0.6);
  // Greedy can't split fc1 either (layer granularity), so it is still
  // dominated by fc1 — but must never be worse than round-robin.
  EXPECT_LE(greedy.imbalance(), rr.imbalance() + 1e-12);

  // ResNet-50 round-robin is reasonably even.
  ShardingPlan rr_resnet =
      ShardingPlan::build(bytes_of(cost::resnet50_profile()), 6);
  EXPECT_LT(rr_resnet.imbalance(), 0.4);
}

TEST(Sharding, EmptyOrInvalidInputsThrow) {
  std::vector<std::uint64_t> empty;
  EXPECT_THROW(ShardingPlan::build(empty, 2), common::Error);
  std::vector<std::uint64_t> one = {5};
  EXPECT_THROW(ShardingPlan::build(one, 0), common::Error);
}

// ---- ShardState over a functional workload ---------------------------------

core::Workload tiny_workload(int workers) {
  core::FunctionalWorkloadSpec spec;
  spec.train_samples = 256;
  spec.test_samples = 64;
  spec.input_dim = 8;
  spec.hidden_dim = 8;
  spec.num_classes = 4;
  spec.batch = 8;
  spec.num_workers = workers;
  spec.seed = 11;
  return core::make_functional_workload(spec);
}

TEST(ShardState, InitializesFromWorkloadParams) {
  core::Workload wl = tiny_workload(2);
  std::vector<std::uint64_t> bytes;
  for (std::size_t i = 0; i < wl.num_slots(); ++i) {
    bytes.push_back(wl.slot_wire_bytes(i));
  }
  ShardingPlan plan = ShardingPlan::build(bytes, 2);
  ShardState st(plan, 0, wl, nn::SgdConfig{});
  EXPECT_TRUE(st.functional());
  EXPECT_EQ(st.num_local(), plan.shard_slots[0].size());
  // Parameters equal the initial replica parameters.
  const std::size_t slot0 = st.slots()[0];
  const auto& expected = wl.initial_params()[slot0];
  const auto& actual = st.param(0);
  for (std::int64_t i = 0; i < expected.numel(); ++i) {
    EXPECT_EQ(actual[static_cast<std::size_t>(i)],
              expected[static_cast<std::size_t>(i)]);
  }
}

TEST(ShardState, LocalIndexRejectsForeignSlot) {
  core::Workload wl = tiny_workload(1);
  std::vector<std::uint64_t> bytes;
  for (std::size_t i = 0; i < wl.num_slots(); ++i) {
    bytes.push_back(wl.slot_wire_bytes(i));
  }
  ShardingPlan plan = ShardingPlan::build(bytes, 2);
  ShardState st(plan, 0, wl, nn::SgdConfig{});
  // Slot 1 belongs to shard 1 under round-robin.
  EXPECT_EQ(plan.shard_of(0), 0);
  EXPECT_EQ(plan.shard_of(1), 1);
  EXPECT_NO_THROW((void)st.local_index(0));
  EXPECT_THROW((void)st.local_index(1), common::Error);
}

TEST(ShardState, ApplyDenseMatchesReferenceOptimizer) {
  core::Workload wl = tiny_workload(1);
  std::vector<std::uint64_t> bytes;
  for (std::size_t i = 0; i < wl.num_slots(); ++i) {
    bytes.push_back(wl.slot_wire_bytes(i));
  }
  ShardingPlan plan = ShardingPlan::build(bytes, 1);
  nn::SgdConfig sgd{.momentum = 0.9f, .weight_decay = 1e-4f};
  ShardState st(plan, 0, wl, sgd);

  // Reference: a separate optimizer on a copy of slot 0.
  tensor::Tensor ref = wl.initial_params()[0];
  nn::MomentumSgd ref_opt(sgd);
  tensor::Tensor grad(ref.shape());
  for (std::int64_t i = 0; i < grad.numel(); ++i) {
    grad[static_cast<std::size_t>(i)] = 0.01f * static_cast<float>(i % 7);
  }
  for (int step = 0; step < 3; ++step) {
    st.apply_dense(0, grad.data(), 0.1f, 1.0f);
    ref_opt.step_slot(0, ref.data(), grad.data(), 0.1f);
  }
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    EXPECT_FLOAT_EQ(st.param(0)[static_cast<std::size_t>(i)],
                    ref[static_cast<std::size_t>(i)]);
  }
}

TEST(ShardState, ApplyDenseScaleHalvesStep) {
  core::Workload wl = tiny_workload(1);
  std::vector<std::uint64_t> bytes;
  for (std::size_t i = 0; i < wl.num_slots(); ++i) {
    bytes.push_back(wl.slot_wire_bytes(i));
  }
  ShardingPlan plan = ShardingPlan::build(bytes, 1);
  nn::SgdConfig plain{.momentum = 0.0f, .weight_decay = 0.0f};
  ShardState a(plan, 0, wl, plain);
  ShardState b(plan, 0, wl, plain);
  tensor::Tensor grad(a.param(0).shape());
  grad.fill(1.0f);
  a.apply_dense(0, grad.data(), 0.1f, 1.0f);
  b.apply_dense(0, grad.data(), 0.1f, 0.5f);
  const float da = wl.initial_params()[0][0] - a.param(0)[0];
  const float db = wl.initial_params()[0][0] - b.param(0)[0];
  EXPECT_NEAR(db, da / 2.0f, 1e-7);
}

TEST(ShardState, SparseApplyEqualsDenseWithScatteredGrad) {
  core::Workload wl = tiny_workload(1);
  std::vector<std::uint64_t> bytes;
  for (std::size_t i = 0; i < wl.num_slots(); ++i) {
    bytes.push_back(wl.slot_wire_bytes(i));
  }
  ShardingPlan plan = ShardingPlan::build(bytes, 1);
  nn::SgdConfig plain{.momentum = 0.0f, .weight_decay = 0.0f};
  ShardState a(plan, 0, wl, plain);
  ShardState b(plan, 0, wl, plain);

  std::vector<std::uint32_t> idx = {0, 3, 5};
  std::vector<float> val = {0.5f, -0.25f, 1.0f};
  tensor::Tensor dense(a.param(0).shape());
  for (std::size_t j = 0; j < idx.size(); ++j) dense[idx[j]] = val[j];

  a.apply_sparse(0, idx, val, 0.2f, 1.0f);
  b.apply_dense(0, dense.data(), 0.2f, 1.0f);
  for (std::int64_t i = 0; i < dense.numel(); ++i) {
    EXPECT_FLOAT_EQ(a.param(0)[static_cast<std::size_t>(i)],
                    b.param(0)[static_cast<std::size_t>(i)]);
  }
}

TEST(ShardState, AccumulateTakeClears) {
  core::Workload wl = tiny_workload(1);
  std::vector<std::uint64_t> bytes;
  for (std::size_t i = 0; i < wl.num_slots(); ++i) {
    bytes.push_back(wl.slot_wire_bytes(i));
  }
  ShardingPlan plan = ShardingPlan::build(bytes, 1);
  ShardState st(plan, 0, wl, nn::SgdConfig{});
  tensor::Tensor g(st.param(0).shape());
  g.fill(2.0f);
  st.accumulate_dense(0, g.data());
  st.accumulate_dense(0, g.data());
  std::vector<std::uint32_t> idx = {1};
  std::vector<float> val = {3.0f};
  st.accumulate_sparse(0, idx, val);

  tensor::Tensor sum = st.take_accumulated(0);
  EXPECT_FLOAT_EQ(sum[0], 4.0f);
  EXPECT_FLOAT_EQ(sum[1], 7.0f);
  tensor::Tensor again = st.take_accumulated(0);
  EXPECT_FLOAT_EQ(again[0], 0.0f);
}

TEST(ShardState, ElasticExchangeMovesBothTowardEachOther) {
  core::Workload wl = tiny_workload(1);
  std::vector<std::uint64_t> bytes;
  for (std::size_t i = 0; i < wl.num_slots(); ++i) {
    bytes.push_back(wl.slot_wire_bytes(i));
  }
  ShardingPlan plan = ShardingPlan::build(bytes, 1);
  ShardState st(plan, 0, wl, nn::SgdConfig{});

  const tensor::Tensor center_before = st.param(0);
  tensor::Tensor worker(center_before.shape());
  worker.fill(1.0f);
  const float alpha = 0.25f;
  tensor::Tensor updated = st.elastic_exchange(0, worker, alpha);

  for (std::int64_t i = 0; i < worker.numel(); ++i) {
    const auto j = static_cast<std::size_t>(i);
    const float diff = worker[j] - center_before[j];
    EXPECT_NEAR(updated[j], worker[j] - alpha * diff, 1e-6);
    EXPECT_NEAR(st.param(0)[j], center_before[j] + alpha * diff, 1e-6);
    // Conservation: worker + center sum unchanged.
    EXPECT_NEAR(updated[j] + st.param(0)[j], worker[j] + center_before[j],
                1e-5);
  }
}

// ---- flat element-range sharding (FSDP / ZeRO) ----------------------------

TEST(FlatSharding, MoreShardsThanSlotsAllGetNonEmptyWork) {
  // The layer-wise ShardingPlan clamps shards to num_slots; the flat plan
  // must not: 32 shards over a 16-slot model all receive a non-empty,
  // near-equal element range (the property that lets FSDP scale past the
  // layer count, unlike layer-granular PS sharding).
  const auto profile = cost::vgg16_profile();
  ASSERT_EQ(profile.layers.size(), 16u);
  std::vector<std::int64_t> numel;
  std::vector<std::uint64_t> bytes;
  for (const auto& l : profile.layers) {
    numel.push_back(l.params);
    bytes.push_back(l.bytes());
  }
  const FlatShardingPlan plan = FlatShardingPlan::build(numel, bytes, 32);
  ASSERT_EQ(plan.num_shards, 32);
  std::uint64_t min_elems = plan.shard_elems[0], max_elems = 0;
  for (int sh = 0; sh < 32; ++sh) {
    const auto s = static_cast<std::size_t>(sh);
    EXPECT_FALSE(plan.shard_ranges[s].empty()) << "shard " << sh;
    EXPECT_GT(plan.shard_elems[s], 0u) << "shard " << sh;
    EXPECT_GT(plan.shard_bytes[s], 0u) << "shard " << sh;
    min_elems = std::min(min_elems, plan.shard_elems[s]);
    max_elems = std::max(max_elems, plan.shard_elems[s]);
  }
  // chunk_range: sizes differ by at most one element.
  EXPECT_LE(max_elems - min_elems, 1u);
}

TEST(FlatSharding, RangesTileEverySlotExactly) {
  const auto profile = cost::vgg16_profile();
  std::vector<std::int64_t> numel;
  std::vector<std::uint64_t> bytes;
  std::uint64_t total_bytes = 0;
  std::uint64_t total_elems = 0;
  for (const auto& l : profile.layers) {
    numel.push_back(l.params);
    bytes.push_back(l.bytes());
    total_bytes += l.bytes();
    total_elems += static_cast<std::uint64_t>(l.params);
  }
  for (int shards : {1, 3, 8, 32}) {
    const FlatShardingPlan plan =
        FlatShardingPlan::build(numel, bytes, shards);
    EXPECT_EQ(plan.total_elems, total_elems);
    // Per slot: pieces across shards are disjoint, ordered, and cover
    // [0, numel) exactly; shard bytes sum to the model's wire bytes.
    std::vector<std::size_t> covered(numel.size(), 0);
    std::uint64_t sum_bytes = 0, sum_elems = 0;
    for (int sh = 0; sh < plan.num_shards; ++sh) {
      const auto s = static_cast<std::size_t>(sh);
      for (const SlotRange& piece : plan.shard_ranges[s]) {
        EXPECT_EQ(piece.begin, covered[piece.slot]) << "gap or overlap";
        EXPECT_LT(piece.begin, piece.end);
        covered[piece.slot] = piece.end;
      }
      sum_bytes += plan.shard_bytes[s];
      sum_elems += plan.shard_elems[s];
    }
    for (std::size_t k = 0; k < numel.size(); ++k) {
      EXPECT_EQ(covered[k], static_cast<std::size_t>(numel[k]))
          << "slot " << k << " not fully tiled";
    }
    EXPECT_EQ(sum_bytes, total_bytes);
    EXPECT_EQ(sum_elems, total_elems);
  }
}

TEST(FlatSharding, RangeWireBytesTelescopes) {
  // Pieces of one slot must sum exactly to the slot's wire bytes even when
  // wire != 4*numel (functional mode scales wire bytes) — the prefix-diff
  // formula telescopes where independent rounding would drift.
  const std::uint64_t wire = 1000;  // deliberately not divisible
  const std::size_t numel = 7;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < numel; ++i) {
    sum += FlatShardingPlan::range_wire_bytes(wire, numel, i, i + 1);
  }
  EXPECT_EQ(sum, wire);
  EXPECT_EQ(FlatShardingPlan::range_wire_bytes(wire, numel, 0, numel), wire);
  EXPECT_EQ(FlatShardingPlan::range_wire_bytes(wire, numel, 3, 3), 0u);
  EXPECT_THROW(
      (void)FlatShardingPlan::range_wire_bytes(wire, numel, 5, 3),
      common::Error);
}

TEST(ShardState, CostOnlyModeRejectsFunctionalOps) {
  cost::ModelProfile profile = cost::resnet50_profile();
  core::Workload wl(profile, cost::ComputeModel{}, cost::AggregationModel{},
                    128);
  std::vector<std::uint64_t> bytes;
  for (std::size_t i = 0; i < wl.num_slots(); ++i) {
    bytes.push_back(wl.slot_wire_bytes(i));
  }
  ShardingPlan plan = ShardingPlan::build(bytes, 4);
  ShardState st(plan, 0, wl, nn::SgdConfig{});
  EXPECT_FALSE(st.functional());
  EXPECT_GT(st.wire_bytes(), 0u);
  std::vector<float> g(4, 0.0f);
  EXPECT_THROW(st.apply_dense(0, g, 0.1f, 1.0f), common::Error);
  EXPECT_THROW((void)st.take_accumulated(0), common::Error);
}

}  // namespace
}  // namespace dt::ps
