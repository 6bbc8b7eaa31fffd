// Tests for the per-rank memory-accounting subsystem (src/memory): ledger
// alloc/release/peak semantics, the observer hook, underflow detection, and
// the Session integration — static footprints in RunResult for every
// algorithm, with gauge export gated on cfg.memory_engaged() so runs that
// never asked for memory accounting keep byte-identical metric dumps.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/trainer.hpp"
#include "cost/profiles.hpp"
#include "memory/ledger.hpp"

namespace dt {
namespace {

using memory::Category;
using memory::Ledger;

TEST(MemoryLedger, TracksCurrentAndPeakPerCategory) {
  Ledger led;
  led.reset(2);
  ASSERT_EQ(led.num_ranks(), 2);

  led.alloc(0, Category::params, 100, 0.0);
  led.alloc(0, Category::grads, 50, 1.0);
  EXPECT_EQ(led.rank(0).current_total, 150u);
  EXPECT_EQ(led.rank(0).peak_total, 150u);
  EXPECT_EQ(led.rank(0).current_of(Category::params), 100u);
  EXPECT_EQ(led.rank(0).peak_of(Category::grads), 50u);
  EXPECT_DOUBLE_EQ(led.rank(0).peak_time, 1.0);

  // Release drops current but never the peak.
  led.release(0, Category::grads, 50, 2.0);
  EXPECT_EQ(led.rank(0).current_total, 100u);
  EXPECT_EQ(led.rank(0).peak_total, 150u);
  EXPECT_EQ(led.rank(0).peak_of(Category::grads), 50u);

  // A later, smaller spike does not move peak_total or peak_time.
  led.alloc(0, Category::gather, 20, 3.0);
  EXPECT_EQ(led.rank(0).peak_total, 150u);
  EXPECT_DOUBLE_EQ(led.rank(0).peak_time, 1.0);

  // Ranks are independent.
  EXPECT_EQ(led.rank(1).current_total, 0u);
  led.charge_static(1, Category::optimizer, 77);
  EXPECT_EQ(led.rank(1).peak_of(Category::optimizer), 77u);
  EXPECT_DOUBLE_EQ(led.rank(1).peak_time, 0.0);

  // Worst-rank reductions.
  EXPECT_EQ(led.peak_rank_bytes(), 150u);
  EXPECT_EQ(led.peak_category_bytes(Category::optimizer), 77u);
}

TEST(MemoryLedger, ZeroByteOpsAreNoOpsAndUnderflowThrows) {
  Ledger led;
  led.reset(1);
  led.alloc(0, Category::params, 0, 0.0);
  led.release(0, Category::params, 0, 0.0);
  EXPECT_EQ(led.rank(0).peak_total, 0u);

  led.alloc(0, Category::params, 10, 0.0);
  EXPECT_THROW(led.release(0, Category::params, 11, 1.0), common::Error);
  // Releasing from the wrong category must not borrow from another.
  EXPECT_THROW(led.release(0, Category::grads, 1, 1.0), common::Error);
}

TEST(MemoryLedger, UnderflowErrorNamesTheCategory) {
  Ledger led;
  led.reset(1);
  led.alloc(0, Category::optimizer, 10, 0.0);
  try {
    led.release(0, Category::optimizer, 11, 1.0);
    FAIL() << "release of 11 bytes from 10 did not throw";
  } catch (const common::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ledger.cpp:"), std::string::npos) << what;
    EXPECT_TRUE(
        what.ends_with(": memory::Ledger::release: underflow in optimizer"))
        << what;
  }
}

TEST(MemoryLedger, HookObservesEveryTransition) {
  Ledger led;
  led.reset(1);
  std::vector<std::uint64_t> totals;
  led.set_hook([&](int rank, double /*now*/, std::uint64_t current) {
    EXPECT_EQ(rank, 0);
    totals.push_back(current);
  });
  led.alloc(0, Category::params, 10, 0.0);
  led.alloc(0, Category::grads, 5, 0.5);
  led.release(0, Category::grads, 5, 1.0);
  EXPECT_EQ(totals, (std::vector<std::uint64_t>{10, 15, 10}));
}

// ---- Session integration ---------------------------------------------------

core::TrainConfig tiny_cost_cfg(core::Algo algo) {
  core::TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = 4;
  cfg.iterations = 3;
  cfg.cluster.workers_per_machine = 2;
  cfg.seed = 11;
  return cfg;
}

core::Workload vgg_wl() {
  return core::make_cost_workload(cost::vgg16_profile(), 32);
}

TEST(MemorySession, EveryAlgorithmReportsStaticFootprint) {
  // Non-FSDP protocols get the coarse DDP-style static model: a full
  // parameter, gradient, and optimizer-state replica per rank, each of the
  // model's wire size M — so peak >= 3M and params==grads==optimizer==M.
  for (core::Algo algo : {core::Algo::bsp, core::Algo::arsgd}) {
    core::Workload wl = vgg_wl();
    const std::uint64_t m = wl.total_wire_bytes();
    auto result = core::run_training(tiny_cost_cfg(algo), wl);
    EXPECT_EQ(result.mem_peak_params_bytes, m) << core::algo_name(algo);
    EXPECT_EQ(result.mem_peak_grads_bytes, m) << core::algo_name(algo);
    EXPECT_EQ(result.mem_peak_optimizer_bytes, m) << core::algo_name(algo);
    EXPECT_GE(result.mem_peak_rank_bytes, 3 * m) << core::algo_name(algo);
  }
}

TEST(MemorySession, GaugesExportedOnlyWhenEngaged) {
  // Default run: no mem.* instruments in the snapshot (byte-identity with
  // pre-subsystem builds). With [memory] gauges on: per-rank current/peak.
  auto count_mem = [](const metrics::MetricSnapshot& snap) {
    int n = 0;
    for (const auto& e : snap.metrics) {
      if (e.name.rfind("mem.", 0) == 0) ++n;
    }
    return n;
  };

  core::Workload wl_off = vgg_wl();
  auto off = core::run_training(tiny_cost_cfg(core::Algo::bsp), wl_off);
  EXPECT_EQ(count_mem(off.metrics), 0);
  EXPECT_GT(off.mem_peak_rank_bytes, 0u);  // ledger runs regardless

  core::TrainConfig cfg = tiny_cost_cfg(core::Algo::bsp);
  cfg.memory.enabled = true;
  core::Workload wl_on = vgg_wl();
  auto on = core::run_training(cfg, wl_on);
  // 4 ranks x (mem.current_bytes + mem.peak_bytes).
  EXPECT_EQ(count_mem(on.metrics), 8);

  // FSDP engages the gauges implicitly.
  core::Workload wl_fsdp = vgg_wl();
  auto fsdp = core::run_training(tiny_cost_cfg(core::Algo::fsdp), wl_fsdp);
  EXPECT_EQ(count_mem(fsdp.metrics), 8);
}

}  // namespace
}  // namespace dt
