// Tests of the deterministic fault-injection subsystem (src/faults): the
// FaultPlan timeline itself, the A/B determinism contract under faults
// (compute_threads 1 vs 8 must be byte-identical), crash + rejoin recovery
// for a centralized and a decentralized algorithm, and the throughput
// separations faults are meant to expose (BSP dragged by a slow rank while
// ASP shrugs; stall vs drop; degraded links).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "core/trainer.hpp"
#include "faults/faults.hpp"

namespace dt::core {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan unit tests
// ---------------------------------------------------------------------------

TEST(FaultPlan, PersistentFactorMatchesLegacyStragglerMultiplication) {
  faults::FaultConfig fc;
  fc.slow_ranks = {{2, 3.0}};
  const faults::FaultPlan plan(fc, 42, 4);
  EXPECT_DOUBLE_EQ(plan.persistent_factor(2), 3.0);
  EXPECT_DOUBLE_EQ(plan.persistent_factor(0), 1.0);
  // No transient windows: stretch must reduce to the exact product the
  // legacy straggler path computed (bit-compatible, not just close).
  EXPECT_EQ(plan.stretch(2, 10.0, 0.5), 0.5 * 3.0);
  EXPECT_EQ(plan.stretch(0, 10.0, 0.5), 0.5);
  EXPECT_EQ(plan.factor_at(2, 123.0), 3.0);
}

TEST(FaultPlan, TransientWindowsAreDeterministicSortedAndDisjoint) {
  faults::FaultConfig fc;
  fc.transient_rank = 1;
  fc.transient_rate = 0.2;
  fc.transient_factor = 5.0;
  fc.transient_horizon = 200.0;
  const faults::FaultPlan a(fc, 7, 4);
  const faults::FaultPlan b(fc, 7, 4);

  const auto& wa = a.windows(1);
  const auto& wb = b.windows(1);
  ASSERT_FALSE(wa.empty());
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].start, wb[i].start);
    EXPECT_EQ(wa[i].end, wb[i].end);
    EXPECT_DOUBLE_EQ(wa[i].factor, 5.0);
    EXPECT_GT(wa[i].end, wa[i].start);
    if (i > 0) {
      EXPECT_LE(wa[i - 1].end, wa[i].start);
    }
  }
  // Other ranks are untouched.
  EXPECT_TRUE(a.windows(0).empty());
  EXPECT_TRUE(a.windows(3).empty());
  // factor_at sees the window from the inside only.
  const faults::SlowWindow& w0 = wa.front();
  const double mid = 0.5 * (w0.start + w0.end);
  EXPECT_DOUBLE_EQ(a.factor_at(1, mid), 5.0);
  EXPECT_DOUBLE_EQ(a.factor_at(1, w0.end), 1.0);
}

TEST(FaultPlan, StretchIntegratesThroughAWindow) {
  faults::FaultConfig fc;
  fc.transient_rank = 0;
  fc.transient_rate = 0.1;
  fc.transient_factor = 4.0;
  fc.transient_horizon = 100.0;
  const faults::FaultPlan plan(fc, 11, 2);
  const auto& wins = plan.windows(0);
  ASSERT_FALSE(wins.empty());
  const faults::SlowWindow& w = wins.front();

  // Entirely inside the window: nominal seconds cost nominal * factor.
  const double span = w.end - w.start;
  const double inside = 0.25 * span / 4.0;  // fits within the window
  EXPECT_DOUBLE_EQ(plan.stretch(0, w.start, inside), inside * 4.0);

  // Straddling the leading edge: the pre-window part runs at 1x, the rest
  // at 4x. Start `lead` seconds before the window with lead + x nominal
  // where x * 4 still fits inside: total = lead + 4 x.
  const double lead = 0.5;
  const double x = 0.125 * span / 4.0;
  EXPECT_NEAR(plan.stretch(0, w.start - lead, lead + x), lead + 4.0 * x,
              1e-12);

  // Fully after the last window: no stretching at all.
  const double after = wins.back().end + 1.0;
  EXPECT_EQ(plan.stretch(0, after, 2.0), 2.0);
}

TEST(FaultPlan, LinkMultipliersComposeAcrossEndpoints) {
  faults::FaultConfig fc;
  fc.link_windows = {{0, 10.0, 20.0, 0.5, 2.0}, {1, 15.0, 25.0, 0.5, 3.0}};
  const faults::FaultPlan plan(fc, 1, 2);

  double bw = 0.0, lat = 0.0;
  // Both windows active and both endpoints affected: multipliers compose.
  EXPECT_TRUE(plan.link_multipliers(17.0, 0, 1, &bw, &lat));
  EXPECT_DOUBLE_EQ(bw, 0.25);
  EXPECT_DOUBLE_EQ(lat, 6.0);
  // Only machine 0's window is active at t = 12.
  EXPECT_TRUE(plan.link_multipliers(12.0, 0, 1, &bw, &lat));
  EXPECT_DOUBLE_EQ(bw, 0.5);
  EXPECT_DOUBLE_EQ(lat, 2.0);
  // Transfer not touching a degraded machine.
  EXPECT_FALSE(plan.link_multipliers(17.0, 2, 3, &bw, &lat));
  EXPECT_DOUBLE_EQ(bw, 1.0);
  EXPECT_DOUBLE_EQ(lat, 1.0);
  // Outside every window.
  EXPECT_FALSE(plan.link_multipliers(30.0, 0, 1, &bw, &lat));
}

TEST(FaultPlan, CrashLookupAndValidation) {
  faults::FaultConfig fc;
  // Two non-overlapping windows for rank 1, given out of order.
  fc.crashes = {{1, 9.0, 1.5}, {1, 5.0, 2.0}};
  const faults::FaultPlan plan(fc, 3, 4);
  ASSERT_EQ(plan.crashes_of(1).size(), 2u);
  EXPECT_DOUBLE_EQ(plan.crashes_of(1)[0].at, 5.0);  // sorted by time
  EXPECT_DOUBLE_EQ(plan.crashes_of(1)[0].downtime, 2.0);
  EXPECT_DOUBLE_EQ(plan.crashes_of(1)[1].at, 9.0);
  EXPECT_TRUE(plan.crashes_of(0).empty());
  EXPECT_TRUE(plan.has_crashes());

  auto throws = [](const faults::FaultConfig& bad) {
    EXPECT_THROW(faults::FaultPlan(bad, 1, 4), common::Error);
  };
  faults::FaultConfig bad;
  bad.slow_ranks = {{7, 2.0}};  // rank out of range
  throws(bad);
  bad = {};
  bad.slow_ranks = {{1, 0.0}};  // factor must be positive
  throws(bad);
  bad = {};
  bad.transient_rank = 9;  // out of range
  throws(bad);
  bad = {};
  // Overlapping windows: [1, 6) has not ended when the second begins at 3.
  bad.crashes = {{1, 1.0, 5.0}, {1, 3.0, 1.0}};
  throws(bad);
  bad = {};
  bad.crashes = {{1, 1.0, 0.0}};  // downtime must be positive
  throws(bad);
  bad = {};
  bad.link_windows = {{0, 1.0, 2.0, 0.0, 1.0}};  // bw_mult out of (0, 1]
  throws(bad);
  bad = {};
  bad.link_windows = {{0, 1.0, 2.0, 0.5, 0.5}};  // lat_mult < 1
  throws(bad);
  bad = {};
  bad.link_windows = {{0, 2.0, 2.0, 0.5, 1.0}};  // empty window
  throws(bad);
}

// ---------------------------------------------------------------------------
// A/B determinism under faults and crash/rejoin recovery (functional runs)
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// FNV-1a over the raw float bits of every worker's parameters.
std::uint64_t param_hash(Workload& wl, int workers) {
  std::uint64_t h = 1469598103934665603ull;
  for (int w = 0; w < workers; ++w) {
    for (const auto& t : wl.params(w)) {
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        std::uint32_t bits;
        const float v = t[static_cast<std::size_t>(i)];
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        for (int b = 0; b < 4; ++b) {
          h ^= (bits >> (8 * b)) & 0xFFu;
          h *= 1099511628211ull;
        }
      }
    }
  }
  return h;
}

struct RunArtifacts {
  std::string metrics_jsonl;
  std::string timeseries_csv;
  std::uint64_t params = 0;
  double final_accuracy = 0.0;
  double virtual_duration = 0.0;
  double crashes = 0.0;
  double rejoins = 0.0;
};

TrainConfig small_functional_config(Algo algo) {
  TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = 4;
  cfg.epochs = 2.0;
  cfg.lr = nn::LrSchedule::paper(4, cfg.epochs, 0.02);
  cfg.cluster.workers_per_machine = 2;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.gosgd_p = 0.5;
  cfg.seed = 7;
  return cfg;
}

Workload small_workload() {
  FunctionalWorkloadSpec spec;
  spec.train_samples = 256;
  spec.test_samples = 64;
  spec.input_dim = 12;
  spec.hidden_dim = 16;
  spec.num_classes = 4;
  spec.batch = 8;
  spec.num_workers = 4;
  spec.seed = 23;
  return make_functional_workload(spec);
}

/// Virtual duration of a fault-free run — used to place crashes and
/// windows inside the run regardless of the workload's timing scale.
double baseline_duration(Algo algo) {
  Workload wl = small_workload();
  TrainConfig cfg = small_functional_config(algo);
  return run_training(cfg, wl).virtual_duration;
}

RunArtifacts fault_run(Algo algo, const faults::FaultConfig& fc,
                       int threads, const std::string& tag) {
  Workload wl = small_workload();
  TrainConfig cfg = small_functional_config(algo);
  cfg.faults = fc;
  cfg.compute_threads = threads;
  const std::string jsonl = "/tmp/dtrainlib_faults_" + tag + ".jsonl";
  const std::string csv = "/tmp/dtrainlib_faults_" + tag + ".csv";
  cfg.metrics_jsonl = jsonl;
  cfg.timeseries_csv = csv;

  auto result = run_training(cfg, wl);

  RunArtifacts out;
  out.metrics_jsonl = slurp(jsonl);
  out.timeseries_csv = slurp(csv);
  out.params = param_hash(wl, 4);
  out.final_accuracy = result.final_accuracy;
  out.virtual_duration = result.virtual_duration;
  out.crashes = result.metrics.total("faults.crashes_total");
  out.rejoins = result.metrics.total("faults.rejoins_total");
  std::remove(jsonl.c_str());
  std::remove(csv.c_str());
  return out;
}

void expect_identical(const RunArtifacts& a, const RunArtifacts& b) {
  EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl);
  EXPECT_EQ(a.timeseries_csv, b.timeseries_csv);
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.virtual_duration, b.virtual_duration);
  EXPECT_FALSE(a.metrics_jsonl.empty());
  EXPECT_FALSE(a.timeseries_csv.empty());
}

TEST(FaultDeterminism, AspWithAllFaultClassesOffloadABIdentical) {
  // Every fault class at once — persistent straggler, transient windows,
  // a degraded link, and a mid-run crash — must still be byte-identical
  // between sequential and 8-thread offloaded runs.
  const double d = baseline_duration(Algo::asp);
  faults::FaultConfig fc;
  fc.slow_ranks = {{1, 2.0}};
  fc.transient_rank = 0;
  fc.transient_rate = 4.0 / d;  // a handful of windows inside the run
  fc.transient_factor = 3.0;
  fc.transient_horizon = 2.0 * d;
  fc.link_windows = {{0, 0.2 * d, 0.6 * d, 0.5, 2.0}};
  fc.crashes = {{2, 0.3 * d, 0.2 * d}};
  const RunArtifacts seq = fault_run(Algo::asp, fc, 1, "asp_t1");
  const RunArtifacts par = fault_run(Algo::asp, fc, 8, "asp_t8");
  expect_identical(seq, par);
  EXPECT_EQ(seq.crashes, 1.0);
  EXPECT_EQ(seq.rejoins, 1.0);
}

// GoSGD's and AD-PSGD's responders keep blending while a rank is down and
// after it rejoins; with compute on the pool each must join the rank's
// in-flight gradient before it touches the replica.
TEST(FaultDeterminism, GosgdCrashRejoinOffloadABIdentical) {
  const double d = baseline_duration(Algo::gosgd);
  faults::FaultConfig fc;
  fc.crashes = {{3, 0.25 * d, 0.2 * d}};
  const RunArtifacts seq = fault_run(Algo::gosgd, fc, 1, "gosgd_t1");
  const RunArtifacts par = fault_run(Algo::gosgd, fc, 8, "gosgd_t8");
  expect_identical(seq, par);
  EXPECT_EQ(seq.crashes, 1.0);
  EXPECT_EQ(seq.rejoins, 1.0);
}

TEST(FaultDeterminism, AdpsgdCrashRejoinOffloadABIdentical) {
  const double d = baseline_duration(Algo::adpsgd);
  faults::FaultConfig fc;
  fc.crashes = {{1, 0.25 * d, 0.2 * d}};
  const RunArtifacts seq = fault_run(Algo::adpsgd, fc, 1, "adpsgd_t1");
  const RunArtifacts par = fault_run(Algo::adpsgd, fc, 8, "adpsgd_t8");
  expect_identical(seq, par);
  EXPECT_EQ(seq.crashes, 1.0);
  EXPECT_EQ(seq.rejoins, 1.0);
}

TEST(FaultRecovery, AspWorkerCrashesRejoinsAndCompletes) {
  const double d = baseline_duration(Algo::asp);
  faults::FaultConfig fc;
  fc.crashes = {{2, 0.3 * d, 0.3 * d}};
  const RunArtifacts a = fault_run(Algo::asp, fc, 1, "asp_rec_a");
  const RunArtifacts b = fault_run(Algo::asp, fc, 1, "asp_rec_b");
  EXPECT_EQ(a.crashes, 1.0);
  EXPECT_EQ(a.rejoins, 1.0);
  // The downtime pushes the run long: the crashed worker still finishes.
  EXPECT_GT(a.virtual_duration, 0.3 * d + 0.3 * d);
  EXPECT_GT(a.final_accuracy, 0.3);
  // Crash + pull recovery is itself deterministic run to run.
  expect_identical(a, b);
}

TEST(FaultRecovery, AdpsgdWorkerCrashesRejoinsAndCompletes) {
  const double d = baseline_duration(Algo::adpsgd);
  faults::FaultConfig fc;
  fc.crashes = {{1, 0.3 * d, 0.3 * d}};
  const RunArtifacts a = fault_run(Algo::adpsgd, fc, 1, "adpsgd_rec_a");
  const RunArtifacts b = fault_run(Algo::adpsgd, fc, 1, "adpsgd_rec_b");
  EXPECT_EQ(a.crashes, 1.0);
  EXPECT_EQ(a.rejoins, 1.0);
  EXPECT_GT(a.virtual_duration, 0.3 * d + 0.3 * d);
  EXPECT_GT(a.final_accuracy, 0.3);
  expect_identical(a, b);
}

TEST(FaultRecovery, CheckpointRecoveryCompletesDeterministically) {
  const double d = baseline_duration(Algo::ssp);
  faults::FaultConfig fc;
  fc.crashes = {{1, 0.5 * d, 0.2 * d}};
  fc.recovery = faults::RecoveryMode::checkpoint;
  fc.checkpoint_period = 0.1 * d;  // several snapshots before the crash
  const RunArtifacts a = fault_run(Algo::ssp, fc, 1, "ssp_ck_a");
  const RunArtifacts b = fault_run(Algo::ssp, fc, 8, "ssp_ck_b");
  EXPECT_EQ(a.crashes, 1.0);
  EXPECT_EQ(a.rejoins, 1.0);
  expect_identical(a, b);
}

// ---------------------------------------------------------------------------
// Throughput separations (cost-only runs)
// ---------------------------------------------------------------------------

TrainConfig cost_config(Algo algo, int workers, int iterations) {
  TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = workers;
  cfg.cluster.workers_per_machine = 4;
  cfg.cluster.nic_gbps = 56.0;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.iterations = iterations;
  return cfg;
}

TEST(FaultThroughput, SlowRankDragsBspButNotAspHealthyWorkers) {
  // The acceptance separation, via the new slow_ranks path: one rank 3x
  // slower. BSP healthy workers are dragged to ~3x per-iteration time;
  // ASP healthy workers stay within 10% of their no-fault pace.
  cost::ModelProfile profile = cost::resnet50_profile();
  auto healthy_iter_time = [&](Algo algo, bool slow) {
    TrainConfig cfg = cost_config(algo, 8, 10);
    if (slow) cfg.faults.slow_ranks = {{3, 3.0}};
    Workload wl = make_cost_workload(profile, 128);
    auto result = run_training(cfg, wl);
    double sum = 0.0;
    int counted = 0;
    for (int r = 0; r < 8; ++r) {
      if (r == 3) continue;
      sum += result.workers[static_cast<std::size_t>(r)].total_time();
      ++counted;
    }
    return sum / (counted * 10.0);
  };
  const double bsp_slowdown =
      healthy_iter_time(Algo::bsp, true) / healthy_iter_time(Algo::bsp, false);
  const double asp_slowdown =
      healthy_iter_time(Algo::asp, true) / healthy_iter_time(Algo::asp, false);
  EXPECT_GT(bsp_slowdown, 2.0);
  EXPECT_LT(asp_slowdown, 1.1);
}

TEST(FaultCrash, BspStallBlocksHealthyWorkersDropDoesNot) {
  cost::ModelProfile profile = cost::resnet50_profile();
  // Fault-free duration, used to place the crash mid-run.
  double base = 0.0;
  {
    Workload wl0 = make_cost_workload(profile, 128);
    TrainConfig cfg = cost_config(Algo::bsp, 4, 10);
    base = run_training(cfg, wl0).virtual_duration;
  }
  auto run_with = [&](faults::SyncPolicy policy, double* healthy_time) {
    Workload wl = make_cost_workload(profile, 128);
    TrainConfig cfg = cost_config(Algo::bsp, 4, 10);
    cfg.faults.crashes = {{1, 0.3 * base, 2.0 * base}};
    cfg.faults.sync_policy = policy;
    auto result = run_training(cfg, wl);
    double sum = 0.0;
    for (int r = 0; r < 4; ++r) {
      if (r == 1) continue;
      sum += result.workers[static_cast<std::size_t>(r)].total_time();
    }
    *healthy_time = sum;
    return result;
  };
  double stall_healthy = 0.0, drop_healthy = 0.0;
  auto stall = run_with(faults::SyncPolicy::stall, &stall_healthy);
  auto drop = run_with(faults::SyncPolicy::drop, &drop_healthy);
  // Both complete all iterations, both see the crash and the rejoin.
  EXPECT_EQ(stall.metrics.total("faults.crashes_total"), 1.0);
  EXPECT_EQ(drop.metrics.total("faults.crashes_total"), 1.0);
  EXPECT_EQ(stall.metrics.total("faults.rejoins_total"), 1.0);
  // Under stall the healthy workers sit through the whole downtime; under
  // drop they keep training (their wall time is far lower).
  EXPECT_GT(stall_healthy, 1.5 * drop_healthy);
}

TEST(FaultCrash, BspDropFinishesWhenPeersDepartBeforeTheStraggler) {
  // Without the failure detector, a round that closed with three pushes
  // while rank 2 was down leaves rank 2's last push one short. Its peers
  // finish first; their departure must re-check that round, or the run
  // deadlocks on worker2.
  Workload wl = small_workload();
  TrainConfig cfg = small_functional_config(Algo::bsp);
  cfg.faults.crashes = {{2, 0.5, 0.4}};
  cfg.faults.sync_policy = faults::SyncPolicy::drop;
  metrics::RunResult result;
  EXPECT_NO_THROW(result = run_training(cfg, wl));
  const Session probe(cfg, wl);
  EXPECT_EQ(result.total_iterations, 4 * probe.iterations_per_worker());
  EXPECT_EQ(result.metrics.total("faults.crashes_total"), 1.0);
}

TEST(FaultCrash, BspDropLeavesNoDepartureNoteInFlight) {
  // Drop-mode BSP without the detector: each finished worker tells the
  // shards to re-check their open rounds while a peer still runs (a
  // rebooted one included). The last worker to finish has nobody left to
  // wait on, so it sends no notes and the run ends with an empty network.
  cost::ModelProfile profile = cost::resnet50_profile();
  Workload wl = make_cost_workload(profile, 128);
  TrainConfig cfg = cost_config(Algo::bsp, 8, 20);
  cfg.faults.crashes = {{1, 3.0, 6.0}};
  cfg.faults.sync_policy = faults::SyncPolicy::drop;
  const metrics::RunResult result = run_training(cfg, wl);
  EXPECT_EQ(result.metrics.total("faults.crashes_total"), 1.0);
  EXPECT_EQ(result.metrics.value("net.in_flight"), 0.0);
}

TEST(FaultLink, DegradedLinkIsCountedAndSlowsTheRun) {
  cost::ModelProfile profile = cost::resnet50_profile();
  TrainConfig cfg = cost_config(Algo::bsp, 8, 10);

  Workload wl0 = make_cost_workload(profile, 128);
  const auto clean = run_training(cfg, wl0);

  cfg.faults.link_windows = {{0, 0.0, 1e9, 0.25, 2.0}};
  Workload wl1 = make_cost_workload(profile, 128);
  const auto degraded = run_training(cfg, wl1);

  EXPECT_GT(degraded.metrics.total("net.degraded_sends_total"), 0.0);
  EXPECT_GT(degraded.virtual_duration, clean.virtual_duration);
  EXPECT_EQ(clean.metrics.total("net.degraded_sends_total"), 0.0);
}

}  // namespace
}  // namespace dt::core
