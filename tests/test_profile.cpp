// Tests for the critical-path profiler (src/profile): span-log recording
// and serialization, analyzer invariants on hand-built DAGs, and the
// determinism contract — the span JSONL and the bottleneck report must be
// byte-identical at compute_threads 1 vs 8, with and without injected
// faults, and the critical-path length must equal the run's end-to-end
// virtual time (the walk tiles [0, makespan] by construction). The
// RunProfile goldens pin every field of five runs' profiles bit for bit;
// regenerate them only for a deliberate analyzer change:
//   DT_GOLDEN_CAPTURE=1 ./test_profile --gtest_filter='ProfileGolden*'
// test_profile_oracle.cpp holds the differential tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/trainer.hpp"
#include "profile/critical_path.hpp"
#include "profile/spans.hpp"
#include "profile_oracle.hpp"

namespace dt::profile {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// SpanLog unit tests
// ---------------------------------------------------------------------------

TEST(SpanLog, RecordsSpansWindowsAndEdges) {
  metrics::EdgeLog edges;
  SpanLog log(edges);
  log.register_endpoint(0, "worker0", 0, 0);
  log.register_endpoint(1, "ps0", 0, -1);
  log.on_phase(0, 0, 0, 0.0, 1.5);
  log.on_window(0, 0, 1.5, 2.0);
  edges.push_back({0, 1, 1024, 1.5, 1.75, true});

  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].phase, 0);
  EXPECT_EQ(log.spans()[1].phase, kWindowPhase);
  ASSERT_EQ(log.edges().size(), 1u);
  EXPECT_TRUE(log.edges()[0].inter_machine);
  EXPECT_EQ(log.endpoint_of_worker(0), 0);
  EXPECT_EQ(log.endpoint_of_worker(3), -1);
  EXPECT_EQ(log.endpoint_name(1), "ps0");
  EXPECT_EQ(log.endpoint_name(9), "ep9");
}

TEST(SpanLog, JsonlContainsEndpointsSpansAndEdges) {
  metrics::EdgeLog edges;
  SpanLog log(edges);
  log.register_endpoint(0, "worker0", 0, 0);
  log.register_endpoint(1, "ps0", 1, -1);
  log.on_phase(0, 3, 0, 0.0, 1.0);
  edges.push_back({0, 1, 2048, 1.0, 1.25, true});

  std::ostringstream os;
  log.write_jsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"type\":\"endpoint\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"ps0\""), std::string::npos);
  EXPECT_NE(out.find("\"phase\":\"compute\""), std::string::npos);
  EXPECT_NE(out.find("\"round\":3"), std::string::npos);
  EXPECT_NE(out.find("\"type\":\"edge\""), std::string::npos);
  EXPECT_NE(out.find("\"scope\":\"inter\""), std::string::npos);

  std::ostringstream chrome;
  log.write_chrome_json(chrome);
  EXPECT_NE(chrome.str().find("process_name"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Analyzer unit tests on hand-built DAGs
// ---------------------------------------------------------------------------

TEST(CriticalPath, WorkerToWorkerChainTilesMakespan) {
  // worker1 computes [0,1], its message reaches worker0 at 1.25, worker0
  // computes [1.5,2.0]. Backward walk: compute 0.5 + wait 0.25 (dwell
  // 1.25..1.5) + comm 0.25 (transit) + compute 1.0 = makespan 2.0.
  metrics::EdgeLog edges;
  SpanLog log(edges);
  log.register_endpoint(0, "worker0", 0, 0);
  log.register_endpoint(1, "worker1", 1, 1);
  log.on_phase(1, 0, 0, 0.0, 1.0);
  edges.push_back({1, 0, 4096, 1.0, 1.25, true});
  log.on_phase(0, 0, 0, 1.5, 2.0);

  const RunProfile p = analyze(log, 2.0, 2, 0);
  EXPECT_DOUBLE_EQ(p.critical.total(), 2.0);
  EXPECT_DOUBLE_EQ(p.critical.get(CostClass::compute), 1.5);
  EXPECT_DOUBLE_EQ(p.critical.get(CostClass::comm), 0.25);
  EXPECT_DOUBLE_EQ(p.critical.get(CostClass::wait), 0.25);
  EXPECT_DOUBLE_EQ(p.critical.get(CostClass::ps), 0.0);
  ASSERT_EQ(p.cp_busy_by_rank.size(), 2u);
  EXPECT_DOUBLE_EQ(p.cp_busy_by_rank[0], 0.5);
  EXPECT_DOUBLE_EQ(p.cp_busy_by_rank[1], 1.0);
  EXPECT_EQ(p.straggler_rank, 1);
  EXPECT_DOUBLE_EQ(p.whatif_fast_network, 0.25);
}

TEST(CriticalPath, PsDwellIsChargedToPsClass) {
  // worker0 computes [0,1], request reaches the PS at 1.2, the PS replies
  // at 1.5 (dwell 0.3 = queueing + service), reply arrives 1.7, worker0
  // computes [1.7,2.2]. The dwell at a non-worker endpoint is `ps`.
  metrics::EdgeLog edges;
  SpanLog log(edges);
  log.register_endpoint(0, "worker0", 0, 0);
  log.register_endpoint(1, "ps0", 1, -1);
  log.on_phase(0, 0, 0, 0.0, 1.0);
  edges.push_back({0, 1, 4096, 1.0, 1.2, true});
  edges.push_back({1, 0, 4096, 1.5, 1.7, true});
  log.on_phase(0, 1, 0, 1.7, 2.2);

  const RunProfile p = analyze(log, 2.2, 1, 0);
  EXPECT_DOUBLE_EQ(p.critical.total(), 2.2);
  EXPECT_DOUBLE_EQ(p.critical.get(CostClass::compute), 1.5);
  EXPECT_DOUBLE_EQ(p.critical.get(CostClass::ps), 0.3);
  EXPECT_DOUBLE_EQ(p.critical.get(CostClass::comm), 0.4);
  EXPECT_DOUBLE_EQ(p.critical.get(CostClass::wait), 0.0);
  EXPECT_DOUBLE_EQ(p.whatif_no_ps, 0.3);
}

TEST(CriticalPath, ReportSharesSumToHundredPercent) {
  metrics::EdgeLog edges;
  SpanLog log(edges);
  log.register_endpoint(0, "worker0", 0, 0);
  log.on_phase(0, 0, 0, 0.0, 1.0);
  log.on_phase(0, 0, 1, 1.0, 1.5);
  const RunProfile p = analyze(log, 1.5, 1, 0);
  const std::string report = format_report(p);
  EXPECT_NE(report.find("critical-path bottleneck report"), std::string::npos);
  EXPECT_NE(report.find("100.0%"), std::string::npos);
  EXPECT_NE(report.find("what-if"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Whole-run invariants and the determinism contract
// ---------------------------------------------------------------------------

struct ProfArtifacts {
  std::string spans_jsonl;
  std::string report;
  double virtual_duration = 0.0;
};

/// The functional fixture the observer goldens use: 4 workers on 2
/// machines, one PS shard per machine, seeds 23/7.
core::TrainConfig fixture_config(core::Algo algo) {
  core::TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = 4;
  cfg.epochs = 2.0;
  cfg.lr = nn::LrSchedule::paper(4, cfg.epochs, 0.02);
  cfg.cluster.workers_per_machine = 2;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.seed = 7;
  return cfg;
}

core::Workload fixture_workload() {
  core::FunctionalWorkloadSpec spec;
  spec.train_samples = 256;
  spec.test_samples = 64;
  spec.input_dim = 12;
  spec.hidden_dim = 16;
  spec.num_classes = 4;
  spec.batch = 8;
  spec.num_workers = 4;
  spec.seed = 23;
  return core::make_functional_workload(spec);
}

/// One functional BSP run with the profiler on. `threads` is the
/// compute-offload pool size; `with_faults` adds a persistent straggler and
/// a degraded-link window (both deterministic in the seed).
ProfArtifacts run_profiled(int threads, bool with_faults) {
  core::Workload wl = fixture_workload();

  const std::string jsonl = "/tmp/dt_profile_t" + std::to_string(threads) +
                            (with_faults ? "_faults" : "") + ".spans.jsonl";

  core::TrainConfig cfg = fixture_config(core::Algo::bsp);
  cfg.compute_threads = threads;
  cfg.profile_spans_jsonl = jsonl;  // implies profiling_enabled()
  if (with_faults) {
    cfg.faults.slow_ranks = {{1, 2.0}};
    cfg.faults.link_windows = {{0, 0.5, 3.0, 0.5, 2.0}};
  }

  auto result = core::run_training(cfg, wl);
  ProfArtifacts out;
  out.spans_jsonl = slurp(jsonl);
  EXPECT_TRUE(result.profile);
  if (result.profile) out.report = format_report(*result.profile);
  out.virtual_duration = result.virtual_duration;
  std::remove(jsonl.c_str());
  return out;
}

TEST(ProfileDeterminism, SpanLogAndReportIdenticalAcrossThreads) {
  const ProfArtifacts a = run_profiled(1, false);
  const ProfArtifacts b = run_profiled(8, false);
  EXPECT_EQ(a.spans_jsonl, b.spans_jsonl);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.virtual_duration, b.virtual_duration);
  EXPECT_FALSE(a.spans_jsonl.empty());
  EXPECT_FALSE(a.report.empty());
}

TEST(ProfileDeterminism, SpanLogAndReportIdenticalAcrossThreadsWithFaults) {
  const ProfArtifacts a = run_profiled(1, true);
  const ProfArtifacts b = run_profiled(8, true);
  EXPECT_EQ(a.spans_jsonl, b.spans_jsonl);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.virtual_duration, b.virtual_duration);
}

/// The core tiling invariant on real runs: the critical-path attribution
/// sums to the run's virtual elapsed time, per class totals and per round.
void expect_tiles_elapsed(core::Algo algo) {
  core::TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = 4;
  cfg.iterations = 6;
  cfg.cluster.workers_per_machine = 2;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.seed = 5;
  cfg.profile = true;
  core::Workload wl = core::make_cost_workload(cost::resnet50_profile(), 32);
  auto result = core::run_training(cfg, wl);

  ASSERT_TRUE(result.profile);
  const RunProfile& p = *result.profile;
  const double tol = 1e-9 * std::max(1.0, result.virtual_duration);
  EXPECT_NEAR(p.critical.total(), result.virtual_duration, tol);
  double rounds_total = 0.0;
  for (const RoundCost& rc : p.rounds) rounds_total += rc.cls.total();
  EXPECT_NEAR(rounds_total, result.virtual_duration, tol);
  ASSERT_EQ(p.workers.size(), 4u);
  EXPECT_EQ(p.num_workers, 4);
  EXPECT_DOUBLE_EQ(p.makespan, result.virtual_duration);
}

TEST(ProfileInvariants, CriticalPathEqualsElapsedBsp) {
  expect_tiles_elapsed(core::Algo::bsp);
}

TEST(ProfileInvariants, CriticalPathEqualsElapsedAdpsgd) {
  expect_tiles_elapsed(core::Algo::adpsgd);
}

TEST(ProfileInvariants, ProfilingDoesNotPerturbTheRun) {
  // The profiler is purely observational: the same run with and without
  // the knob must produce the same virtual schedule.
  core::TrainConfig cfg;
  cfg.algo = core::Algo::asp;
  cfg.num_workers = 4;
  cfg.iterations = 6;
  cfg.cluster.workers_per_machine = 2;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.seed = 5;
  core::Workload wl1 = core::make_cost_workload(cost::resnet50_profile(), 32);
  auto plain = core::run_training(cfg, wl1);
  cfg.profile = true;
  core::Workload wl2 = core::make_cost_workload(cost::resnet50_profile(), 32);
  auto profiled = core::run_training(cfg, wl2);
  EXPECT_EQ(plain.virtual_duration, profiled.virtual_duration);
  EXPECT_EQ(plain.wire_bytes, profiled.wire_bytes);
  EXPECT_EQ(plain.wire_messages, profiled.wire_messages);
  EXPECT_FALSE(plain.profile);
  ASSERT_TRUE(profiled.profile);
}

// ---------------------------------------------------------------------------
// RunProfile golden fixtures: every field, bit for bit
// ---------------------------------------------------------------------------

/// Runs `cfg` on the fixture workload and compares oracle::dump of its
/// RunProfile with tests/golden/<stem>.runprofile. With DT_GOLDEN_CAPTURE
/// set, rewrites the fixture instead.
void expect_profile_matches_golden(core::TrainConfig cfg,
                                   const std::string& stem) {
  core::Workload wl = fixture_workload();
  cfg.profile = true;
  const auto result = core::run_training(cfg, wl);
  ASSERT_TRUE(result.profile);
  const std::string got = oracle::dump(*result.profile);
  const std::string path = std::string(DT_GOLDEN_DIR) + "/" + stem +
                           ".runprofile";
  if (std::getenv("DT_GOLDEN_CAPTURE") != nullptr) {
    std::ofstream(path, std::ios::binary) << got;
    return;
  }
  EXPECT_EQ(got, slurp(path)) << "RunProfile deviates from " << path;
}

TEST(ProfileGolden, BspFaultRunMatchesFixture) {
  // The bsp_faults_seed spec: a 2x straggler plus a crash with recovery.
  core::TrainConfig cfg = fixture_config(core::Algo::bsp);
  cfg.faults.slow_ranks.push_back({1, 2.0});
  faults::Crash c;
  c.rank = 2;
  c.at = 0.5;
  c.downtime = 0.4;
  cfg.faults.crashes.push_back(c);
  expect_profile_matches_golden(cfg, "bsp_faults_seed");
}

TEST(ProfileGolden, ArsgdWaitFreeBpMatchesFixture) {
  core::TrainConfig cfg = fixture_config(core::Algo::arsgd);
  cfg.opt.wait_free_bp = true;
  expect_profile_matches_golden(cfg, "arsgd_wfbp");
}

TEST(ProfileGolden, AdpsgdMatchesFixture) {
  expect_profile_matches_golden(fixture_config(core::Algo::adpsgd),
                                "adpsgd");
}

TEST(ProfileGolden, LossyReplicatedPsBspMatchesFixture) {
  // The ps_lossy_traced spec: lossy links, replicated shards, a primary
  // crash and failover.
  core::TrainConfig cfg = fixture_config(core::Algo::bsp);
  cfg.reliability.replicate_ps = true;
  cfg.faults.msg.loss_prob = 0.05;
  cfg.faults.ps_crashes = {{0, 4.0}};
  expect_profile_matches_golden(cfg, "ps_lossy");
}

TEST(ProfileGolden, ArsgdRingRepairCrashMatchesFixture) {
  // sync_policy = drop: the survivors abort the round, re-form the ring
  // without rank 2 and readmit it after its downtime.
  core::Workload base_wl = fixture_workload();
  const core::TrainConfig base = fixture_config(core::Algo::arsgd);
  const double d = core::run_training(base, base_wl).virtual_duration;
  core::TrainConfig cfg = fixture_config(core::Algo::arsgd);
  faults::Crash c;
  c.rank = 2;
  c.at = 0.3 * d;
  c.downtime = 0.4 * d;
  cfg.faults.crashes.push_back(c);
  cfg.faults.sync_policy = faults::SyncPolicy::drop;
  cfg.membership.period_s = 0.01 * d;
  cfg.membership.timeout_s = 0.05 * d;
  cfg.membership.confirm_s = 0.02 * d;
  expect_profile_matches_golden(cfg, "arsgd_drop");
}

}  // namespace
}  // namespace dt::profile
