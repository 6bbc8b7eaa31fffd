// Golden A/B tests: the fixtures in tests/golden/ pin byte-for-byte
// reproduction — metrics JSONL, final-parameter hash, and virtual
// duration — across engine rewrites. The BSP pair was captured from the
// seed build (linear-scan scheduler, by-value packet payloads); arsgd_seed
// pins the fault-free AR-SGD ring so the ring-repair machinery can never
// perturb a healthy run. The *_traced fixtures pin every observer
// output — Chrome trace, time-series CSV, metrics JSONL, profiler span log
// and profiler trace — so the export path can be rewritten without
// changing a byte, and TraceOnlyAndProfileOnlyRunsWriteTheBothOnBytes
// holds a run with only the trace or only the profiler on to the bytes of
// the both-on run. The GoldenPsProtocol fixtures pin ASP, SSP, DSSP and
// EASGD the same way (digests only), fault-free, under worker faults and
// over a lossy replicated PS with a primary failover, so the plain and
// reliable parameter-server paths cannot drift; further inputs pin DGC
// with wait-free BP, checkpoint recovery and BSP's QSGD with wait-free
// BP. The GoldenNeighbourProtocol fixtures pin GoSGD, AD-PSGD and D-PSGD's
// neighbour exchanges fault-free, under worker faults and (GoSGD,
// AD-PSGD) with checkpoint recovery. The ring fixtures pin
// AR-SGD and D-PSGD on the static ring (fault-free, stall crash, DGC plus
// wait-free BP, detector enabled for measurement) and under ring repair,
// and CostOnlyRingRunsKeepTheirEventCounts pins what a static ring costs
// the scheduler.
//
// Regenerating (deliberate behaviour changes only):
//   DT_GOLDEN_CAPTURE=1 ./test_golden   # rewrites tests/golden/ in place
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/ini.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"

namespace dt::core {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// FNV-1a over the raw float bits of every worker's parameters — the same
/// hash the fixture capture used.
std::uint64_t param_hash(Workload& wl, int workers) {
  std::uint64_t h = 1469598103934665603ull;
  for (int w = 0; w < workers; ++w) {
    for (const auto& t : wl.params(w)) {
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        std::uint32_t bits;
        const float v = t[static_cast<std::size_t>(i)];
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

/// The functional workload every fixture was captured on (4 workers,
/// seed 23).
Workload fixture_workload() {
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

/// Reruns the fixture configuration (4 workers, functional workload,
/// seeds 23/7 — exactly what captured tests/golden/) and compares against
/// the named fixture pair; with DT_GOLDEN_CAPTURE set, rewrites it.
void expect_matches_golden(Algo algo, bool with_faults,
                           const std::string& stem) {
  Workload wl = fixture_workload();

  const std::string jsonl = "/tmp/dtrainlib_golden_" + stem + ".jsonl";
  TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = 4;
  cfg.epochs = 2.0;
  cfg.lr = nn::LrSchedule::paper(4, cfg.epochs, 0.02);
  cfg.cluster.workers_per_machine = 2;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.seed = 7;
  cfg.metrics_jsonl = jsonl;
  if (with_faults) {
    cfg.faults.slow_ranks.push_back({1, 2.0});
    faults::Crash c;
    c.rank = 2;
    c.at = 0.5;
    c.downtime = 0.4;
    cfg.faults.crashes.push_back(c);
  }
  auto result = run_training(cfg, wl);

  const std::string dir = DT_GOLDEN_DIR;
  std::ostringstream meta;
  meta << "param_hash=" << param_hash(wl, 4) << "\n";
  std::ostringstream vd;
  vd.precision(17);
  vd << result.virtual_duration;
  meta << "virtual_duration=" << vd.str() << "\n";

  if (std::getenv("DT_GOLDEN_CAPTURE") != nullptr) {
    std::ofstream(dir + "/" + stem + ".jsonl", std::ios::binary)
        << slurp(jsonl);
    std::ofstream(dir + "/" + stem + ".meta", std::ios::binary) << meta.str();
    std::remove(jsonl.c_str());
    return;
  }
  EXPECT_EQ(slurp(jsonl), slurp(dir + "/" + stem + ".jsonl"))
      << "metrics JSONL deviates from the fixture";
  EXPECT_EQ(meta.str(), slurp(dir + "/" + stem + ".meta"))
      << "final params or virtual duration deviate from the fixture";
  std::remove(jsonl.c_str());
}

TEST(Golden, BspRunIsByteIdenticalToSeedEngine) {
  expect_matches_golden(Algo::bsp, false, "bsp_seed");
}

TEST(Golden, BspFaultInjectedRunIsByteIdenticalToSeedEngine) {
  // Straggler + crash/recovery: exercises wake(), recv_until deadlines,
  // and drain on the heap path with the exact seed-engine tie-breaks.
  expect_matches_golden(Algo::bsp, true, "bsp_faults_seed");
}

TEST(Golden, ArsgdRunIsByteIdenticalToFixture) {
  // Fault-free ring allreduce: pins the static AR-SGD ring (epoch 0, no
  // abort guard) so membership/ring-repair changes can never shift a
  // healthy run.
  expect_matches_golden(Algo::arsgd, false, "arsgd_seed");
}

/// FNV-1a over raw bytes, printed as 16 hex digits.
std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Observer outputs above this size are pinned by digest and byte count
/// in the .meta instead of being committed.
constexpr std::size_t kMaxCommittedBytes = 256 * 1024;

/// Runs `cfg` on the fixture workload with every observer output on —
/// Chrome trace, time-series CSV, metrics JSONL, profiler span log and
/// profiler trace — and compares each file byte for byte against
/// tests/golden/<stem>.<suffix> (or, for large files, against the digest
/// lines of <stem>.meta). With `digest_only`, every output is pinned that
/// way, so a fixture commits only its .meta. With DT_GOLDEN_CAPTURE set,
/// rewrites them.
void expect_observers_match_golden(TrainConfig cfg, const std::string& stem,
                                   bool digest_only = false) {
  Workload wl = fixture_workload();

  struct Output {
    const char* suffix;
    std::string* field;
  };
  const std::string tmp = "/tmp/dtrainlib_golden_" + stem;
  cfg.trace_path = tmp + ".chrome.json";
  cfg.timeseries_csv = tmp + ".csv";
  cfg.metrics_jsonl = tmp + ".jsonl";
  cfg.profile_spans_jsonl = tmp + ".spans.jsonl";
  cfg.profile_trace = tmp + ".profile.json";
  const Output outputs[] = {{"chrome.json", &cfg.trace_path},
                            {"csv", &cfg.timeseries_csv},
                            {"jsonl", &cfg.metrics_jsonl},
                            {"spans.jsonl", &cfg.profile_spans_jsonl},
                            {"profile.json", &cfg.profile_trace}};
  auto result = run_training(cfg, wl);

  const std::string dir = DT_GOLDEN_DIR;
  const bool capture = std::getenv("DT_GOLDEN_CAPTURE") != nullptr;
  std::ostringstream meta;
  meta << "param_hash=" << param_hash(wl, 4) << "\n";
  std::ostringstream vd;
  vd.precision(17);
  vd << result.virtual_duration;
  meta << "virtual_duration=" << vd.str() << "\n";
  for (const Output& o : outputs) {
    const std::string got = slurp(*o.field);
    std::remove(o.field->c_str());
    const std::string fixture = dir + "/" + stem + "." + o.suffix;
    if (digest_only || got.size() > kMaxCommittedBytes) {
      meta << o.suffix << ".bytes=" << got.size() << "\n"
           << o.suffix << ".fnv1a=" << fnv1a_hex(got) << "\n";
    } else if (capture) {
      std::ofstream(fixture, std::ios::binary) << got;
    } else {
      EXPECT_EQ(got, slurp(fixture))
          << o.suffix << " deviates from " << fixture;
    }
  }
  if (capture) {
    std::ofstream(dir + "/" + stem + ".meta", std::ios::binary) << meta.str();
    return;
  }
  EXPECT_EQ(meta.str(), slurp(dir + "/" + stem + ".meta"))
      << "params, virtual duration or a large observer output deviate "
         "from the fixture";
}

/// The fixture run shape shared by the traced fixtures: 4 workers on two
/// machines, one PS shard per machine, two epochs, seed 7.
TrainConfig traced_fixture_config(Algo algo) {
  TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = 4;
  cfg.epochs = 2.0;
  cfg.lr = nn::LrSchedule::paper(4, cfg.epochs, 0.02);
  cfg.cluster.workers_per_machine = 2;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.seed = 7;
  return cfg;
}

/// The bsp_traced fault plan: a slow rank, transient slowdowns, a degraded
/// link and a crash with rejoin.
void add_worker_faults(TrainConfig& cfg) {
  cfg.faults.slow_ranks.push_back({1, 2.0});
  faults::Crash c;
  c.rank = 2;
  c.at = 0.5;
  c.downtime = 0.4;
  cfg.faults.crashes.push_back(c);
  cfg.faults.transient_rank = 3;
  cfg.faults.transient_rate = 0.5;
  cfg.faults.transient_horizon = 12.0;
  faults::LinkWindow link;
  link.machine = 1;
  link.start = 2.0;
  link.end = 5.0;
  link.bw_mult = 0.5;
  link.lat_mult = 2.0;
  cfg.faults.link_windows.push_back(link);
}

/// The ps_lossy_traced reliability: lossy links and a replicated PS whose
/// shard-0 primary crashes at `ps_crash_at`.
void add_lossy_replicated_ps(TrainConfig& cfg, double ps_crash_at) {
  cfg.reliability.replicate_ps = true;
  cfg.faults.msg.loss_prob = 0.05;
  cfg.faults.ps_crashes = {{0, ps_crash_at}};
}

TEST(Golden, TracedBspFaultRunObserverOutputsAreByteIdentical) {
  // A slow rank, transient slowdowns, a degraded link and a crash with
  // rejoin put fault-window slices and crash/rejoin instants into the
  // trace beside the phase slices, flows and sampler counters.
  TrainConfig cfg = traced_fixture_config(Algo::bsp);
  add_worker_faults(cfg);
  expect_observers_match_golden(cfg, "bsp_traced");
}

TEST(Golden, TracedLossyReplicatedPsRunObserverOutputsAreByteIdentical) {
  // Lossy links put "lost ..." flows into the trace; a shard-0 primary
  // crash on a replicated PS adds the crash and failover instants.
  TrainConfig cfg = traced_fixture_config(Algo::bsp);
  add_lossy_replicated_ps(cfg, 4.0);
  expect_observers_match_golden(cfg, "ps_lossy_traced");
}

/// Runs `cfg` on the fixture workload with the CSV and JSONL on, plus the
/// Chrome trace when `trace` is set and the profiler's span log and trace
/// when `profile` is; returns the bytes of each written file by suffix.
std::map<std::string, std::string> observer_outputs(TrainConfig cfg,
                                                    const std::string& stem,
                                                    bool trace, bool profile) {
  Workload wl = fixture_workload();
  const std::string tmp = "/tmp/dtrainlib_golden_split_" + stem;
  std::map<std::string, std::string*> paths{
      {"csv", &cfg.timeseries_csv}, {"jsonl", &cfg.metrics_jsonl}};
  if (trace) paths["chrome.json"] = &cfg.trace_path;
  if (profile) {
    paths["spans.jsonl"] = &cfg.profile_spans_jsonl;
    paths["profile.json"] = &cfg.profile_trace;
  }
  for (const auto& [suffix, path] : paths) *path = tmp + "." + suffix;
  (void)run_training(cfg, wl);
  std::map<std::string, std::string> out;
  for (const auto& [suffix, path] : paths) {
    out[suffix] = slurp(*path);
    std::remove(path->c_str());
  }
  return out;
}

TEST(Golden, TraceOnlyAndProfileOnlyRunsWriteTheBothOnBytes) {
  // The *_traced fixtures run with the trace and the profiler both on. A
  // run with only one of them must write the same bytes for each file it
  // writes. bsp_traced carries fault slices and crash instants,
  // ps_lossy_traced lost flows, and arsgd_faults_traced the recover flows
  // of the rebooted rank's state pull.
  struct Case {
    const char* stem;
    Algo algo;
    const char* flow;  // a flow-name prefix the trace must hold
  };
  for (const Case& c : {Case{"bsp_traced", Algo::bsp, "worker0->ps"},
                        Case{"ps_lossy_traced", Algo::bsp, "lost "},
                        Case{"arsgd_faults_traced", Algo::arsgd, "recover "}}) {
    const std::string stem = c.stem;
    TrainConfig cfg = traced_fixture_config(c.algo);
    if (stem == "ps_lossy_traced") {
      add_lossy_replicated_ps(cfg, 4.0);
    } else {
      add_worker_faults(cfg);
    }
    const auto both = observer_outputs(cfg, stem, true, true);
    ASSERT_EQ(both.size(), 5u);
    EXPECT_NE(both.at("chrome.json").find(c.flow), std::string::npos) << stem;
    for (const bool trace : {true, false}) {
      const auto part = observer_outputs(cfg, stem, trace, !trace);
      EXPECT_EQ(part.size(), trace ? 3u : 4u);
      for (const auto& [suffix, bytes] : part) {
        EXPECT_EQ(bytes, both.at(suffix))
            << stem << "." << suffix << " with only the "
            << (trace ? "trace" : "profiler") << " on";
      }
    }
  }
}

/// One traced fixture input: a protocol under a named variant of the
/// fixture run.
struct ProtocolCase {
  const char* stem;
  Algo algo;
  const char* variant;  // "plain", "faults", "lossy", "lossy_early",
                        // "dgc_wfbp", "qsgd_wfbp", "checkpoint",
                        // "membership" or "drop"
};

void PrintTo(const ProtocolCase& c, std::ostream* os) {
  *os << c.stem << "_" << c.variant;
}

std::string case_name(const ::testing::TestParamInfo<ProtocolCase>& info) {
  return std::string(info.param.stem) + "_" + info.param.variant;
}

/// Runs `c`'s algorithm on the traced fixture config under its variant:
/// "faults" is the bsp_traced fault plan and "lossy" the ps_lossy_traced
/// reliability. "lossy_early" moves the crash to t = 1, into the middle of
/// an ASP round: the failover re-push must skip the slots already
/// answered. "dgc_wfbp" streams DGC-sparse pushes out of the backward pass
/// over the plain link (the shards' sparse applies); "qsgd_wfbp" runs
/// BSP's quantized pushes with wait-free BP on; "checkpoint" takes the
/// bsp_traced fault plan's crash with checkpoint recovery, "membership"
/// with the failure detector measuring it (a view is published only for
/// departures the protocol announces), and "drop" with sync_policy = drop
/// and no failure detector. Every variant runs SSP at staleness 3 and
/// GoSGD at gossip probability 0.5, so gossip fires at this size.
void expect_case_matches_golden(const ProtocolCase& c) {
  TrainConfig cfg = traced_fixture_config(c.algo);
  cfg.ssp_staleness = 3;
  cfg.gosgd_p = 0.5;
  const std::string variant = c.variant;
  if (variant == "faults") {
    add_worker_faults(cfg);
  } else if (variant == "lossy" || variant == "lossy_early") {
    add_lossy_replicated_ps(cfg, variant == "lossy" ? 4.0 : 1.0);
  } else if (variant == "dgc_wfbp") {
    cfg.opt.dgc = true;
    cfg.opt.wait_free_bp = true;
  } else if (variant == "qsgd_wfbp") {
    cfg.opt.qsgd_bits = 4;
    cfg.opt.wait_free_bp = true;
  } else if (variant == "membership") {
    add_worker_faults(cfg);
    cfg.membership.enabled = true;
  } else if (variant == "drop") {
    add_worker_faults(cfg);
    cfg.faults.sync_policy = faults::SyncPolicy::drop;
  } else if (variant == "checkpoint") {
    add_worker_faults(cfg);
    cfg.faults.recovery = faults::RecoveryMode::checkpoint;
    cfg.faults.checkpoint_period = 0.25;
  }
  expect_observers_match_golden(
      cfg, std::string(c.stem) + "_" + variant + "_traced",
      /*digest_only=*/true);
}

/// The parameter-server protocols other than BSP, each pinned fault-free,
/// under the bsp_traced fault plan, and under the ps_lossy_traced
/// reliability (lossy links, replicated PS, shard-0 primary crash), plus
/// DGC with wait-free BP, checkpoint recovery and the failure detector;
/// BSP with QSGD and wait-free BP, and in drop mode.
class GoldenPsProtocol : public ::testing::TestWithParam<ProtocolCase> {};

TEST_P(GoldenPsProtocol, ObserverOutputsAreByteIdentical) {
  expect_case_matches_golden(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Golden, GoldenPsProtocol,
    ::testing::Values(ProtocolCase{"asp", Algo::asp, "plain"},
                      ProtocolCase{"asp", Algo::asp, "faults"},
                      ProtocolCase{"asp", Algo::asp, "lossy"},
                      ProtocolCase{"asp", Algo::asp, "lossy_early"},
                      ProtocolCase{"asp", Algo::asp, "dgc_wfbp"},
                      ProtocolCase{"asp", Algo::asp, "membership"},
                      ProtocolCase{"ssp", Algo::ssp, "plain"},
                      ProtocolCase{"ssp", Algo::ssp, "faults"},
                      ProtocolCase{"ssp", Algo::ssp, "lossy"},
                      ProtocolCase{"ssp", Algo::ssp, "dgc_wfbp"},
                      ProtocolCase{"ssp", Algo::ssp, "checkpoint"},
                      ProtocolCase{"dssp", Algo::dssp, "plain"},
                      ProtocolCase{"dssp", Algo::dssp, "faults"},
                      ProtocolCase{"dssp", Algo::dssp, "lossy"},
                      ProtocolCase{"dssp", Algo::dssp, "dgc_wfbp"},
                      ProtocolCase{"easgd", Algo::easgd, "plain"},
                      ProtocolCase{"easgd", Algo::easgd, "faults"},
                      ProtocolCase{"easgd", Algo::easgd, "lossy"},
                      ProtocolCase{"easgd", Algo::easgd, "checkpoint"},
                      ProtocolCase{"bsp", Algo::bsp, "qsgd_wfbp"},
                      ProtocolCase{"bsp", Algo::bsp, "drop"}),
    case_name);

/// The neighbour-exchange protocols: GoSGD and AD-PSGD fault-free, under
/// the bsp_traced fault plan (their receivers drop pushes addressed to the
/// crashed rank) and with checkpoint recovery; D-PSGD fault-free and under
/// a stall crash (its ring repair and detector fixtures are below).
class GoldenNeighbourProtocol
    : public ::testing::TestWithParam<ProtocolCase> {};

TEST_P(GoldenNeighbourProtocol, ObserverOutputsAreByteIdentical) {
  expect_case_matches_golden(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Golden, GoldenNeighbourProtocol,
    ::testing::Values(ProtocolCase{"gosgd", Algo::gosgd, "plain"},
                      ProtocolCase{"gosgd", Algo::gosgd, "faults"},
                      ProtocolCase{"gosgd", Algo::gosgd, "checkpoint"},
                      ProtocolCase{"adpsgd", Algo::adpsgd, "plain"},
                      ProtocolCase{"adpsgd", Algo::adpsgd, "faults"},
                      ProtocolCase{"adpsgd", Algo::adpsgd, "checkpoint"},
                      ProtocolCase{"dpsgd", Algo::dpsgd, "plain"},
                      ProtocolCase{"dpsgd", Algo::dpsgd, "faults"}),
    case_name);

TEST(Golden, TracedBspMemoryGaugesObserverOutputsAreByteIdentical) {
  // Memory gauges on: the ledger's per-rank "memory" counters interleave
  // with the sampler's rows in the trace's counter block.
  TrainConfig cfg = traced_fixture_config(Algo::bsp);
  cfg.memory.enabled = true;
  expect_observers_match_golden(cfg, "bsp_memory_traced",
                                /*digest_only=*/true);
}

TEST(Golden, TracedFsdpStage3ObserverOutputsAreByteIdentical) {
  // ZeRO stage 3: every rank's gather buffers charge and release the
  // ledger, so the memory counters move between sampler ticks.
  TrainConfig cfg = traced_fixture_config(Algo::fsdp);
  cfg.opt.zero_stage = 3;
  expect_observers_match_golden(cfg, "fsdp_z3_traced", /*digest_only=*/true);
}

/// The RingRepair.*Crash* plan: rank `rank` crashes at 0.3 of the
/// fault-free duration for 0.4 of it, with the detector scaled to the run.
/// Under `policy` = drop the survivors drop it from the ring and readmit it
/// after its downtime; under stall the ring waits for it.
TrainConfig ring_crash_config(Algo algo, int rank, faults::SyncPolicy policy) {
  Workload base_wl = fixture_workload();
  const double d =
      run_training(traced_fixture_config(algo), base_wl).virtual_duration;
  TrainConfig cfg = traced_fixture_config(algo);
  faults::Crash c;
  c.rank = rank;
  c.at = 0.3 * d;
  c.downtime = 0.4 * d;
  cfg.faults.crashes.push_back(c);
  cfg.faults.sync_policy = policy;
  cfg.membership.period_s = 0.01 * d;
  cfg.membership.timeout_s = 0.05 * d;
  cfg.membership.confirm_s = 0.02 * d;
  return cfg;
}

TrainConfig ring_drop_crash_config(Algo algo, int rank) {
  return ring_crash_config(algo, rank, faults::SyncPolicy::drop);
}

// The static ring paths: AR-SGD under the bsp_traced fault plan (a stall
// crash: the ring waits for the rebooted rank; D-PSGD's pair is in
// GoldenNeighbourProtocol), AR-SGD with DGC and wait-free BP (four
// pipelined buckets), and AR-SGD with the failure detector engaged for
// measurement only — the oracle publishes views, but the ring stays static
// and stalls.

TEST(Golden, TracedArsgdStallCrashObserverOutputsAreByteIdentical) {
  TrainConfig cfg = traced_fixture_config(Algo::arsgd);
  add_worker_faults(cfg);
  expect_observers_match_golden(cfg, "arsgd_faults_traced",
                                /*digest_only=*/true);
}

TEST(Golden, TracedArsgdDgcWaitFreeBpObserverOutputsAreByteIdentical) {
  TrainConfig cfg = traced_fixture_config(Algo::arsgd);
  cfg.opt.dgc = true;
  cfg.opt.wait_free_bp = true;
  expect_observers_match_golden(cfg, "arsgd_dgc_wfbp_traced",
                                /*digest_only=*/true);
}

TEST(Golden, TracedArsgdMembershipEnabledObserverOutputsAreByteIdentical) {
  TrainConfig cfg =
      ring_crash_config(Algo::arsgd, 2, faults::SyncPolicy::stall);
  cfg.membership.enabled = true;
  expect_observers_match_golden(cfg, "arsgd_membership_enabled_traced",
                                /*digest_only=*/true);
}

TEST(Golden, TracedArsgdRingRepairObserverOutputsAreByteIdentical) {
  expect_observers_match_golden(ring_drop_crash_config(Algo::arsgd, 2),
                                "arsgd_drop_traced", /*digest_only=*/true);
}

TEST(Golden, TracedDpsgdRingRepairObserverOutputsAreByteIdentical) {
  expect_observers_match_golden(ring_drop_crash_config(Algo::dpsgd, 1),
                                "dpsgd_drop_traced", /*digest_only=*/true);
}

TEST(Golden, TracedDpsgdMembershipEnabledObserverOutputsAreByteIdentical) {
  TrainConfig cfg =
      ring_crash_config(Algo::dpsgd, 1, faults::SyncPolicy::stall);
  cfg.membership.enabled = true;
  expect_observers_match_golden(cfg, "dpsgd_membership_enabled_traced",
                                /*digest_only=*/true);
}

struct EventCounts {
  std::uint64_t events = 0;    // RunResult::sim_events
  std::uint64_t wakes = 0;     // RunResult::sim_wakes
  std::uint64_t messages = 0;  // RunResult::wire_messages
};

/// Scheduler and wire counts of a cost-only VGG-16 run at 32 workers.
EventCounts cost_only_counts(const std::string& algorithm,
                             bool wait_free_bp) {
  common::IniConfig ini;
  ini.set("experiment", "algorithm", algorithm);
  ini.set("experiment", "mode", "throughput");
  ini.set("experiment", "workers", "32");
  ini.set("experiment", "iterations", "4");
  ini.set("experiment", "seed", "42");
  ini.set("workload", "model", "vgg16");
  ini.set("optimizations", "wait_free_bp", wait_free_bp ? "true" : "false");
  const ExperimentSpec spec = ExperimentSpec::from_ini(ini);
  Workload wl = spec.make_workload();
  const metrics::RunResult r = run_training(spec.config, wl);
  return {r.sim_events, r.sim_wakes, r.wire_messages};
}

TEST(Golden, CostOnlyRingRunsKeepTheirEventCounts) {
  // A ring whose membership view never changes must cost what a plain
  // blocking ring costs: no deadline poll, no abort check, no flush is
  // allowed to add a scheduler event or a wake.
  const struct {
    const char* algorithm;
    bool wait_free_bp;
    EventCounts want;
  } cases[] = {
      {"arsgd", false, {16004, 7936, 7936}},
      {"arsgd", true, {62417, 31744, 31744}},
      {"dpsgd", false, {544, 256, 256}},
  };
  for (const auto& c : cases) {
    const EventCounts got = cost_only_counts(c.algorithm, c.wait_free_bp);
    const std::string what =
        std::string(c.algorithm) + (c.wait_free_bp ? " wait-free BP" : "");
    EXPECT_EQ(got.events, c.want.events) << what;
    EXPECT_EQ(got.wakes, c.want.wakes) << what;
    EXPECT_EQ(got.messages, c.want.messages) << what;
  }
}

TEST(Golden, FsdpStages1And2MatchBspBitwise) {
  // FSDP stages 1/2 claim to be a resharded BSP: same gradient sum, same
  // 1/N scale, same momentum kernel — only *where* the update runs moves.
  // Pin that claim with an in-process A/B: a BSP run whose PS arrival
  // order is forced to rank order (large distinct stragglers dominate the
  // 2% compute jitter; no local aggregation, single PS shard) must produce
  // the exact parameter bits of FSDP, whose owners always sum in rank
  // order. Elementwise momentum is partition-invariant, so the shard
  // boundaries cannot perturb the result.
  auto run_hash = [](Algo algo, int stage) {
    Workload wl = fixture_workload();

    TrainConfig cfg;
    cfg.algo = algo;
    cfg.num_workers = 4;
    cfg.epochs = 2.0;
    cfg.lr = nn::LrSchedule::paper(4, cfg.epochs, 0.02);
    cfg.cluster.workers_per_machine = 2;
    cfg.opt.ps_shards_per_machine = 1;
    cfg.opt.local_aggregation = false;
    cfg.opt.zero_stage = stage;
    cfg.seed = 7;
    cfg.faults.slow_ranks.push_back({1, 1.5});
    cfg.faults.slow_ranks.push_back({2, 2.0});
    cfg.faults.slow_ranks.push_back({3, 2.5});
    run_training(cfg, wl);
    return param_hash(wl, 4);
  };

  const std::uint64_t bsp = run_hash(Algo::bsp, 1);
  EXPECT_EQ(run_hash(Algo::fsdp, 1), bsp) << "stage 1 deviates from BSP";
  EXPECT_EQ(run_hash(Algo::fsdp, 2), bsp) << "stage 2 deviates from BSP";
}

}  // namespace
}  // namespace dt::core
