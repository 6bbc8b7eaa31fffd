// Golden A/B tests: the fixtures in tests/golden/ pin byte-for-byte
// reproduction — metrics JSONL, final-parameter hash, and virtual
// duration — across engine rewrites. The BSP pair was captured from the
// seed build (linear-scan scheduler, by-value packet payloads); arsgd_seed
// pins the fault-free AR-SGD ring so the elastic-membership machinery can
// never perturb a healthy run. The *_traced fixtures pin every observer
// output — Chrome trace, time-series CSV, metrics JSONL, profiler span log
// and profiler trace — so the export path can be rewritten without
// changing a byte.
//
// Regenerating (deliberate behaviour changes only):
//   DT_GOLDEN_CAPTURE=1 ./test_golden   # rewrites tests/golden/ in place
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

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
  // Fault-free ring allreduce: pins the legacy (non-elastic) AR-SGD path
  // so membership/ring-repair changes can never shift a healthy run.
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
/// lines of <stem>.meta). With DT_GOLDEN_CAPTURE set, rewrites them.
void expect_observers_match_golden(TrainConfig cfg, const std::string& stem) {
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
    if (got.size() > kMaxCommittedBytes) {
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

TEST(Golden, TracedBspFaultRunObserverOutputsAreByteIdentical) {
  // A slow rank, transient slowdowns, a degraded link and a crash with
  // rejoin put fault-window slices and crash/rejoin instants into the
  // trace beside the phase slices, flows and sampler counters.
  TrainConfig cfg;
  cfg.algo = Algo::bsp;
  cfg.num_workers = 4;
  cfg.epochs = 2.0;
  cfg.lr = nn::LrSchedule::paper(4, cfg.epochs, 0.02);
  cfg.cluster.workers_per_machine = 2;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.seed = 7;
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
  expect_observers_match_golden(cfg, "bsp_traced");
}

TEST(Golden, TracedLossyReplicatedPsRunObserverOutputsAreByteIdentical) {
  // Lossy links put "lost ..." flows into the trace; a shard-0 primary
  // crash on a replicated PS adds the crash and failover instants.
  TrainConfig cfg;
  cfg.algo = Algo::bsp;
  cfg.num_workers = 4;
  cfg.epochs = 2.0;
  cfg.lr = nn::LrSchedule::paper(4, cfg.epochs, 0.02);
  cfg.cluster.workers_per_machine = 2;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.seed = 7;
  cfg.reliability.replicate_ps = true;
  cfg.faults.msg.loss_prob = 0.05;
  cfg.faults.ps_crashes = {{0, 4.0}};
  expect_observers_match_golden(cfg, "ps_lossy_traced");
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
