// A/B determinism tests for the compute-offload runtime: a training run
// with compute_threads=8 must be BIT-IDENTICAL to compute_threads=1 — same
// metrics JSONL, same time-series CSV, same final parameters. This is the
// contract that lets the simulator use every host core without giving up
// reproducibility (see docs/performance.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
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

/// FNV-1a over the raw float bits of every worker's parameters: equal
/// hashes mean bit-identical models.
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
  int compute_threads = 0;  // resolved pool size (host side, not compared)
};

RunArtifacts run_once(Algo algo, int threads, bool wait_free_bp = false,
                      int workers = 4) {
  FunctionalWorkloadSpec spec;
  spec.train_samples = 256;
  spec.test_samples = 64;
  spec.input_dim = 12;
  spec.hidden_dim = 16;
  spec.num_classes = 4;
  spec.batch = 8;
  spec.num_workers = workers;
  spec.seed = 23;
  Workload wl = make_functional_workload(spec);

  const std::string tag = std::string(algo_name(algo)) + "_t" +
                          std::to_string(threads) + "_w" +
                          std::to_string(workers) +
                          (wait_free_bp ? "_wfbp" : "");
  const std::string jsonl = "/tmp/dtrainlib_det_" + tag + ".jsonl";
  const std::string csv = "/tmp/dtrainlib_det_" + tag + ".csv";

  TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = workers;
  cfg.epochs = 2.0;
  cfg.lr = nn::LrSchedule::paper(workers, cfg.epochs, 0.02);
  cfg.cluster.workers_per_machine = 2;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.opt.wait_free_bp = wait_free_bp;
  cfg.gosgd_p = 0.5;  // gossip fires at this size
  cfg.seed = 7;
  cfg.compute_threads = threads;
  cfg.metrics_jsonl = jsonl;
  cfg.timeseries_csv = csv;

  auto result = run_training(cfg, wl);

  RunArtifacts out;
  out.metrics_jsonl = slurp(jsonl);
  out.timeseries_csv = slurp(csv);
  out.params = param_hash(wl, workers);
  out.final_accuracy = result.final_accuracy;
  out.virtual_duration = result.virtual_duration;
  out.compute_threads = result.host_compute_threads;
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

/// One protocol of the 1-vs-8-thread A/B.
struct OffloadCase {
  const char* name;
  Algo algo;
  bool wait_free_bp;
};

void PrintTo(const OffloadCase& c, std::ostream* os) { *os << c.name; }

std::string offload_case_name(
    const ::testing::TestParamInfo<OffloadCase>& info) {
  return info.param.name;
}

class PsOffload : public ::testing::TestWithParam<OffloadCase> {};

TEST_P(PsOffload, ParallelOffloadMatchesSequential) {
  // The asynchronous protocols' schedules are sensitive to any event
  // reordering, so they catch offload bugs that BSP's barriers would mask:
  // ASP answers each push, SSP/DSSP pull within a staleness bound, EASGD
  // exchanges with a center replica. BSP runs with wait-free BP, whose
  // per-slot sends interleave with the backward advances: the offload join
  // must land before the first slot is announced.
  const OffloadCase& c = GetParam();
  expect_identical(run_once(c.algo, 1, c.wait_free_bp),
                   run_once(c.algo, 8, c.wait_free_bp));
}

INSTANTIATE_TEST_SUITE_P(
    Determinism, PsOffload,
    ::testing::Values(OffloadCase{"bsp_wfbp", Algo::bsp, true},
                      OffloadCase{"asp", Algo::asp, false},
                      OffloadCase{"ssp", Algo::ssp, false},
                      OffloadCase{"dssp", Algo::dssp, false},
                      OffloadCase{"easgd", Algo::easgd, false}),
    offload_case_name);

class DecentralizedOffload : public ::testing::TestWithParam<OffloadCase> {};

TEST_P(DecentralizedOffload, ParallelOffloadMatchesSequential) {
  // AR-SGD and D-PSGD touch only their own replica during compute. GoSGD's
  // and AD-PSGD's responders blend into a replica whose gradient may still
  // be computing on the pool: the run matches the sequential one only if
  // each responder joins that computation first (Process::join_compute).
  const OffloadCase& c = GetParam();
  expect_identical(run_once(c.algo, 1), run_once(c.algo, 8));
}

INSTANTIATE_TEST_SUITE_P(
    Determinism, DecentralizedOffload,
    ::testing::Values(OffloadCase{"arsgd", Algo::arsgd, false},
                      OffloadCase{"dpsgd", Algo::dpsgd, false},
                      OffloadCase{"gosgd", Algo::gosgd, false},
                      OffloadCase{"adpsgd", Algo::adpsgd, false}),
    offload_case_name);

TEST(Determinism, ComputeThreadsEnvIsPickedUp) {
  // compute_threads=0 defers to DT_COMPUTE_THREADS; results must still be
  // identical to an explicit thread count.
  ::setenv("DT_COMPUTE_THREADS", "8", 1);
  const RunArtifacts env = run_once(Algo::ssp, 0);
  ::unsetenv("DT_COMPUTE_THREADS");
  expect_identical(run_once(Algo::ssp, 1), env);
}

TEST(Determinism, AutoThreadsDoNotOffloadASingleWorker) {
  // compute_threads=0 caps the pool at the worker count: one worker has
  // nothing to overlap its numerics with, so auto resolves to the
  // sequential path. Explicit counts are still honored, and both agree.
  ::unsetenv("DT_COMPUTE_THREADS");
  const RunArtifacts autod =
      run_once(Algo::bsp, 0, /*wait_free_bp=*/false, /*workers=*/1);
  const RunArtifacts pinned =
      run_once(Algo::bsp, 8, /*wait_free_bp=*/false, /*workers=*/1);
  EXPECT_EQ(autod.compute_threads, 1);
  EXPECT_EQ(pinned.compute_threads, 8);
  expect_identical(autod, pinned);
}

}  // namespace
}  // namespace dt::core
