// Shared pieces of the dtbench benchmark program: command-line options, the
// check ledger, the in-memory span recorder and the per-layer sums that the
// traced pass fills. See perfbench/README.md for what is measured and why.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/ini.hpp"
#include "core/workload.hpp"
#include "metrics/metrics.hpp"

namespace dtbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// The seed whose run digests are pinned in perfbench/digests.txt.
inline constexpr std::uint64_t kPinnedSeed = 42;

struct Options {
  std::string workload;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Span files and scratch directories go here (inside the checkout).
  std::string out_dir = ".";
  /// Pinned digests, one `<workload> <label> <digest>` per line.
  std::string digests_path;
  /// When set, every digest seen is written here (regenerates the pins).
  std::string pin_out;
  /// Host threads the workloads may use in total (the process's CPU set).
  int threads = 1;
};

/// Output checks. Every simulated run hands its deterministic outputs here
/// as canonical bytes under a label. A run fails when
///  - it threw, or the workload found a problem with it (`problem`);
///  - a run with the same label in this process produced different text
///    (timed reps vs. each other, the traced pass at another thread count
///    vs. the timed pass, warm campaign records vs. cold ones);
///  - at kPinnedSeed, its digest differs from the pinned one or no digest
///    is pinned for its label.
class Checks {
 public:
  Checks(const Options& opt, std::map<std::string, std::string> pinned);

  void record(const std::string& label, const std::string& outputs,
              const std::string& problem = {});
  void threw(const std::string& label, const std::string& what);

  [[nodiscard]] int attempted() const noexcept { return attempted_; }
  [[nodiscard]] int failed() const noexcept { return failed_; }
  /// Labels and digests seen, for --pin-out.
  [[nodiscard]] const std::map<std::string, std::string>& seen() const {
    return digests_;
  }

 private:
  void fail(const std::string& label, const std::string& why);

  std::string workload_;
  bool pinned_seed_ = false;
  std::map<std::string, std::string> pinned_;   // "<workload> <label>" -> hex
  std::map<std::string, std::string> first_;    // label -> canonical text
  std::map<std::string, std::string> digests_;  // label -> hex
  int attempted_ = 0;
  int failed_ = 0;
};

/// Reads a pinned-digest file; a missing file yields an empty map.
[[nodiscard]] std::map<std::string, std::string> load_pins(
    const std::string& path);

/// Canonical text of a Session run's deterministic outputs: virtual
/// duration, iterations, wire bytes/messages, final accuracy, worst-rank
/// peak memory (floating values as exact hex floats) and a hash of every
/// worker's final parameters (empty for cost-only runs).
[[nodiscard]] std::string canonical(const dt::metrics::RunResult& r,
                                    dt::core::Workload& wl);

/// Spans recorded around the calls into each layer. Kept in memory and
/// written once, as JSONL, when the benchmark ends. A disabled recorder
/// records nothing, so the untraced timed pass pays only a branch.
class Spans {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Opens a span for its lifetime (no-op when the recorder is disabled).
  class Scope {
   public:
    Scope(Spans& spans, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_ = -1;
  };

  explicit Spans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Duration minus the part of it covered by the span's children.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  /// One line per span plus one `summary` line per span name (count, total
  /// and self time).
  void save_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids
};

/// Per-layer metric values of one traced pass, by BENCHMARK.json name.
using Layers = std::map<std::string, double>;

/// Everything a workload needs while it runs.
struct Ctx {
  const Options& opt;
  Checks& checks;
  Spans& spans;
  /// Scratch directory of this process (created and removed by main).
  std::string scratch;
};

/// Result of one timed repetition of a workload.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
};

// ---- configs ---------------------------------------------------------------

/// Cost-only VGG-16 throughput run at `workers`, `iterations`, `seed`.
[[nodiscard]] dt::common::IniConfig cost_ini(const std::string& algorithm,
                                             int workers, int iterations,
                                             std::uint64_t seed);

/// Functional run on the teacher-student MLP (ResNet-50 timing profile).
[[nodiscard]] dt::common::IniConfig functional_ini(const std::string& algorithm,
                                                   int workers,
                                                   std::uint64_t seed);

/// The campaign-sweep grid (14 protocol columns x `workers`), with its
/// cache in `cache_dir`.
[[nodiscard]] dt::common::IniConfig campaign_ini(
    const std::vector<int>& workers, std::uint64_t seed, int runner_threads,
    const std::string& cache_dir);

/// Iterations of every cost-only run (ring, PS, campaign cells).
inline constexpr int kCostIterations = 16;

// ---- layer probes ----------------------------------------------------------

/// tensor.gemm_gflops: gemm_nn/tn/nt at the functional MLP's layer shapes.
void probe_gemm(Ctx& ctx, Layers& out);
/// nn.grad_us / nn.apply_us / nn.eval_ms on the functional workload.
void probe_nn(Ctx& ctx, Layers& out);
/// net.send_recv_ns: Network::send + recv on a bare SimEngine.
void probe_network(Ctx& ctx, Layers& out);
/// net.retransmit_ratio: one lossy BSP cell through Session.
void probe_lossy(Ctx& ctx, Layers& out);
/// campaign.serial_run_ms: execute_run over the 4-worker row, serially.
void probe_serial_campaign(Ctx& ctx, Layers& out);
/// campaign.cold_s / warm_s / hit_ratio on the 4-worker row (workloads
/// other than campaign-sweep, which measures its own passes).
void probe_campaign_row(Ctx& ctx, Layers& out);

/// Runs the probes every traced pass shares.
void run_shared_probes(Ctx& ctx, Layers& out);

// ---- workloads (workloads.cpp) --------------------------------------------

struct WorkloadDef {
  const char* name;
  const char* why;
  Rep (*timed_rep)(Ctx&);
  /// Fills the per-layer metrics; returns the traced pass's run_s.
  double (*traced_pass)(Ctx&, Layers&);
};

[[nodiscard]] const std::vector<WorkloadDef>& workloads();

}  // namespace dtbench
