// Engine self-metrics bench: how fast does the simulator itself run?
//
// Replays representative cost-only configurations and reports the
// scheduler's own counters (SimEngine::stats): events processed, wake
// calls, peak ready-queue length, packets on the wire — plus host-side
// figures: events/second, nanoseconds per event, and peak RSS. The
// simulated results of these runs are deterministic; the wall-clock, rate
// and memory columns are host measurements and are exactly the numbers
// the determinism contract keeps OUT of run records. They live here.
//
// Modes:
//   (default/--quick)  four small reference cases, as tracked since PR 6.
//   --scale[=N]        large-N scalability study: BSP / AR-SGD / ASP at
//                      64,128,...,N (default 2048) workers, run in
//                      increasing size order so the cumulative peak-RSS
//                      column is attributable to the size that set it.
//                      See EXPERIMENTS.md for the write-up recipe.
//   --ci=N             single 512-worker-style gate case: cost-only BSP at
//                      N workers. With --floor=F the bench exits nonzero
//                      when events/sec lands below F (CI regression gate;
//                      the floor lives in .github/simcore-floor.txt).
//
// Output: an aligned table plus BENCH_simcore.json (--json= to relocate),
// the artifact the CI bench job uploads to track simulator performance
// over time.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "core/session.hpp"

namespace {

/// Reads one "<key>: <n> kB" line from /proc/self/status (0 when absent,
/// e.g. off-Linux). VmHWM = peak resident set, VmRSS = current.
std::uint64_t proc_status_kb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) != 0) continue;
    std::istringstream ss(line.substr(key.size() + 1));
    std::uint64_t kb = 0;
    ss >> kb;
    return kb;
  }
  return 0;
}

struct CaseResult {
  std::string name;
  double virtual_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t wakes = 0;
  std::uint64_t processes = 0;
  std::uint64_t packets = 0;
  std::uint64_t peak_rss_kb = 0;  // process-wide high-water mark so far

  [[nodiscard]] double events_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(events) / wall_s : 0.0;
  }

  [[nodiscard]] double ns_per_event() const {
    return events > 0 ? wall_s * 1e9 / static_cast<double>(events) : 0.0;
  }
};

CaseResult run_case(const std::string& name, dt::core::Algo algo, int workers,
                    std::int64_t iters) {
  using namespace dt;
  core::TrainConfig cfg =
      bench::paper_throughput_config(algo, workers, 56.0, iters);
  core::Workload wl = core::make_cost_workload(cost::vgg16_profile(), 96);
  core::Session session(cfg, wl);
  const auto t0 = std::chrono::steady_clock::now();
  const metrics::RunResult r = session.run();
  CaseResult cr;
  cr.name = name;
  cr.virtual_s = r.virtual_duration;
  cr.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  cr.events = r.sim_events;
  cr.wakes = r.sim_wakes;
  cr.processes = session.engine.stats().processes;
  cr.packets = r.wire_messages;
  cr.peak_rss_kb = proc_status_kb("VmHWM");
  std::cerr << "done: " << name << "\n";
  return cr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dt;
  auto args = bench::BenchArgs::parse(argc, argv, 0.0, 60);
  std::string json_path = "BENCH_simcore.json";
  int scale_max = 0;   // 0 = no scalability sweep
  int ci_workers = 0;  // 0 = no CI gate case
  double floor_eps = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) json_path = a.substr(7);
    if (a == "--scale") scale_max = 2048;
    if (a.rfind("--scale=", 0) == 0) scale_max = std::stoi(a.substr(8));
    if (a.rfind("--ci=", 0) == 0) ci_workers = std::stoi(a.substr(5));
    if (a.rfind("--floor=", 0) == 0) floor_eps = std::stod(a.substr(8));
  }

  std::vector<CaseResult> results;
  if (ci_workers > 0) {
    results.push_back(run_case(
        "bsp-" + std::to_string(ci_workers) + "w-ci", core::Algo::bsp,
        ci_workers, args.iters));
  } else {
    struct Case {
      const char* name;
      core::Algo algo;
      int workers;
    };
    const std::vector<Case> cases = {
        {"bsp-16w", core::Algo::bsp, 16},
        {"asp-16w", core::Algo::asp, 16},
        {"adpsgd-16w", core::Algo::adpsgd, 16},
        {"bsp-24w", core::Algo::bsp, 24},
    };
    for (const Case& c : cases) {
      const int workers = std::min(c.workers, args.max_workers);
      results.push_back(run_case(c.name, c.algo, workers, args.iters));
    }

    if (scale_max > 0) {
      // Large-N study, smallest size first. Iterations shrink with size so
      // AR-SGD's O(N^2·iters) ring-step event count stays tractable; the
      // rate and memory figures converge within a few iterations anyway.
      const std::vector<core::Algo> algos = {
          core::Algo::bsp, core::Algo::arsgd, core::Algo::asp};
      for (int workers = 64; workers <= scale_max; workers *= 2) {
        const std::int64_t iters =
            std::max<std::int64_t>(2, (128 * 64) / workers);
        for (core::Algo algo : algos) {
          results.push_back(run_case(
              std::string(core::algo_name(algo)) + "-" +
                  std::to_string(workers) + "w",
              algo, workers, iters));
        }
      }
    }
  }

  common::Table table("simulator core throughput (host-side; not part of "
                      "deterministic results)");
  table.set_header({"case", "virtual s", "wall s", "events", "wakes",
                    "packets", "events/sec", "ns/event", "peak RSS MB"});
  for (const CaseResult& r : results) {
    table.add_row({r.name, common::fmt(r.virtual_s, 2),
                   common::fmt(r.wall_s, 3), std::to_string(r.events),
                   std::to_string(r.wakes), std::to_string(r.packets),
                   common::fmt(r.events_per_sec(), 0),
                   common::fmt(r.ns_per_event(), 0),
                   common::fmt(static_cast<double>(r.peak_rss_kb) / 1024.0,
                               1)});
  }
  bench::emit(table, args);

  std::ofstream out(json_path);
  if (!out.good()) {
    std::cerr << "cannot write " << json_path << "\n";
    return 1;
  }
  out << "{\"bench\":\"simcore\",\"cases\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    if (i) out << ",";
    out << "{\"name\":\"" << r.name << "\",\"virtual_s\":" << r.virtual_s
        << ",\"wall_s\":" << r.wall_s << ",\"events\":" << r.events
        << ",\"wakes\":" << r.wakes
        << ",\"processes\":" << r.processes << ",\"packets\":" << r.packets
        << ",\"events_per_sec\":" << r.events_per_sec()
        << ",\"ns_per_event\":" << r.ns_per_event()
        << ",\"peak_rss_kb\":" << r.peak_rss_kb << "}";
  }
  double total_events = 0.0, total_wall = 0.0;
  for (const CaseResult& r : results) {
    total_events += static_cast<double>(r.events);
    total_wall += r.wall_s;
  }
  const double overall =
      total_wall > 0.0 ? total_events / total_wall : 0.0;
  out << "],\"events_per_sec\":" << overall << "}\n";
  out.flush();
  std::cout << "engine self-metrics written to " << json_path << "\n";
  if (!out.good()) return 1;

  if (ci_workers > 0 && floor_eps > 0.0) {
    const double gate = results.front().events_per_sec();
    if (gate < floor_eps) {
      std::cerr << "FAIL: events/sec " << gate << " below floor "
                << floor_eps << "\n";
      return 1;
    }
    std::cout << "events/sec " << gate << " >= floor " << floor_eps << "\n";
  }
  return 0;
}
