// dtbench: the repository benchmark. Runs one named workload through the
// public API (core::ExperimentSpec, core::Session, campaign::run_campaign)
// for --seconds of repetitions with tracing off and prints the end-to-end
// metrics; with --trace 1 it then runs the traced pass and prints the
// per-layer metrics instead. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Exit code 0 only when every simulated run passed its output checks.
//
//   dtbench --workload ring-large-n --seed 42 --seconds 10 --trace 0
//           [--out-dir DIR] [--digests FILE] [--pin-out FILE]
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace dtbench;

struct Metric {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
const std::vector<Metric> kEndToEnd = {
    {"run_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MiB"}};

const std::vector<Metric> kPerLayer = {
    {"runtime.engine_s", "s"},
    {"runtime.events", "count"},
    {"runtime.ns_per_event", "ns"},
    {"runtime.offload_speedup", "x"},
    {"runtime.offload_1w_x", "x"},
    {"net.messages", "count"},
    {"net.send_recv_ns", "ns"},
    {"net.retransmit_ratio", "ratio"},
    {"ps.requests", "count"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"nn.grad_us", "us"},
    {"nn.apply_us", "us"},
    {"nn.eval_ms", "ms"},
    {"core.make_workload_s", "s"},
    {"core.session_ctor_s", "s"},
    {"core.post_run_s", "s"},
    {"core.iter_host_us", "us"},
    {"core.iter_host_us_1w", "us"},
    {"metrics.observer_overhead_x", "x"},
    {"metrics.output_mb", "MiB"},
    {"profile.analyze_ms", "ms"},
    {"campaign.cold_s", "s"},
    {"campaign.warm_s", "s"},
    {"campaign.hit_ratio", "ratio"},
    {"campaign.serial_run_ms", "ms"},
    {"bench.trace_overhead_x", "x"},
};

/// Repetitions every timed pass makes, however short --seconds is.
constexpr std::size_t kMinReps = 3;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dtbench: " << why
            << "\nusage: dtbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--digests FILE] "
               "[--pin-out FILE]\nworkloads:";
  for (const WorkloadDef& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--out-dir") {
        opt.out_dir = value;
      } else if (flag == "--digests") {
        opt.digests_path = value;
      } else if (flag == "--pin-out") {
        opt.pin_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  opt.threads = sched_getaffinity(0, sizeof set, &set) == 0
                    ? std::max(1, CPU_COUNT(&set))
                    : 1;
  return opt;
}

/// Process high-water resident set (VmHWM), MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 20, '\n');
  }
  return 0.0;
}

std::string host_block(const Options& opt) {
  std::string out = "{\"cores\":" + std::to_string(opt.threads) +
                    ",\"compiler\":\"" DTB_CXX_COMPILER
                    "\",\"build_type\":\"" DTB_BUILD_TYPE
                    "\",\"flags\":\"" DTB_CXX_FLAGS "\",\"native_kernels\":";
  out += DTB_NATIVE_KERNELS ? "true}" : "false}";
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : workloads()) {
    if (opt.workload == w.name) def = &w;
  }
  if (def == nullptr) usage("unknown workload '" + opt.workload + "'");

  namespace fs = std::filesystem;
  const std::string scratch =
      opt.out_dir + "/scratch-" + std::to_string(::getpid());
  fs::create_directories(scratch);

  Checks checks(opt, load_pins(opt.digests_path));
  Spans untraced(false);
  Ctx ctx{opt, checks, untraced, scratch};

  std::cout << "host " << host_block(opt) << "\n";
  std::cout << "workload " << def->name << " (seed " << opt.seed
            << "): " << def->why << "\n";

  // Timed pass: whole repetitions while the next one, at the mean pace so
  // far, still ends within --seconds (and at least kMinReps).
  std::vector<double> setup_s, run_s;
  const auto t0 = Clock::now();
  while (run_s.size() < kMinReps ||
         seconds_since(t0) * (1.0 + 1.0 / static_cast<double>(run_s.size())) <=
             opt.seconds) {
    const Rep rep = def->timed_rep(ctx);
    setup_s.push_back(rep.setup_s);
    run_s.push_back(rep.run_s);
    std::cout << "  rep " << run_s.size() << ": run_s " << number(rep.run_s)
              << " setup_s " << number(rep.setup_s) << "\n";
  }
  std::cout << run_s.size() << " timed repetitions in "
            << number(seconds_since(t0)) << " s\n";
  for (const auto& [name, v] :
       {std::pair{"run_s", run_s}, std::pair{"setup_s", setup_s}}) {
    std::cout << "  " << name << " median " << number(quantile(v, 0.5))
              << " s, p25 " << number(quantile(v, 0.25)) << ", p75 "
              << number(quantile(v, 0.75)) << "\n";
  }

  std::vector<std::pair<Metric, double>> metrics;
  if (!opt.trace) {
    metrics = {{kEndToEnd[0], quantile(run_s, 0.5)},
               {kEndToEnd[1], quantile(setup_s, 0.5)},
               {kEndToEnd[2], peak_rss_mib()}};
  } else {
    Spans traced(true);
    Ctx tctx{opt, checks, traced, scratch};
    Layers layers;
    double traced_run_s = 0.0;
    {
      Spans::Scope root(traced, std::string("traced_pass:") + def->name);
      {
        Spans::Scope s(traced, "workload");
        traced_run_s = def->traced_pass(tctx, layers);
      }
      Spans::Scope s(traced, "probes");
      run_shared_probes(tctx, layers);
    }
    layers["bench.trace_overhead_x"] = traced_run_s / quantile(run_s, 0.5);
    const std::string span_file = opt.out_dir + "/spans-" + def->name +
                                  "-seed" + std::to_string(opt.seed) +
                                  ".jsonl";
    traced.save_jsonl(span_file);
    std::cout << traced.size() << " spans written to " << span_file << "\n";
    for (const Metric& m : kPerLayer) {
      const auto it = layers.find(m.name);
      if (it == layers.end()) {
        std::cerr << "dtbench: per-layer metric " << m.name
                  << " was not measured\n";
        return 3;
      }
      metrics.push_back({m, it->second});
    }
  }
  std::error_code ec;
  fs::remove_all(scratch, ec);

  if (!opt.pin_out.empty()) {
    std::ofstream pins(opt.pin_out);
    for (const auto& [label, digest] : checks.seen()) {
      pins << opt.workload << " " << label << " " << digest << "\n";
    }
  }

  for (const auto& [m, v] : metrics) {
    std::cout << "  " << m.name << " = " << number(v) << " " << m.unit
              << "\n";
  }
  const double fail_ratio =
      checks.attempted() > 0
          ? static_cast<double>(checks.failed()) / checks.attempted()
          : 1.0;
  std::cout << "  run_fail_ratio = " << number(fail_ratio) << " ratio ("
            << checks.failed() << " of " << checks.attempted()
            << " simulated runs failed)\n";

  std::string json = std::string("{\"correct\": ") +
                     (checks.failed() == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(checks.attempted()) +
                     ", \"failed\": " + std::to_string(checks.failed()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [m, v] = metrics[i];
    json += (i ? ", \"" : "\"") + std::string(m.name) + "\": {\"value\": " +
            number(v) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << json << "}}\n";
  return checks.failed() == 0 ? 0 : 1;
}
