// The four benchmark workloads: each builds its inputs from the seed, runs
// a timed repetition (setup_s + run_s) with tracing off, and a traced pass
// that fills the per-layer metrics. Every simulated run goes through
// Checks under a stable label.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "core/experiment.hpp"
#include "core/session.hpp"
#include "profile/critical_path.hpp"

namespace dtbench {

namespace fs = std::filesystem;
using dt::common::IniConfig;

dt::common::IniConfig cost_ini(const std::string& algorithm, int workers,
                               int iterations, std::uint64_t seed) {
  IniConfig ini;
  ini.set("experiment", "algorithm", algorithm);
  ini.set("experiment", "mode", "throughput");
  ini.set("experiment", "workers", std::to_string(workers));
  ini.set("experiment", "iterations", std::to_string(iterations));
  ini.set("experiment", "seed", std::to_string(seed));
  ini.set("workload", "model", "vgg16");
  return ini;
}

dt::common::IniConfig functional_ini(const std::string& algorithm,
                                     int workers, std::uint64_t seed) {
  IniConfig ini;
  ini.set("experiment", "algorithm", algorithm);
  ini.set("experiment", "mode", "functional");
  ini.set("experiment", "workers", std::to_string(workers));
  ini.set("experiment", "epochs", "20");
  ini.set("experiment", "seed", std::to_string(seed));
  ini.set("workload", "model", "resnet50");
  return ini;
}

dt::common::IniConfig campaign_ini(const std::vector<int>& workers,
                                   std::uint64_t seed, int runner_threads,
                                   const std::string& cache_dir) {
  IniConfig ini = cost_ini("bsp", 4, kCostIterations, seed);
  ini.set("optimizations", "wait_free_bp", "false");
  ini.set("campaign", "name", "campaign-sweep");
  ini.set("campaign", "runner_threads", std::to_string(runner_threads));
  ini.set("campaign", "cache_dir", cache_dir);
  std::string axis;
  for (int w : workers) axis += (axis.empty() ? "" : ", ") + std::to_string(w);
  ini.set("campaign", "axis.workers", axis);
  // The lossy columns are the only traffic through net::ReliableTransport.
  // reorder_window is explicit: FaultPlan rejects reorder_prob > 0 without
  // one, and its default is 0 whatever `dtrain --template` says.
  const std::string lossy =
      " loss_prob=0.01 dup_prob=0.01 reorder_prob=0.01 reorder_window=0.002"
      " replicate_ps=true";
  const std::vector<std::pair<std::string, std::string>> columns = {
      {"bsp", "algorithm=bsp"},
      {"asp", "algorithm=asp"},
      {"ssp-s3", "algorithm=ssp ssp_staleness=3"},
      {"dssp", "algorithm=dssp"},
      {"easgd", "algorithm=easgd"},
      {"arsgd", "algorithm=arsgd"},
      {"gosgd", "algorithm=gosgd"},
      {"adpsgd", "algorithm=adpsgd"},
      {"dpsgd", "algorithm=dpsgd"},
      {"fsdp-s3", "algorithm=fsdp zero_stage=3"},
      {"bsp-lossy", "algorithm=bsp" + lossy},
      {"asp-lossy", "algorithm=asp" + lossy},
      {"ssp-s3-lossy", "algorithm=ssp ssp_staleness=3" + lossy},
      {"easgd-lossy", "algorithm=easgd" + lossy},
  };
  std::string labels;
  for (const auto& [label, overrides] : columns) {
    labels += (labels.empty() ? "" : ", ") + label;
    ini.set("campaign", "value.column." + label, overrides);
  }
  ini.set("campaign", "axis.column", labels);
  return ini;
}

namespace {

// The timed pass runs on one host thread: one compute thread per session
// and one campaign runner. On a shared host the wall time of parallel work
// depends on when each thread gets a CPU: on a shared 4-vCPU VM, 16-worker
// BSP at 4 compute threads read 0.59-1.41 s over 8 runs where 1 thread
// read 1.01-1.10 s, and the campaign's run_s spread over 10 seeds was 11%
// at 4 runner threads and 4% at 1. The traced pass runs the parallel
// versions (kPerWorker compute threads, every host thread as runners),
// which makes it the N side of the 1-vs-N byte-identity checks;
// runtime.offload_* and campaign.cold_s measure the parallelism there.
constexpr int kTimedThreads = 1;
// One compute thread per worker, up to the process's CPU set.
constexpr int kPerWorker = 0;

// Each timed repetition sets up at least kMinSetups times and for at least
// kSetupSeconds, and reports the median, so that set-up times of well under
// a millisecond still read steadily.
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupSeconds = 0.02;

[[nodiscard]] bool more_setups(const std::vector<double>& samples,
                               Clock::time_point t0) {
  return samples.size() < kMinSetups || seconds_since(t0) < kSetupSeconds;
}

/// A Session with everything it refers to, built in the setup phase.
struct Prepared {
  std::string label;
  dt::core::ExperimentSpec spec;
  std::unique_ptr<dt::core::Workload> wl;
  std::unique_ptr<dt::core::Session> session;
};

/// Host-time split of one Session run, for the traced pass.
struct RunTimes {
  double make_workload_s = 0.0;
  double session_ctor_s = 0.0;
};

std::optional<Prepared> prepare(Ctx& ctx, const std::string& label,
                                const IniConfig& ini, int compute_threads,
                                bool profile, RunTimes* times = nullptr) {
  try {
    Prepared p;
    p.label = label;
    {
      Spans::Scope s(ctx.spans, "core.from_ini");
      p.spec = dt::core::ExperimentSpec::from_ini(ini);
    }
    // A single worker has nothing to overlap its numerics with, and at more
    // threads it pays a host thread handoff per step (runtime.offload_1w_x).
    p.spec.config.compute_threads =
        compute_threads != kPerWorker
            ? compute_threads
            : std::min(ctx.opt.threads, p.spec.config.num_workers);
    if (profile) p.spec.config.profile = true;
    auto t0 = Clock::now();
    {
      Spans::Scope s(ctx.spans, "core.make_workload");
      p.wl = std::make_unique<dt::core::Workload>(p.spec.make_workload());
    }
    if (times != nullptr) times->make_workload_s = seconds_since(t0);
    t0 = Clock::now();
    {
      Spans::Scope s(ctx.spans, "core.session_ctor");
      p.session = std::make_unique<dt::core::Session>(p.spec.config, *p.wl);
    }
    if (times != nullptr) times->session_ctor_s = seconds_since(t0);
    return p;
  } catch (const std::exception& e) {
    ctx.checks.threw(label, e.what());
    return std::nullopt;
  }
}

/// Runs a prepared Session, checks its outputs, and returns the result
/// with the wall time of Session::run().
std::optional<dt::metrics::RunResult> run(Ctx& ctx, Prepared& p,
                                          double& wall_s) {
  try {
    const auto t0 = Clock::now();
    dt::metrics::RunResult r;
    {
      Spans::Scope s(ctx.spans, "core.session_run");
      r = p.session->run();
    }
    wall_s = seconds_since(t0);
    std::string problem;
    if (!p.spec.functional) {
      const std::int64_t want = static_cast<std::int64_t>(r.num_workers) *
                                p.spec.config.iterations;
      if (r.total_iterations != want) {
        problem = "total_iterations " + std::to_string(r.total_iterations) +
                  " != workers x iterations " + std::to_string(want);
      }
    }
    ctx.checks.record(p.label, canonical(r, *p.wl), problem);
    return r;
  } catch (const std::exception& e) {
    ctx.checks.threw(p.label, e.what());
    return std::nullopt;
  }
}

struct Job {
  std::string label;
  IniConfig ini;
};

/// One timed repetition over Session jobs: every job is set up before the
/// first run call, then run in order.
Rep timed_sessions(Ctx& ctx, const std::vector<Job>& jobs) {
  Rep rep;
  std::vector<Prepared> prepared;
  std::vector<double> setups;
  const auto start = Clock::now();
  bool ok = true;
  while (ok && more_setups(setups, start)) {
    prepared.clear();
    const auto t0 = Clock::now();
    for (const Job& j : jobs) {
      auto p = prepare(ctx, j.label, j.ini, kTimedThreads, false);
      if (!p) {
        ok = false;
        break;
      }
      prepared.push_back(std::move(*p));
    }
    setups.push_back(seconds_since(t0));
  }
  rep.setup_s = quantile(setups, 0.5);
  for (Prepared& p : prepared) {
    double wall = 0.0;
    (void)run(ctx, p, wall);
    rep.run_s += wall;
  }
  return rep;
}

/// Per-layer sums over the Session runs of a traced pass.
struct Sums {
  double engine_s = 0.0;
  double events = 0.0;
  double messages = 0.0;
  double ps_requests = 0.0;
  double make_workload_s = 0.0;
  double session_ctor_s = 0.0;
  double post_run_s = 0.0;
  double analyze_ms = 0.0;
  double run_s = 0.0;
  double iterations = 0.0;

  Sums& operator+=(const Sums& o) {
    engine_s += o.engine_s;
    events += o.events;
    messages += o.messages;
    ps_requests += o.ps_requests;
    make_workload_s += o.make_workload_s;
    session_ctor_s += o.session_ctor_s;
    post_run_s += o.post_run_s;
    analyze_ms += o.analyze_ms;
    run_s += o.run_s;
    iterations += o.iterations;
    return *this;
  }
};

double per_iteration_us(const Sums& s) {
  return s.iterations > 0 ? 1e6 * s.run_s / s.iterations : 0.0;
}

/// Runs one job through Session for the traced pass: one compute thread per
/// worker up to the CPU set (the timed pass uses one) and the profiler on
/// unless `profile` is false. Adds the run to `sums`.
void traced_run(Ctx& ctx, const Job& job, Sums& sums, bool profile = true) {
  RunTimes t;
  auto p = prepare(ctx, job.label, job.ini, kPerWorker, profile, &t);
  if (!p) return;
  double wall = 0.0;
  auto r = run(ctx, *p, wall);
  if (!r) return;
  sums.engine_s += r->host_wall_s;
  sums.events += static_cast<double>(r->sim_events);
  sums.messages += static_cast<double>(r->wire_messages);
  sums.ps_requests += r->metrics.total("ps.requests_total");
  sums.make_workload_s += t.make_workload_s;
  sums.session_ctor_s += t.session_ctor_s;
  sums.post_run_s += wall - r->host_wall_s;
  sums.run_s += wall;
  sums.iterations += static_cast<double>(r->total_iterations);
  if (const dt::profile::SpanLog* log = p->session->spans()) {
    const auto t0 = Clock::now();
    {
      Spans::Scope s(ctx.spans, "profile.analyze");
      (void)dt::profile::analyze(
          *log, r->virtual_duration, r->num_workers,
          p->wl->functional() ? p->wl->iterations_per_epoch() : 0);
    }
    sums.analyze_ms += 1e3 * seconds_since(t0);
  }
}

void put_sums(const Sums& s, Layers& out) {
  out["runtime.engine_s"] = s.engine_s;
  out["runtime.events"] = s.events;
  out["runtime.ns_per_event"] = s.events > 0 ? 1e9 * s.engine_s / s.events : 0;
  out["net.messages"] = s.messages;
  out["ps.requests"] = s.ps_requests;
  out["core.make_workload_s"] = s.make_workload_s;
  out["core.session_ctor_s"] = s.session_ctor_s;
  out["core.post_run_s"] = s.post_run_s;
  out["profile.analyze_ms"] = s.analyze_ms;
  out["core.iter_host_us"] = per_iteration_us(s);
}

/// core.iter_host_us_1w for cost-only workloads: the same task on one
/// worker (BSP, VGG-16, same iterations).
void single_worker_baseline(Ctx& ctx, Layers& out) {
  Sums s;
  traced_run(
      ctx, {"bsp1-baseline", cost_ini("bsp", 1, kCostIterations, ctx.opt.seed)},
      s);
  out["core.iter_host_us_1w"] = per_iteration_us(s);
}

// ---- functional-train ------------------------------------------------------

std::vector<Job> functional_jobs(std::uint64_t seed) {
  return {{"bsp16", functional_ini("bsp", 16, seed)},
          {"adpsgd16", functional_ini("adpsgd", 16, seed)},
          {"bsp1", functional_ini("bsp", 1, seed)}};
}

Rep functional_rep(Ctx& ctx) {
  return timed_sessions(ctx, functional_jobs(ctx.opt.seed));
}

double functional_traced(Ctx& ctx, Layers& out) {
  const std::vector<Job> jobs = functional_jobs(ctx.opt.seed);
  Sums all, bsp16, bsp1;
  traced_run(ctx, jobs[0], bsp16);
  traced_run(ctx, jobs[1], all);
  traced_run(ctx, jobs[2], bsp1);
  all += bsp16;
  all += bsp1;
  put_sums(all, out);
  // Both sides train the same 20 epochs, so the iteration counts match.
  out["core.iter_host_us"] = per_iteration_us(bsp16);
  out["core.iter_host_us_1w"] = per_iteration_us(bsp1);

  // Engine time of a BSP run, observers off, at one compute thread and at
  // every host thread: runtime.offload_speedup is the 16-worker ratio,
  // runtime.offload_1w_x the 1-worker one inverted (offload overhead).
  auto engine_s = [&](const Job& job, int threads) {
    auto p = prepare(ctx, job.label, job.ini, threads, false);
    double wall = 0.0;
    auto r = p ? run(ctx, *p, wall) : std::nullopt;
    return r ? r->host_wall_s : 0.0;
  };
  const double bsp16_serial = engine_s(jobs[0], 1);
  const double bsp16_parallel = engine_s(jobs[0], ctx.opt.threads);
  const double bsp1_serial = engine_s(jobs[2], 1);
  const double bsp1_parallel = engine_s(jobs[2], ctx.opt.threads);
  out["runtime.offload_speedup"] =
      bsp16_parallel > 0 ? bsp16_serial / bsp16_parallel : 0.0;
  out["runtime.offload_1w_x"] =
      bsp1_serial > 0 ? bsp1_parallel / bsp1_serial : 0.0;
  return all.run_s;
}

// ---- ring-large-n ----------------------------------------------------------

Job ring_job(std::uint64_t seed) {
  return {"arsgd256", cost_ini("arsgd", 256, kCostIterations, seed)};
}

Rep ring_rep(Ctx& ctx) { return timed_sessions(ctx, {ring_job(ctx.opt.seed)}); }

double ring_traced(Ctx& ctx, Layers& out) {
  Sums s;
  traced_run(ctx, ring_job(ctx.opt.seed), s);
  put_sums(s, out);
  single_worker_baseline(ctx, out);
  return s.run_s;
}

// ---- observed-ps -----------------------------------------------------------

Job observed_job(const Ctx& ctx) {
  Job j{"bsp256", cost_ini("bsp", 256, kCostIterations, ctx.opt.seed)};
  const std::string dir = ctx.scratch + "/observed";
  j.ini.set("output", "trace", dir + "/run.trace.json");
  j.ini.set("output", "metrics_jsonl", dir + "/run.jsonl");
  j.ini.set("output", "timeseries_csv", dir + "/run.csv");
  j.ini.set("output", "profile", "true");
  return j;
}

/// Bytes the observers wrote; removes their directory.
double take_outputs(const Ctx& ctx) {
  const fs::path dir = fs::path(ctx.scratch) / "observed";
  double bytes = 0.0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    bytes += static_cast<double>(e.file_size(ec));
  }
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return bytes;
}

Rep observed_rep(Ctx& ctx) {
  (void)take_outputs(ctx);
  Rep rep = timed_sessions(ctx, {observed_job(ctx)});
  (void)take_outputs(ctx);
  return rep;
}

double observed_traced(Ctx& ctx, Layers& out) {
  (void)take_outputs(ctx);
  Sums s;
  traced_run(ctx, observed_job(ctx), s);
  put_sums(s, out);
  out["metrics.output_mb"] = take_outputs(ctx) / (1024.0 * 1024.0);

  // metrics.observer_overhead_x: the same run with every [output] off. Its
  // outputs must equal the observed run's (observers are observational).
  Job quiet = observed_job(ctx);
  quiet.ini.erase_section("output");
  Sums quiet_sums;
  traced_run(ctx, quiet, quiet_sums, false);
  out["metrics.observer_overhead_x"] =
      quiet_sums.run_s > 0 ? s.run_s / quiet_sums.run_s : 0.0;
  single_worker_baseline(ctx, out);
  return s.run_s;
}

// ---- campaign-sweep --------------------------------------------------------

const std::vector<int> kSweepWorkers = {4, 8, 16, 24};

/// Checks and records every record of one campaign pass.
void record_pass(Ctx& ctx, const dt::campaign::CampaignResult& res,
                 bool warm) {
  for (std::size_t i = 0; i < res.records.size(); ++i) {
    const auto& rec = res.records[i];
    std::string problem;
    if (rec.from_cache != warm) {
      problem = warm ? "warm pass executed the run" : "cold pass hit the cache";
    } else if (rec.total_iterations !=
               static_cast<std::int64_t>(rec.workers) * kCostIterations) {
      problem = "total_iterations " + std::to_string(rec.total_iterations) +
                " != workers x iterations";
    }
    ctx.checks.record("cell:" + res.runs[i].cell_key(), rec.serialize(),
                      problem);
  }
}

struct Passes {
  Rep rep;
  double cold_s = 0.0;
  double warm_s = 0.0;
  double hit_ratio = 0.0;
};

/// Cold pass on an empty cache, then a warm pass in the same process, on
/// `runner_threads` parallel runs.
Passes campaign_passes(Ctx& ctx, const std::vector<int>& workers,
                       int runner_threads) {
  Passes out;
  const std::string cache = ctx.scratch + "/campaign-cache";
  std::error_code ec;
  fs::remove_all(cache, ec);
  const IniConfig ini =
      campaign_ini(workers, ctx.opt.seed, runner_threads, cache);
  try {
    dt::campaign::CampaignSpec spec;
    std::vector<double> setups;
    const auto start = Clock::now();
    while (more_setups(setups, start)) {
      const auto t0 = Clock::now();
      {
        Spans::Scope s(ctx.spans, "campaign.from_ini");
        spec = dt::campaign::CampaignSpec::from_ini(ini);
      }
      {
        Spans::Scope s(ctx.spans, "campaign.expand");
        (void)spec.expand();
      }
      setups.push_back(seconds_since(t0));
    }
    out.rep.setup_s = quantile(setups, 0.5);
    for (bool warm : {false, true}) {
      auto t1 = Clock::now();
      dt::campaign::CampaignResult res;
      {
        Spans::Scope s(ctx.spans,
                       warm ? "campaign.run_warm" : "campaign.run_cold");
        res = dt::campaign::run_campaign(spec);
      }
      const double wall = seconds_since(t1);
      out.rep.run_s += wall;
      (warm ? out.warm_s : out.cold_s) = wall;
      if (warm && !res.runs.empty()) {
        out.hit_ratio = static_cast<double>(res.cache_hits) /
                        static_cast<double>(res.runs.size());
      }
      record_pass(ctx, res, warm);
    }
  } catch (const std::exception& e) {
    ctx.checks.threw("campaign", e.what());
  }
  fs::remove_all(cache, ec);
  return out;
}

void put_passes(const Passes& p, Layers& out) {
  out["campaign.cold_s"] = p.cold_s;
  out["campaign.warm_s"] = p.warm_s;
  out["campaign.hit_ratio"] = p.hit_ratio;
}

Rep campaign_rep(Ctx& ctx) {
  return campaign_passes(ctx, kSweepWorkers, kTimedThreads).rep;
}

double campaign_traced(Ctx& ctx, Layers& out) {
  const Passes p = campaign_passes(ctx, kSweepWorkers, ctx.opt.threads);
  put_passes(p, out);
  // Session-level layers: the 4-worker row driven through Session, since
  // run_campaign exposes records, not RunResults.
  Sums s;
  const auto row = dt::campaign::CampaignSpec::from_ini(
                       campaign_ini({4}, ctx.opt.seed, 1, ""))
                       .expand();
  for (const auto& run : row) {
    traced_run(ctx, {"row:" + run.cell_key(), run.resolved}, s);
  }
  put_sums(s, out);
  single_worker_baseline(ctx, out);
  return p.rep.run_s;
}

}  // namespace

void probe_lossy(Ctx& ctx, Layers& out) {
  // The bsp-lossy column's cell at 4 workers (campaign_ini's overrides).
  Job job{"lossy-probe", cost_ini("bsp", 4, kCostIterations, ctx.opt.seed)};
  job.ini.set("optimizations", "wait_free_bp", "false");
  job.ini.set("failures", "loss_prob", "0.01");
  job.ini.set("failures", "dup_prob", "0.01");
  job.ini.set("failures", "reorder_prob", "0.01");
  job.ini.set("failures", "reorder_window", "0.002");
  job.ini.set("reliability", "replicate_ps", "true");
  auto p = prepare(ctx, job.label, job.ini, kPerWorker, false);
  double wall = 0.0;
  auto r = p ? run(ctx, *p, wall) : std::nullopt;
  const double messages = r ? r->metrics.total("net.messages_total") : 0.0;
  out["net.retransmit_ratio"] =
      messages > 0 ? r->metrics.total("net.retransmits_total") / messages
                   : 0.0;
}

void probe_campaign_row(Ctx& ctx, Layers& out) {
  put_passes(campaign_passes(ctx, {4}, ctx.opt.threads), out);
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"functional-train",
       "real SGD on the teacher-student MLP: BSP and AD-PSGD at 16 workers "
       "plus the 1-worker baseline; tensor GEMM, nn and compute offload",
       functional_rep, functional_traced},
      {"ring-large-n",
       "cost-only AR-SGD, VGG-16, 256 workers: O(N^2) ring packets through "
       "engine dispatch and the network model, no numerics",
       ring_rep, ring_traced},
      {"campaign-sweep",
       "14 protocol columns x 4/8/16/24 workers, cold then warm cache: "
       "campaign runner, cache, per-run setup, profiler, reliable transport",
       campaign_rep, campaign_traced},
      {"observed-ps",
       "cost-only BSP, VGG-16, 256 workers with trace, JSONL, CSV and "
       "profiler on: the observers and the large-N PS path",
       observed_rep, observed_traced},
  };
  return defs;
}

}  // namespace dtbench
