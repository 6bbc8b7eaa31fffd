// End-to-end tests of the observability layer: protocol probes (observed
// staleness, PS load, network accounting) and the metric/trace/time-series
// output files, driven through real training runs, plus the network's flow
// recording driven directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "core/trainer.hpp"
#include "faults/faults.hpp"
#include "metrics/metrics.hpp"
#include "metrics/registry.hpp"
#include "metrics/span_sink.hpp"
#include "metrics/trace.hpp"
#include "net/network.hpp"
#include "runtime/sim.hpp"

namespace dt {
namespace {

core::TrainConfig small_config(core::Algo algo, int workers,
                               std::int64_t iters) {
  core::TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = workers;
  cfg.iterations = iters;
  cfg.opt.ps_shards_per_machine = 1;
  return cfg;
}

metrics::RunResult run_small(const core::TrainConfig& cfg) {
  cost::ModelProfile profile = cost::uniform_profile("u", 4, 100'000, 1e9);
  core::Workload wl = core::make_cost_workload(profile, 32);
  core::TrainConfig copy = cfg;
  return core::run_training(copy, wl);
}

TEST(StalenessProbe, BspGradientsAreNeverStale) {
  auto result = run_small(small_config(core::Algo::bsp, 4, 6));
  const metrics::MetricValue* h =
      result.metrics.find("staleness.updates",
                          {{"algo", core::algo_name(core::Algo::bsp)}});
  ASSERT_NE(h, nullptr);
  // Non-empty distribution, entirely at zero: every BSP gradient is applied
  // against exactly the version it was computed on.
  EXPECT_GT(h->count, 0u);
  EXPECT_DOUBLE_EQ(h->min, 0.0);
  EXPECT_DOUBLE_EQ(h->max, 0.0);
}

TEST(StalenessProbe, AspGradientsGoStale) {
  auto result = run_small(small_config(core::Algo::asp, 4, 6));
  const metrics::MetricValue* h =
      result.metrics.find("staleness.updates",
                          {{"algo", core::algo_name(core::Algo::asp)}});
  ASSERT_NE(h, nullptr);
  EXPECT_GT(h->count, 0u);
  // With 4 workers racing on one PS, other workers' applies land between a
  // worker's pull and its push: staleness must exceed zero.
  EXPECT_GT(h->max, 0.0);
}

TEST(StalenessProbe, SspLocalStalenessRespectsBound) {
  core::TrainConfig cfg = small_config(core::Algo::ssp, 4, 16);
  cfg.ssp_staleness = 3;
  auto result = run_small(cfg);
  const auto series = result.metrics.all("ssp.local_staleness");
  ASSERT_EQ(series.size(), 4u);  // one histogram per worker
  for (const metrics::MetricValue* h : series) {
    EXPECT_GT(h->count, 0u);
    // The at-most-s-ahead bound admits values 0..s+1: the s+1 observation
    // is the iteration that triggers the global sync (see SspWorker in
    // src/core/algo_centralized.cpp).
    EXPECT_LE(h->max, 4.0);
  }
}

TEST(StalenessProbe, DsspBoundStaysWithinConfiguredRange) {
  core::TrainConfig cfg = small_config(core::Algo::dssp, 4, 24);
  cfg.dssp_s_min = 1;
  cfg.dssp_s_max = 5;
  auto result = run_small(cfg);
  const auto bounds = result.metrics.all("dssp.bound");
  ASSERT_EQ(bounds.size(), 4u);  // one histogram per worker
  for (const metrics::MetricValue* h : bounds) {
    EXPECT_GT(h->count, 0u);
    EXPECT_GE(h->min, 1.0);
    EXPECT_LE(h->max, 5.0);
  }
  // Local staleness stays within the granted bound + 1 (sync trigger).
  const auto series = result.metrics.all("ssp.local_staleness");
  ASSERT_EQ(series.size(), 4u);
  for (const metrics::MetricValue* h : series) {
    EXPECT_LE(h->max, 6.0);
  }
}

TEST(NetworkProbes, AgreeWithNetworkStats) {
  auto result = run_small(small_config(core::Algo::asp, 4, 4));
  const auto& snap = result.metrics;
  EXPECT_DOUBLE_EQ(snap.total("net.bytes_total"),
                   static_cast<double>(result.wire_bytes));
  EXPECT_DOUBLE_EQ(snap.total("net.messages_total"),
                   static_cast<double>(result.wire_messages));
  EXPECT_DOUBLE_EQ(snap.value("net.bytes_total", {{"scope", "inter"}}),
                   static_cast<double>(result.inter_machine_bytes));
  // All messages were drained by the end of the run.
  EXPECT_DOUBLE_EQ(snap.value("net.in_flight"), 0.0);
  // Per-link busy-time counters exist and accumulated something.
  EXPECT_GT(snap.total("net.link_busy_s"), 0.0);
}

TEST(WorkerProbes, CountersMatchRunTotals) {
  auto result = run_small(small_config(core::Algo::bsp, 4, 5));
  const auto& snap = result.metrics;
  EXPECT_DOUBLE_EQ(snap.total("worker.iterations_total"),
                   static_cast<double>(result.total_iterations));
  EXPECT_DOUBLE_EQ(snap.total("worker.samples_total"),
                   static_cast<double>(result.total_samples));
  EXPECT_GT(snap.total("ps.requests_total"), 0.0);
  EXPECT_GT(snap.total("ps.bytes_served_total"), 0.0);
}

TEST(ObservabilityOutputs, WritesAllConfiguredFiles) {
  const std::string jsonl = "/tmp/dtrainlib_obs_test.jsonl";
  const std::string csv = "/tmp/dtrainlib_obs_test.csv";
  const std::string trace = "/tmp/dtrainlib_obs_test.trace.json";
  std::remove(jsonl.c_str());
  std::remove(csv.c_str());
  std::remove(trace.c_str());

  core::TrainConfig cfg = small_config(core::Algo::asp, 4, 4);
  cfg.metrics_jsonl = jsonl;
  cfg.timeseries_csv = csv;
  cfg.trace_path = trace;
  cfg.sample_period = 0.005;
  run_small(cfg);

  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string jsonl_text = slurp(jsonl);
  EXPECT_NE(jsonl_text.find("staleness.updates"), std::string::npos);
  EXPECT_NE(jsonl_text.find(R"("kind":"histogram")"), std::string::npos);
  EXPECT_NE(jsonl_text.find("net.bytes_total"), std::string::npos);

  const std::string csv_text = slurp(csv);
  EXPECT_NE(csv_text.find("time,"), std::string::npos);
  EXPECT_NE(csv_text.find("worker.iterations_total"), std::string::npos);
  // Header plus at least the end-of-run sample row.
  EXPECT_GE(std::count(csv_text.begin(), csv_text.end(), '\n'), 2);

  const std::string trace_text = slurp(trace);
  EXPECT_NE(trace_text.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(trace_text.find(R"("ph":"C")"), std::string::npos);  // counters
  EXPECT_NE(trace_text.find(R"("ph":"s")"), std::string::npos);  // flows
  EXPECT_NE(trace_text.find(R"("ph":"f")"), std::string::npos);

  std::remove(jsonl.c_str());
  std::remove(csv.c_str());
  std::remove(trace.c_str());
}

TEST(ObservabilityOutputs, SyncProbesCoverEveryAlgorithm) {
  for (core::Algo algo :
       {core::Algo::bsp, core::Algo::asp, core::Algo::ssp, core::Algo::easgd,
        core::Algo::arsgd, core::Algo::adpsgd, core::Algo::dpsgd}) {
    core::TrainConfig cfg = small_config(algo, 4, 6);
    cfg.easgd_tau = 2;
    cfg.ssp_staleness = 2;
    auto result = run_small(cfg);
    const metrics::MetricValue* h = result.metrics.find(
        "sync.window_s", {{"algo", core::algo_name(algo)}});
    ASSERT_NE(h, nullptr) << core::algo_name(algo);
    EXPECT_GT(h->count, 0u) << core::algo_name(algo);
  }
}

// ---------------------------------------------------------------------------
// Network flow recording (SimEngine + Network directly)
// ---------------------------------------------------------------------------

/// One traffic operation of run_flows, by its endpoints' names.
struct FlowOp {
  std::string src;
  std::string dst;
  bool transfer = false;  // a recovery pull (Network::transfer)
};

/// A trace and the edge log its flows expand from.
struct FlowLogs {
  metrics::TraceLog trace;
  metrics::EdgeLog edges;
};

/// What run_flows drove: each operation keyed by its send time, and the
/// endpoint names by id.
struct FlowRun {
  std::map<double, FlowOp> ops;
  std::vector<std::string> endpoints;
};

/// Sends messages among two named and one unnamed endpoint on a lossy,
/// duplicating two-machine network, with a recovery transfer every ninth
/// operation, and records them on `first` — on `second` from operation
/// `switch_at` on. Every operation starts at its own virtual time.
FlowRun run_flows(FlowLogs& first, FlowLogs* second, int switch_at,
                  metrics::MetricRegistry& registry) {
  net::ClusterSpec spec;
  spec.num_machines = 2;
  spec.send_overhead = 0.0;
  faults::FaultConfig fc;
  fc.msg.loss_prob = 0.2;
  fc.msg.dup_prob = 0.2;
  const faults::FaultPlan plan(fc, 3, 2);
  runtime::SimEngine engine;
  net::Network netw(engine, spec);
  netw.set_faults(&plan);
  netw.set_metrics(&registry);
  netw.set_edges(&first.edges);
  netw.set_trace(&first.trace);
  const int eps[] = {netw.add_endpoint(0, "ps0"),
                     netw.add_endpoint(1, "worker0"), netw.add_endpoint(1)};
  FlowRun run;
  engine.spawn("driver", [&](runtime::Process& self) {
    for (int i = 0; i < 90; ++i) {
      if (i == switch_at) {
        netw.set_edges(&second->edges);
        netw.set_trace(&second->trace);
      }
      self.advance(1e-3);
      const int src = eps[i % 3];
      const int dst = eps[(i + 1 + i / 3 % 2) % 3];
      const bool transfer = i % 9 == 8;
      run.ops[self.now()] = {netw.endpoint_name(src), netw.endpoint_name(dst),
                             transfer};
      if (transfer) {
        netw.transfer(self, src, dst, 4096);
      } else {
        net::Packet p;
        p.wire_bytes = 1000;
        netw.send(self, src, dst, std::move(p));
      }
    }
  });
  engine.run();
  for (const int ep : eps) run.endpoints.push_back(netw.endpoint_name(ep));
  return run;
}

/// How many flows of each sort string_recording saw.
struct FlowCounts {
  int lost = 0;
  int recovered = 0;
  int duplicated = 0;  // operations delivered twice
  int total = 0;
};

/// The flows of `logs` recorded again through the string API, ids from 1,
/// in the order they were sent: per operation its lost flow, or its
/// one or two (duplicated) deliveries in edge order, named from the
/// sender's own record of the operation.
metrics::TraceLog string_recording(const FlowLogs& logs, const FlowRun& run,
                                   FlowCounts& counts) {
  std::map<double, std::vector<std::pair<double, bool>>> by_op;
  for (const metrics::TraceLog::LostFlow& f : logs.trace.lost_flows()) {
    by_op[f.sent].emplace_back(f.arrival, true);
  }
  for (const metrics::MessageEdge& e : logs.edges) {
    by_op[e.sent].emplace_back(e.arrival, false);
  }
  metrics::TraceLog want;
  std::uint64_t id = 0;
  for (const auto& [sent, flows] : by_op) {
    const FlowOp& op = run.ops.at(sent);
    for (const auto& [arrival, lost] : flows) {
      const std::string prefix =
          lost ? "lost " : (op.transfer ? "recover " : "");
      want.flow(op.src, op.dst, prefix + op.src + "->" + op.dst, sent,
                arrival, ++id);
      counts.lost += lost ? 1 : 0;
      counts.recovered += op.transfer ? 1 : 0;
    }
    counts.duplicated += flows.size() == 2 ? 1 : 0;
  }
  counts.total = static_cast<int>(id);
  return want;
}

std::string chrome_json(const metrics::TraceLog& trace) {
  std::ostringstream os;
  trace.write_chrome_json(os);
  return os.str();
}

/// The Chrome JSON of `logs`, the flows expanded from its edge log onto
/// the tracks of `run`'s endpoints.
std::string expanded_json(FlowLogs& logs, const FlowRun& run) {
  std::vector<metrics::TraceLog::Id> tracks;
  for (const std::string& name : run.endpoints) {
    tracks.push_back(logs.trace.intern(name));
  }
  std::ostringstream os;
  logs.trace.write_chrome_json(os, nullptr, {&logs.edges, &tracks});
  return os.str();
}

TEST(FlowTrace, EdgeLogFlowsMatchStringRecording) {
  FlowLogs got;
  metrics::MetricRegistry registry;
  const FlowRun run = run_flows(got, nullptr, -1, registry);

  FlowCounts counts;
  const metrics::TraceLog want = string_recording(got, run, counts);
  const std::string json = expanded_json(got, run);
  EXPECT_EQ(json, chrome_json(want));

  // All three flow kinds and duplicates occurred, and every message on the
  // wire has exactly one flow pair.
  EXPECT_GT(counts.lost, 0);
  EXPECT_EQ(counts.recovered, 10);
  EXPECT_GT(counts.duplicated, 0);
  EXPECT_EQ(static_cast<double>(counts.lost),
            registry.counter("net.lost_total").value());
  const double messages = registry.snapshot().total("net.messages_total");
  EXPECT_EQ(static_cast<double>(counts.total), messages);
  std::size_t starts = 0;
  for (std::size_t at = 0; (at = json.find(R"("ph":"s")", at)) !=
                           std::string::npos;
       ++at) {
    ++starts;
  }
  EXPECT_EQ(static_cast<double>(starts), messages);
}

TEST(FlowTrace, ReattachedLogsCarryNothingOver) {
  // The second logs start empty after the first already hold flows: their
  // lost flows must be placed among their own edges, and their ids and
  // tracks must start afresh.
  FlowLogs first;
  FlowLogs second;
  metrics::MetricRegistry registry;
  const FlowRun run = run_flows(first, &second, 45, registry);
  ASSERT_FALSE(first.edges.empty());
  ASSERT_FALSE(second.edges.empty());
  ASSERT_FALSE(second.trace.lost_flows().empty());
  EXPECT_LT(first.edges.back().sent, second.edges.front().sent);
  int total = 0;
  for (FlowLogs* logs : {&first, &second}) {
    FlowCounts counts;
    const metrics::TraceLog want = string_recording(*logs, run, counts);
    EXPECT_EQ(expanded_json(*logs, run), chrome_json(want));
    total += counts.total;
  }
  EXPECT_EQ(static_cast<double>(total),
            registry.snapshot().total("net.messages_total"));
}

}  // namespace
}  // namespace dt
