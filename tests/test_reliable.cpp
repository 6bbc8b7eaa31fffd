// Tests for the reliable transport and PS-shard failover: ARQ
// exactly-once delivery over a lossy/duplicating/reordering network, the
// hand-computable retransmit/backoff schedule, deadline receives, PS-crash →
// backup promotion with bitwise-identical parameters, the A/B determinism
// contract for lossy + failover runs, and the strict `[failures]` /
// `[reliability]` INI validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/ini.hpp"
#include "core/experiment.hpp"
#include "core/trainer.hpp"
#include "faults/faults.hpp"
#include "metrics/registry.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"

namespace dt::core {
namespace {

// ---------------------------------------------------------------------------
// Transport-level tests (SimEngine + Network + ReliableTransport directly)
// ---------------------------------------------------------------------------

net::ClusterSpec lossy_spec() {
  net::ClusterSpec spec;
  spec.num_machines = 2;
  spec.nic_bandwidth = 1e9;
  spec.latency = 1e-3;
  spec.send_overhead = 0.0;  // keep retransmit arithmetic exact
  return spec;
}

faults::FaultPlan lossy_plan(double loss, double dup, double reorder,
                             std::uint64_t seed = 99) {
  faults::FaultConfig fc;
  fc.msg.loss_prob = loss;
  fc.msg.dup_prob = dup;
  fc.msg.reorder_prob = reorder;
  fc.msg.reorder_window = 0.004;
  return faults::FaultPlan(fc, seed, 2);
}

TEST(ReliableTransport, ExactlyOnceInOrderUnderLossDupReorder) {
  runtime::SimEngine engine;
  net::Network netw(engine, lossy_spec());
  const faults::FaultPlan plan = lossy_plan(0.25, 0.25, 0.25);
  netw.set_faults(&plan);
  metrics::MetricRegistry registry;
  netw.set_metrics(&registry);

  net::ReliableTransport rt(netw, net::ReliableConfig{});
  rt.set_metrics(&registry);

  const int a = netw.add_endpoint(0, "tx");
  const int b = netw.add_endpoint(1, "rx");
  constexpr int kN = 40;
  std::vector<std::int64_t> got;
  engine.spawn("rx", [&](runtime::Process& self) {
    netw.bind(b, self);
    for (int i = 0; i < kN; ++i) {
      got.push_back(rt.recv(self, b).c);
    }
  });
  engine.spawn("tx", [&](runtime::Process& self) {
    netw.bind(a, self);
    for (int i = 0; i < kN; ++i) {
      net::Packet p;
      p.tag = 1;
      p.c = i;
      p.wire_bytes = 1000;
      rt.send(self, a, b, std::move(p));
    }
  });
  engine.run();

  // Exactly once, in per-source order, despite the unreliable wire.
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  }
  // The wire really was unreliable, and the protocol really repaired it.
  EXPECT_GT(registry.counter("net.lost_total").value(), 0.0);
  EXPECT_GT(registry.counter("net.retransmits_total").value(), 0.0);
  EXPECT_GT(registry.counter("net.dup_delivered_total").value(), 0.0);
}

TEST(ReliableTransport, BidirectionalSendsDoNotDeadlock) {
  // Both peers send a burst before either receives: a sender blocked on an
  // ack must keep servicing (acking + buffering) its own endpoint.
  runtime::SimEngine engine;
  net::Network netw(engine, lossy_spec());
  const faults::FaultPlan plan = lossy_plan(0.2, 0.1, 0.2, 7);
  netw.set_faults(&plan);
  net::ReliableTransport rt(netw, net::ReliableConfig{});

  const int a = netw.add_endpoint(0, "peer_a");
  const int b = netw.add_endpoint(1, "peer_b");
  constexpr int kN = 12;
  int got_a = 0, got_b = 0;
  auto peer = [&](int self_ep, int other_ep, int* got) {
    return [&, self_ep, other_ep, got](runtime::Process& self) {
      netw.bind(self_ep, self);
      for (int i = 0; i < kN; ++i) {
        net::Packet p;
        p.tag = 2;
        p.c = i;
        p.wire_bytes = 500;
        rt.send(self, self_ep, other_ep, std::move(p));
      }
      for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(rt.recv(self, self_ep).c, i);
        ++*got;
      }
      // Linger servicing the endpoint: the ack of our last delivery may
      // have been lost, and the peer's retransmission needs a re-ack.
      EXPECT_FALSE(
          rt.recv_until(self, self_ep, net::kAnyTag, self.now() + 1.0))
          << "unexpected fresh delivery while lingering";
    };
  };
  engine.spawn("peer_a", peer(a, b, &got_a));
  engine.spawn("peer_b", peer(b, a, &got_b));
  engine.run();
  EXPECT_EQ(got_a, kN);
  EXPECT_EQ(got_b, kN);
}

TEST(ReliableTransport, BackoffScheduleMatchesHandComputedVirtualTimes) {
  // Dead peer, send_overhead = 0: attempt k happens after waits
  // w_k = min(timeout * backoff^k, max_timeout). With timeout = 0.1,
  // backoff = 2, max_timeout = 0.4, max_retransmits = 3 the waits are
  // 0.1, 0.2, 0.4, 0.4 and the TimeoutError fires at exactly 1.1.
  runtime::SimEngine engine;
  net::Network netw(engine, lossy_spec());
  metrics::MetricRegistry registry;
  netw.set_metrics(&registry);
  net::ReliableConfig rc;
  rc.timeout = 0.1;
  rc.backoff = 2.0;
  rc.max_timeout = 0.4;
  rc.max_retransmits = 3;
  net::ReliableTransport rt(netw, rc);
  rt.set_metrics(&registry);

  const int a = netw.add_endpoint(0, "tx");
  const int b = netw.add_endpoint(1, "dead");
  engine.spawn("dead", [&](runtime::Process& self) {
    netw.bind(b, self);  // never receives: all data sits unacked
  });
  double threw_at = -1.0;
  engine.spawn("tx", [&](runtime::Process& self) {
    netw.bind(a, self);
    net::Packet p;
    p.tag = 1;
    p.wire_bytes = 1000;
    try {
      rt.send(self, a, b, std::move(p));
      FAIL() << "send to a dead peer returned";
    } catch (const net::TimeoutError&) {
      threw_at = self.now();
    }
  });
  engine.run();
  EXPECT_DOUBLE_EQ(threw_at, 0.1 + 0.2 + 0.4 + 0.4);
  EXPECT_EQ(registry.counter("net.retransmits_total").value(), 3.0);
}

TEST(ReliableTransport, RecvUntilReturnsNothingAtTheDeadline) {
  runtime::SimEngine engine;
  net::Network netw(engine, lossy_spec());
  net::ReliableTransport rt(netw, net::ReliableConfig{});
  const int b = netw.add_endpoint(0, "rx");
  double returned_at = -1.0;
  engine.spawn("rx", [&](runtime::Process& self) {
    netw.bind(b, self);
    EXPECT_FALSE(rt.recv_until(self, b, net::kAnyTag, 0.5))
        << "recv_until returned a message without traffic";
    returned_at = self.now();
  });
  engine.run();
  EXPECT_DOUBLE_EQ(returned_at, 0.5);
}

TEST(ReliableTransport, OutOfOrderAndDuplicateSeqsDeliverOnceInOrder) {
  // Raw packets with hand-set sequence numbers 0, 2, 1, 1, 4, 3, 0 on a
  // clean wire: the in-order fast path must never skip the gaps at 2 and
  // 4, the second 1 and the last 0 are duplicates, and every arrival —
  // duplicates included — is acked once.
  runtime::SimEngine engine;
  net::Network netw(engine, lossy_spec());
  metrics::MetricRegistry registry;
  netw.set_metrics(&registry);
  net::ReliableTransport rt(netw, net::ReliableConfig{});
  rt.set_metrics(&registry);

  const int a = netw.add_endpoint(0, "tx");
  const int b = netw.add_endpoint(1, "rx");
  const std::vector<std::int64_t> order = {0, 2, 1, 1, 4, 3, 0};
  std::vector<std::int64_t> got;
  std::vector<std::int64_t> acked;
  engine.spawn("rx", [&](runtime::Process& self) {
    netw.bind(b, self);
    for (int i = 0; i < 5; ++i) got.push_back(rt.recv(self, b).c);
    // Absorb the trailing duplicate so it is counted and acked.
    EXPECT_FALSE(rt.recv_until(self, b, net::kAnyTag, 1.0));
  });
  engine.spawn("tx", [&](runtime::Process& self) {
    netw.bind(a, self);
    for (const std::int64_t seq : order) {
      net::Packet p;
      p.tag = 1;
      p.c = seq;
      p.rel_seq = seq;
      p.wire_bytes = 1000;
      netw.send(self, a, b, std::move(p));
    }
    while (auto ack = netw.recv_until(self, a, net::kAnyTag, 2.0)) {
      EXPECT_EQ(ack->tag, net::kTagAck);
      acked.push_back(ack->a);
    }
  });
  engine.run();

  EXPECT_EQ(got, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(registry.counter("net.dup_delivered_total").value(), 2.0);
  EXPECT_EQ(acked, order);
}

// ---------------------------------------------------------------------------
// Functional runs: failover correctness and the A/B determinism contract
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

TrainConfig reliable_config(Algo algo) {
  TrainConfig cfg;
  cfg.algo = algo;
  cfg.num_workers = 4;
  cfg.epochs = 2.0;
  cfg.lr = nn::LrSchedule::paper(4, cfg.epochs, 0.02);
  cfg.cluster.workers_per_machine = 2;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.seed = 7;
  cfg.reliability.replicate_ps = true;
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

struct RunArtifacts {
  std::string metrics_jsonl;
  std::string timeseries_csv;
  std::uint64_t params = 0;
  double final_accuracy = 0.0;
  double virtual_duration = 0.0;
  double failovers = 0.0;
  std::uint64_t staleness_updates = 0;  // pushes a shard applied first-hand
  std::int64_t pushes = 0;              // workers x iterations x slots
};

RunArtifacts reliable_run(TrainConfig cfg, int threads,
                          const std::string& tag) {
  Workload wl = small_workload();
  cfg.compute_threads = threads;
  const std::string jsonl = "/tmp/dtrainlib_rel_" + tag + ".jsonl";
  const std::string csv = "/tmp/dtrainlib_rel_" + tag + ".csv";
  cfg.metrics_jsonl = jsonl;
  cfg.timeseries_csv = csv;

  auto result = run_training(cfg, wl);

  RunArtifacts out;
  out.metrics_jsonl = slurp(jsonl);
  out.timeseries_csv = slurp(csv);
  out.params = param_hash(wl, 4);
  out.final_accuracy = result.final_accuracy;
  out.virtual_duration = result.virtual_duration;
  out.failovers = result.metrics.total("ps.failovers_total");
  for (const auto* h : result.metrics.all("staleness.updates")) {
    out.staleness_updates += h->count;
  }
  out.pushes = result.total_iterations *
               static_cast<std::int64_t>(wl.num_slots());
  std::remove(jsonl.c_str());
  std::remove(csv.c_str());
  return out;
}

TEST(PsFailover, BspCrashedPrimaryParamsMatchNoCrashRun) {
  // A replicated BSP run whose shard-0 primary fail-stops mid-run must
  // produce bitwise-identical parameters to the same config without the
  // crash: transport-acked pushes are applied + mirrored before the
  // primary goes silent, the backup stages per-rank contributions
  // idempotently, and round sums are taken in canonical rank order.
  TrainConfig base = reliable_config(Algo::bsp);
  const RunArtifacts clean = reliable_run(base, 1, "bsp_clean");

  TrainConfig crashed = base;
  crashed.faults.ps_crashes = {{0, 0.4 * clean.virtual_duration}};
  const RunArtifacts failed = reliable_run(crashed, 1, "bsp_crash");

  EXPECT_EQ(failed.failovers, 1.0);
  EXPECT_EQ(clean.failovers, 0.0);
  EXPECT_EQ(failed.params, clean.params);
  EXPECT_EQ(failed.final_accuracy, clean.final_accuracy);
}

TEST(PsFailover, LossyFailoverRunABIdenticalAcrossComputeThreads) {
  // The full gauntlet — lossy wire, duplicates, reordering, a PS-shard
  // crash with failover, and an ASP local-step budget — must still be
  // byte-identical between sequential and 8-thread offloaded runs.
  TrainConfig cfg = reliable_config(Algo::asp);
  cfg.reliability.local_step_budget = 2;
  {
    TrainConfig probe = cfg;
    Workload wl = small_workload();
    const double d = run_training(probe, wl).virtual_duration;
    cfg.faults.ps_crashes = {{1, 0.5 * d}};
  }
  cfg.faults.msg.loss_prob = 0.05;
  cfg.faults.msg.dup_prob = 0.05;
  cfg.faults.msg.reorder_prob = 0.1;
  cfg.faults.msg.reorder_window = 0.002;

  const RunArtifacts seq = reliable_run(cfg, 1, "asp_t1");
  const RunArtifacts par = reliable_run(cfg, 8, "asp_t8");
  EXPECT_EQ(seq.metrics_jsonl, par.metrics_jsonl);
  EXPECT_EQ(seq.timeseries_csv, par.timeseries_csv);
  EXPECT_EQ(seq.params, par.params);
  EXPECT_EQ(seq.final_accuracy, par.final_accuracy);
  EXPECT_EQ(seq.virtual_duration, par.virtual_duration);
  EXPECT_FALSE(seq.metrics_jsonl.empty());
  EXPECT_EQ(seq.failovers, 1.0);
}

TEST(PsFailover, SspAndEasgdSurviveCrashDeterministically) {
  for (Algo algo : {Algo::ssp, Algo::easgd}) {
    TrainConfig cfg = reliable_config(algo);
    {
      TrainConfig probe = cfg;
      Workload wl = small_workload();
      const double d = run_training(probe, wl).virtual_duration;
      cfg.faults.ps_crashes = {{0, 0.4 * d}};
    }
    const std::string tag = algo_name(algo);
    const RunArtifacts a = reliable_run(cfg, 1, tag + "_a");
    const RunArtifacts b = reliable_run(cfg, 8, tag + "_b");
    EXPECT_EQ(a.failovers, 1.0) << tag;
    EXPECT_EQ(a.metrics_jsonl, b.metrics_jsonl) << tag;
    EXPECT_EQ(a.params, b.params) << tag;
  }
}

TEST(PsFailover, CompressedPushesOverLossyReplicatedPsApplyExactlyOnce) {
  // DGC's sparse pushes (ASP, SSP, DSSP) and QSGD's quantized ones (BSP)
  // ride the reliable link like dense ones: lost copies are retransmitted,
  // the primary mirrors each apply to its backup, and the shard's round-id
  // dedup applies every push exactly once — so staleness.updates, observed
  // once per first-hand apply, counts workers x iterations x slots.
  struct Case {
    Algo algo;
    bool dgc;
    int qsgd_bits;
  };
  for (const Case c : {Case{Algo::asp, true, 0}, Case{Algo::ssp, true, 0},
                       Case{Algo::dssp, true, 0}, Case{Algo::bsp, false, 4}}) {
    TrainConfig cfg = reliable_config(c.algo);
    cfg.opt.dgc = c.dgc;
    cfg.opt.qsgd_bits = c.qsgd_bits;
    cfg.faults.msg.loss_prob = 0.05;
    const std::string tag = std::string(algo_name(c.algo)) + "_compressed";
    const RunArtifacts seq = reliable_run(cfg, 1, tag + "_t1");
    const RunArtifacts par = reliable_run(cfg, 8, tag + "_t8");
    EXPECT_EQ(seq.metrics_jsonl, par.metrics_jsonl) << tag;
    EXPECT_EQ(seq.timeseries_csv, par.timeseries_csv) << tag;
    EXPECT_EQ(seq.params, par.params) << tag;
    EXPECT_EQ(seq.virtual_duration, par.virtual_duration) << tag;
    EXPECT_GT(seq.pushes, 0) << tag;
    EXPECT_EQ(seq.staleness_updates, static_cast<std::uint64_t>(seq.pushes))
        << tag;
    EXPECT_NE(seq.metrics_jsonl.find("net.retransmits_total"),
              std::string::npos)
        << tag;
  }
}

TEST(PsFailover, ValidationRejectsUnsupportedCombinations) {
  Workload wl = small_workload();
  // ps_crashes without replication: nothing to fail over to.
  TrainConfig cfg = reliable_config(Algo::bsp);
  cfg.reliability.replicate_ps = false;
  cfg.faults.ps_crashes = {{0, 1.0}};
  EXPECT_THROW(run_training(cfg, wl), common::Error);
  // Message faults on a decentralized algorithm: raw sends may vanish.
  TrainConfig dec = reliable_config(Algo::gosgd);
  dec.reliability.replicate_ps = false;
  dec.faults.msg.loss_prob = 0.1;
  EXPECT_THROW(run_training(dec, wl), common::Error);
  // DGC on reliable BSP: the staged rank-order round sum is dense.
  TrainConfig bsp_dgc = reliable_config(Algo::bsp);
  bsp_dgc.opt.dgc = true;
  EXPECT_THROW(run_training(bsp_dgc, wl), common::Error);
  // Wait-free BP: acked sends would serialize the backward pass.
  TrainConfig wfbp = reliable_config(Algo::asp);
  wfbp.opt.wait_free_bp = true;
  EXPECT_THROW(run_training(wfbp, wl), common::Error);
  // Worker crashes: per-peer sequence state does not survive a reboot.
  TrainConfig crash = reliable_config(Algo::asp);
  crash.faults.crashes.push_back({1, 0.5, 0.2});
  EXPECT_THROW(run_training(crash, wl), common::Error);
}

// ---------------------------------------------------------------------------
// Strict INI validation of [failures] and [reliability]
// ---------------------------------------------------------------------------

void expect_ini_error(const std::string& text, const std::string& needle) {
  try {
    (void)ExperimentSpec::from_ini(common::IniConfig::parse_string(text));
    FAIL() << "config accepted: " << text;
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ReliabilityConfig, UnknownKeysAreNamedErrors) {
  expect_ini_error("[failures]\ncrash_probability = 0.5\n",
                   "failures: unknown key 'crash_probability'");
  expect_ini_error("[reliability]\nretries = 3\n",
                   "reliability: unknown key 'retries'");
}

TEST(ReliabilityConfig, SectionsParseIntoTrainConfig) {
  const auto ini = common::IniConfig::parse_string(R"(
[failures]
loss_prob = 0.1
dup_prob = 0.05
reorder_prob = 0.2
reorder_window = 0.003
lossy_machines = 0, 2
ps_crashes = 1:12.5

[reliability]
timeout = 0.02
backoff = 3.0
max_timeout = 0.5
max_retransmits = 6
replicate_ps = true
local_step_budget = 4
)");
  const auto spec = ExperimentSpec::from_ini(ini);
  const auto& f = spec.config.faults;
  EXPECT_DOUBLE_EQ(f.msg.loss_prob, 0.1);
  EXPECT_DOUBLE_EQ(f.msg.dup_prob, 0.05);
  EXPECT_DOUBLE_EQ(f.msg.reorder_prob, 0.2);
  EXPECT_DOUBLE_EQ(f.msg.reorder_window, 0.003);
  ASSERT_EQ(f.msg.machines.size(), 2u);
  EXPECT_EQ(f.msg.machines[0], 0);
  EXPECT_EQ(f.msg.machines[1], 2);
  ASSERT_EQ(f.ps_crashes.size(), 1u);
  EXPECT_EQ(f.ps_crashes[0].shard, 1);
  EXPECT_DOUBLE_EQ(f.ps_crashes[0].at, 12.5);
  const auto& r = spec.config.reliability;
  EXPECT_DOUBLE_EQ(r.timeout_s, 0.02);
  EXPECT_DOUBLE_EQ(r.backoff, 3.0);
  EXPECT_DOUBLE_EQ(r.max_timeout_s, 0.5);
  EXPECT_EQ(r.max_retransmits, 6);
  EXPECT_TRUE(r.replicate_ps);
  EXPECT_EQ(r.local_step_budget, 4);
}

}  // namespace
}  // namespace dt::core
