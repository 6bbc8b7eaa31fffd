// Unit tests for Session construction and its helper queries, plus the
// config/traits predicates they depend on.
#include <gtest/gtest.h>

#include <string>

#include "core/session.hpp"
#include "core/traits.hpp"
#include "core/trainer.hpp"

namespace dt::core {
namespace {

Workload cost_wl() {
  return make_cost_workload(cost::uniform_profile("u", 8, 100'000, 1e8), 32);
}

TEST(Config, AlgoPredicates) {
  EXPECT_TRUE(is_centralized(Algo::bsp));
  EXPECT_TRUE(is_centralized(Algo::easgd));
  EXPECT_FALSE(is_centralized(Algo::arsgd));
  EXPECT_FALSE(is_centralized(Algo::dpsgd));

  EXPECT_TRUE(is_synchronous(Algo::bsp));
  EXPECT_TRUE(is_synchronous(Algo::arsgd));
  EXPECT_TRUE(is_synchronous(Algo::dpsgd));
  EXPECT_FALSE(is_synchronous(Algo::asp));
  EXPECT_FALSE(is_synchronous(Algo::adpsgd));

  EXPECT_TRUE(sends_gradients(Algo::bsp));
  EXPECT_TRUE(sends_gradients(Algo::arsgd));
  EXPECT_FALSE(sends_gradients(Algo::easgd));
  EXPECT_FALSE(sends_gradients(Algo::gosgd));
}

TEST(Config, ClusterSpecConversion) {
  ClusterConfig cc;
  cc.nic_gbps = 10.0;
  cc.latency_s = 1e-4;
  net::ClusterSpec spec = cc.to_spec(6);
  EXPECT_EQ(spec.num_machines, 6);
  EXPECT_DOUBLE_EQ(spec.nic_bandwidth, 1.25e9);
  EXPECT_DOUBLE_EQ(spec.latency, 1e-4);
}

TEST(Traits, TableCoversEveryAlgorithm) {
  EXPECT_EQ(all_algo_traits().size(), 10u);
  for (Algo a : {Algo::bsp, Algo::asp, Algo::ssp, Algo::dssp, Algo::easgd,
                 Algo::arsgd, Algo::gosgd, Algo::adpsgd, Algo::dpsgd,
                 Algo::fsdp}) {
    const AlgoTraits& t = traits_of(a);
    EXPECT_EQ(t.algo, a);
    EXPECT_EQ(t.centralized, is_centralized(a));
    EXPECT_EQ(t.synchronous, is_synchronous(a));
    EXPECT_FALSE(t.comm_complexity.empty());
  }
}

TEST(Session, MachineLayoutFollowsWorkersPerMachine) {
  Workload wl = cost_wl();
  TrainConfig cfg;
  cfg.algo = Algo::asp;
  cfg.num_workers = 10;
  cfg.cluster.workers_per_machine = 4;
  Session s(cfg, wl);
  EXPECT_EQ(s.num_machines, 3);  // ceil(10/4)
  EXPECT_EQ(s.machine_leader(0), 0);
  EXPECT_EQ(s.machine_leader(3), 0);
  EXPECT_EQ(s.machine_leader(4), 4);
  EXPECT_EQ(s.machine_leader(9), 8);
  EXPECT_EQ(s.machine_peers(5), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(s.machine_peers(9), (std::vector<int>{8, 9}));
}

TEST(Session, ShardingDisabledMeansSinglePs) {
  Workload wl = cost_wl();
  TrainConfig cfg;
  cfg.algo = Algo::asp;
  cfg.num_workers = 8;
  cfg.opt.ps_shards_per_machine = 0;
  Session s(cfg, wl);
  EXPECT_EQ(s.num_shards(), 1);
  EXPECT_EQ(s.ps_ep.size(), 1u);
}

TEST(Session, ShardCountScalesWithMachines) {
  Workload wl = cost_wl();
  TrainConfig cfg;
  cfg.algo = Algo::asp;
  cfg.num_workers = 8;  // 2 machines
  cfg.opt.ps_shards_per_machine = 2;
  Session s(cfg, wl);
  EXPECT_EQ(s.num_shards(), 4);
  // Decentralized algorithms get no PS processes at all.
  Workload wl2 = cost_wl();
  cfg.algo = Algo::adpsgd;
  Session s2(cfg, wl2);
  EXPECT_EQ(s2.ps_ep.size(), 0u);
}

TEST(Session, ComputeScaleOnlyForStraggler) {
  Workload wl = cost_wl();
  TrainConfig cfg;
  cfg.algo = Algo::asp;
  cfg.num_workers = 4;
  cfg.straggler_rank = 2;
  cfg.straggler_slowdown = 2.5;
  Session s(cfg, wl);
  EXPECT_DOUBLE_EQ(s.compute_scale(0), 1.0);
  EXPECT_DOUBLE_EQ(s.compute_scale(2), 2.5);
}

TEST(Session, IterationsPerWorkerByMode) {
  {
    Workload wl = cost_wl();
    TrainConfig cfg;
    cfg.algo = Algo::asp;
    cfg.num_workers = 2;
    cfg.iterations = 17;
    Session s(cfg, wl);
    EXPECT_EQ(s.iterations_per_worker(), 17);
    EXPECT_DOUBLE_EQ(s.epoch_of(5), 0.0);  // cost-only: no epochs
  }
  {
    FunctionalWorkloadSpec spec;
    spec.train_samples = 512;
    spec.test_samples = 128;
    spec.batch = 8;
    spec.num_workers = 2;
    Workload wl = make_functional_workload(spec);
    TrainConfig cfg;
    cfg.algo = Algo::bsp;
    cfg.num_workers = 2;
    cfg.epochs = 3.0;
    Session s(cfg, wl);
    // 512/(8*2) = 32 iters/epoch; 3 epochs = 96.
    EXPECT_EQ(s.iterations_per_worker(), 96);
    EXPECT_DOUBLE_EQ(s.epoch_of(32), 1.0);
  }
}

TEST(Session, RejectsWorkloadWorkerMismatch) {
  FunctionalWorkloadSpec spec;
  spec.train_samples = 512;
  spec.test_samples = 128;
  spec.num_workers = 2;
  Workload wl = make_functional_workload(spec);
  TrainConfig cfg;
  cfg.algo = Algo::bsp;
  cfg.num_workers = 4;  // workload built for 2
  EXPECT_THROW(Session(cfg, wl), common::Error);
}

/// Runs `cfg` through the Session constructor and returns the error it
/// raised (empty when it raised none).
std::string construction_error(TrainConfig cfg) {
  Workload wl = cost_wl();
  try {
    Session s(std::move(cfg), wl);
  } catch (const common::Error& e) {
    return e.what();
  }
  return "";
}

TEST(Session, RejectsEasgdTauBelowOne) {
  // τ = 0 once ran to completion with α = 0.9/0 = ∞, a worker clamped to
  // τ = 1 and a traffic estimate of 2MN/0.
  TrainConfig cfg;
  cfg.algo = Algo::easgd;
  cfg.num_workers = 2;
  cfg.iterations = 2;
  for (int tau : {0, -3}) {
    cfg.easgd_tau = tau;
    EXPECT_NE(construction_error(cfg).find("easgd_tau"), std::string::npos)
        << "tau " << tau;
  }
  cfg.easgd_tau = 1;
  EXPECT_EQ(construction_error(cfg), "");
}

TEST(Session, RejectsNegativeSspStaleness) {
  // s = -2 divided by zero in the traffic estimate (s + 2).
  TrainConfig cfg;
  cfg.algo = Algo::ssp;
  cfg.num_workers = 2;
  cfg.iterations = 2;
  for (int staleness : {-1, -2}) {
    cfg.ssp_staleness = staleness;
    EXPECT_NE(construction_error(cfg).find("ssp_staleness"),
              std::string::npos)
        << "staleness " << staleness;
  }
  cfg.ssp_staleness = 0;
  EXPECT_EQ(construction_error(cfg), "");
}

TEST(Session, RunTwiceThrows) {
  Workload wl = cost_wl();
  TrainConfig cfg;
  cfg.algo = Algo::gosgd;
  cfg.num_workers = 2;
  cfg.iterations = 2;
  Session s(cfg, wl);
  (void)s.run();
  EXPECT_THROW((void)s.run(), common::Error);
}

TEST(Session, UncontendedTimeDistinguishesLocalAndRemote) {
  Workload wl = cost_wl();
  TrainConfig cfg;
  cfg.algo = Algo::asp;
  cfg.num_workers = 8;  // machines 0 and 1
  cfg.cluster.nic_gbps = 10.0;
  Session s(cfg, wl);
  const int ep0 = s.worker_ep[0];
  const int ep1 = s.worker_ep[1];  // same machine
  const int ep4 = s.worker_ep[4];  // other machine
  const double local = s.uncontended_time(1'000'000, ep0, ep1);
  const double remote = s.uncontended_time(1'000'000, ep0, ep4);
  EXPECT_LT(local, remote);
  // Remote dominated by 1 MB / 1.25 GB/s = 0.8 ms + latency.
  EXPECT_NEAR(remote, 1e6 / 1.25e9 + 50e-6 + 3e-6, 1e-5);
}

}  // namespace
}  // namespace dt::core
