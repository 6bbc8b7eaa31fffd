// Session: builds the virtual cluster for one training run, spawns the
// algorithm's processes, runs the simulation, and assembles the RunResult.
//
// A Session owns the SimEngine/Network and the shared bookkeeping that the
// per-algorithm launchers (launch_ps & friends) attach their processes to.
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/workload.hpp"
#include "memory/ledger.hpp"
#include "metrics/metrics.hpp"
#include "metrics/sampler.hpp"
#include "net/collectives.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "profile/critical_path.hpp"
#include "profile/spans.hpp"
#include "ps/shard_state.hpp"
#include "ps/sharding.hpp"
#include "runtime/sim.hpp"

namespace dt::core {

class Session {
 public:
  Session(TrainConfig config, Workload& workload);

  /// Runs the configured algorithm to completion and returns the result.
  /// A Session is single-use.
  metrics::RunResult run();

  // ---- shared state for algorithm launchers -----------------------------
  TrainConfig cfg;
  Workload& wl;
  runtime::SimEngine engine;
  std::unique_ptr<net::Network> network;

  int num_machines = 0;
  std::vector<int> worker_machine;  // rank -> machine
  std::vector<int> worker_ep;       // rank -> endpoint
  std::vector<int> ps_machine;      // shard -> machine
  std::vector<int> ps_ep;           // shard -> endpoint
  ps::ShardingPlan plan;
  std::vector<std::unique_ptr<ps::ShardState>> shards;

  /// Flat element-range shard plan over the worker ranks (algo = fsdp
  /// only; empty otherwise). Rank r owns fsdp_plan.shard_ranges[r].
  ps::FlatShardingPlan fsdp_plan;

  /// Per-rank memory ledger (docs/memory-model.md). Static footprints are
  /// charged before launch for every algorithm; FSDP additionally drives
  /// transient gather/unshard allocations from its fiber loop. Always
  /// filled into RunResult::mem_*; gauges/trace counters are exported only
  /// when cfg.memory_engaged().
  memory::Ledger mem_ledger;

  /// Reliable exactly-once transport (see docs/network-model.md,
  /// "Reliability model"). Non-null only when cfg.reliability.engaged() —
  /// message faults or PS replication — so fault-free runs never construct
  /// it and their metric dumps stay byte-identical. When set, the
  /// centralized launchers route every PS exchange through it.
  std::unique_ptr<net::ReliableTransport> reliable;
  /// Primary-backup replication (cfg.reliability.replicate_ps): per shard,
  /// a backup ShardState on another machine that mirrors the primary's
  /// applies and takes over when the primary fail-stops.
  std::vector<int> ps_backup_machine;  // shard -> machine
  std::vector<int> ps_backup_ep;       // shard -> endpoint ("ps<k>b")
  std::vector<std::unique_ptr<ps::ShardState>> backup_shards;

  [[nodiscard]] bool reliable_mode() const noexcept {
    return reliable != nullptr;
  }
  [[nodiscard]] bool has_backups() const noexcept {
    return !backup_shards.empty();
  }

  std::vector<metrics::WorkerMetrics> wmetrics;
  metrics::RunResult result;

  /// Observability: every probe (algorithm protocol counters, PS and
  /// network instrumentation) registers into this registry; a snapshot of
  /// it lands in RunResult::metrics. Algorithm launchers resolve their
  /// instruments once per process, outside the iteration loops.
  metrics::MetricRegistry registry;

  /// Trace sink for the run (nullptr unless cfg.trace_path is set). Set up
  /// before launch() so launchers and the network can record into it.
  [[nodiscard]] metrics::TraceLog* trace() noexcept { return trace_.get(); }

  /// Profiler span log (nullptr unless cfg.profiling_enabled()). Filled
  /// during the run through the SpanSink hooks, reads its message edges
  /// from the run's edge log; analyzed into RunResult::profile afterwards.
  [[nodiscard]] profile::SpanLog* spans() noexcept { return spans_.get(); }

  // ---- helpers -----------------------------------------------------------
  [[nodiscard]] int num_workers() const noexcept { return cfg.num_workers; }
  [[nodiscard]] int num_shards() const noexcept { return plan.num_shards; }

  /// Iterations each worker executes in this run.
  [[nodiscard]] std::int64_t iterations_per_worker() const;

  /// Training progress of a worker after `iter` local iterations, in epochs.
  [[nodiscard]] double epoch_of(std::int64_t iter) const;

  [[nodiscard]] float lr_at(double epoch) const {
    return static_cast<float>(cfg.lr.lr_at(epoch));
  }

  /// Workers co-located with `rank` (same machine), including `rank`.
  [[nodiscard]] std::vector<int> machine_peers(int rank) const;
  /// Lowest rank on the machine of `rank` (the local-aggregation leader).
  [[nodiscard]] int machine_leader(int rank) const;

  /// Uncontended one-way transfer estimate between two endpoints — used to
  /// split measured wait time into "communication" vs. "aggregation wait".
  [[nodiscard]] double uncontended_time(std::uint64_t bytes, int ep_a,
                                        int ep_b) const;

  /// Records a convergence-curve point (functional mode; called by the
  /// designated evaluation worker at epoch boundaries).
  void record_curve(double epoch, double vtime, double test_error,
                    double train_loss);

  /// Per-worker RNG stream (deterministic in cfg.seed and rank).
  [[nodiscard]] common::Rng worker_rng(int rank) const;

  // ---- fault injection (see docs/faults.md) ------------------------------
  /// Deterministic fault timeline for this run: cfg.faults merged with the
  /// legacy straggler aliases, materialized with cfg.seed.
  faults::FaultPlan fault_plan;

  /// Persistent compute-time multiplier for `rank` (1.0 normally).
  [[nodiscard]] double compute_scale(int rank) const noexcept {
    return fault_plan.persistent_factor(rank);
  }

  /// Virtual duration of a `nominal`-second compute block started now by
  /// `rank`, stretched through the rank's persistent factor and any
  /// transient slowdown windows.
  [[nodiscard]] double fault_stretch(const runtime::Process& self, int rank,
                                     double nominal) const {
    return fault_plan.stretch(rank, self.now(), nominal);
  }

  /// True when `rank` has a scheduled crash it has not yet taken whose
  /// time has come. Algorithm loops call this at their crash-safe points.
  [[nodiscard]] bool crash_pending(int rank, double now) const;

  /// Executes the crash for `rank`: records it, marks the rank down, and
  /// advances `self` through the downtime; on return the worker has
  /// rebooted (state restoration is the caller's per-algorithm job).
  void take_crash(runtime::Process& self, int rank);

  /// True when `rank` is inside its crash downtime at virtual time `now` —
  /// the liveness check used by PS shards and peer selection. Deadness is
  /// live state (set when the crash is actually taken), so a push sent
  /// just before the crash point is never orphaned by plan lookahead.
  [[nodiscard]] bool rank_down(int rank, double now) const;

  /// Records that `rank`'s worker process has completed every iteration
  /// and is about to exit (at virtual time `now`). Drop-mode BSP treats
  /// finished workers as departed members so a rejoined straggler can
  /// close its remaining rounds alone instead of waiting on peers that
  /// already left. With membership engaged the rank also leave()s the
  /// view, publishing a new epoch immediately.
  void mark_finished(int rank, double now);
  [[nodiscard]] bool rank_finished(int rank) const;

  // ---- membership views (see docs/faults.md, "Membership views") ---------
  /// True when the failure detector runs for this session: explicitly via
  /// cfg.membership.enabled, or auto-engaged because a ring algorithm
  /// (AR-SGD / D-PSGD) runs sync_policy=drop with crashes scheduled —
  /// there the view *drives* the ring repair.
  [[nodiscard]] bool membership_engaged() const noexcept {
    return oracle_ != nullptr;
  }
  /// The failure-detector oracle (membership_engaged() only).
  [[nodiscard]] membership::MembershipOracle& oracle() { return *oracle_; }

  /// View-aware liveness: with membership engaged, a rank is down when it
  /// is not in the current view (detection latency applies — an eviction
  /// lags the death by ~timeout+confirm); otherwise falls back to the
  /// instantaneous rank_down().
  [[nodiscard]] bool member_down(int rank, double now) const;
  /// View-aware departure: with membership engaged, not-in-view (covers
  /// both evicted and left members); otherwise rank_finished().
  [[nodiscard]] bool member_departed(int rank, double now) const;

  /// Membership observability instruments (registered only when the
  /// detector is engaged, keeping other runs' metric dumps byte-identical).
  membership::MembershipProbes mprobes;

  // ---- PS-shard fail-stop + failover (replicate_ps runs) -----------------
  /// Called by the dying primary itself at its actual death instant, so
  /// failover decisions use live state (a slow round can never trigger a
  /// spurious failover — the oracle flips only when the primary really
  /// stopped serving).
  void mark_ps_down(runtime::Process& self, int shard);
  [[nodiscard]] bool ps_primary_down(int shard) const;
  /// Promotes the backup as the route for `shard`. Idempotent: the first
  /// detecting worker flips the route and bumps ps.failovers_total; later
  /// callers are no-ops.
  void fail_over(runtime::Process& self, int shard);
  [[nodiscard]] bool ps_failed_over(int shard) const;
  /// Endpoint workers should contact for `shard`: the primary until
  /// fail_over(shard), the backup after.
  [[nodiscard]] int ps_route(int shard) const;

  /// Fault observability instruments (registered only for runs with a
  /// non-empty fault plan, keeping fault-free metric dumps byte-identical
  /// with pre-fault builds).
  struct FaultProbes {
    metrics::Counter* crashes = nullptr;         // faults.crashes_total
    metrics::Counter* rejoins = nullptr;         // faults.rejoins_total
    metrics::Counter* dropped_pushes = nullptr;  // faults.dropped_pushes_total
    metrics::Counter* skipped_peers = nullptr;   // faults.skipped_peers_total
    metrics::Gauge* dead_workers = nullptr;      // faults.dead_workers
    metrics::Counter* ps_failovers = nullptr;    // ps.failovers_total
    metrics::Counter* local_steps = nullptr;     // faults.local_steps_total
  };
  FaultProbes fprobes;

 private:
  void build_cluster();
  void build_fault_plan();
  void build_membership();
  void validate_reliability() const;
  void validate_membership() const;
  void validate_fsdp() const;
  void init_memory();  // static footprints + gated gauge export
  void launch();  // dispatch to per-algorithm launcher
  void launch_membership();  // heartbeat + detector daemons (engaged only)
  std::vector<int> crash_taken_;    // per rank: crashes taken so far (index
                                    // into fault_plan.crashes_of(rank))
  std::vector<double> down_until_;  // per rank; rejoin time once taken
  std::vector<char> finished_;      // per rank; worker ran out of iterations
  std::vector<char> ps_down_;       // per shard; primary fail-stopped
  std::vector<char> ps_failed_;     // per shard; route flipped to backup
  bool ran_ = false;
  std::unique_ptr<membership::MembershipOracle> oracle_;
  int membership_ep_ = -1;  // detector's control-plane endpoint
                            // (kTagViewChange source; centralized only)
  std::unique_ptr<metrics::TraceLog> trace_;
  std::unique_ptr<metrics::TimeSeriesSampler> sampler_;
  // One edge per delivered message, recorded when the run traces or
  // profiles: the trace's flows and the span log's edges.
  metrics::EdgeLog edges_;
  std::unique_ptr<profile::SpanLog> spans_;
};

// Per-algorithm launchers (defined in algo_centralized.cpp /
// algo_decentralized.cpp / algo_fsdp.cpp). Each spawns all processes for
// its protocols; launch_ps runs every parameter-server protocol (BSP, ASP,
// SSP, DSSP, EASGD), launch_neighbour every neighbour exchange (GoSGD,
// AD-PSGD, D-PSGD).
void launch_ps(Session& s);
void launch_arsgd(Session& s);
void launch_neighbour(Session& s);
void launch_fsdp(Session& s);

/// One-call entry point: build a session, run it, return the result.
metrics::RunResult run_training(const TrainConfig& cfg, Workload& workload);

}  // namespace dt::core
