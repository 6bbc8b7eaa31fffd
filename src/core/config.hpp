// Experiment configuration: which algorithm, which cluster, which workload,
// which optimizations. One TrainConfig fully determines a run (together with
// the Workload object), and the same config structs drive both functional
// (accuracy) and cost-only (throughput) experiments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compress/dgc.hpp"
#include "faults/faults.hpp"
#include "membership/membership.hpp"
#include "net/network.hpp"
#include "nn/optimizer.hpp"
#include "ps/sharding.hpp"

namespace dt::core {

enum class Algo {
  bsp,      // centralized, synchronous
  asp,      // centralized, asynchronous
  ssp,      // centralized, stale-synchronous
  dssp,     // centralized, stale-synchronous with an adaptive bound
            // (Zhao et al. 2019, arXiv 1908.11848 — extension beyond the
            // paper; the PS adapts each worker's staleness bound from its
            // observed push rate)
  easgd,    // centralized, asynchronous, periodic elastic averaging
  arsgd,    // decentralized, synchronous AllReduce
  gosgd,    // decentralized, asynchronous asymmetric gossip
  adpsgd,   // decentralized, asynchronous symmetric pairwise averaging
  dpsgd,    // decentralized, synchronous ring neighbor averaging
            // (Lian et al. 2017 — reviewed by the paper, not selected;
            // provided as an extension)
  fsdp,     // decentralized, synchronous sharded data parallelism
            // (ZeRO stages 1-3 / FSDP family, Rajbhandari et al. 2020 —
            // extension beyond the paper; see docs/memory-model.md)
};

[[nodiscard]] const char* algo_name(Algo a) noexcept;
[[nodiscard]] bool is_centralized(Algo a) noexcept;
[[nodiscard]] bool is_synchronous(Algo a) noexcept;
/// True when the algorithm communicates gradients (not parameters) — the
/// precondition for wait-free BP and DGC per the paper (BSP/ASP/SSP/AR-SGD).
[[nodiscard]] bool sends_gradients(Algo a) noexcept;

/// Cluster shape. The paper's testbed is 6 VMs x 4 GPUs; the number of
/// simulated machines is derived as ceil(workers / workers_per_machine).
struct ClusterConfig {
  int workers_per_machine = 4;
  double nic_gbps = 56.0;
  double latency_s = 50e-6;
  double local_bus_gbytes = 11.0;  // GB/s intra-machine
  double agg_gbytes = 8.0;         // GB/s host aggregation bandwidth

  [[nodiscard]] net::ClusterSpec to_spec(int num_machines) const;
};

/// The three optimization techniques of Section V.
struct OptimizationConfig {
  /// Parameter sharding: number of PS shards per machine (0 = single global
  /// PS on machine 0, i.e. sharding disabled). Layer-wise assignment.
  int ps_shards_per_machine = 0;
  /// How layers are assigned to shards: TF-like round-robin (the paper's
  /// setup) or greedy size balancing (the "fine-grained sharding" ablation
  /// the paper's VGG-16 analysis motivates).
  ps::ShardPolicy shard_policy = ps::ShardPolicy::round_robin;
  /// Overlap communication of layer L's gradients with computation of layer
  /// L-1's gradients during backprop (BSP/ASP/SSP/AR-SGD only).
  bool wait_free_bp = false;
  /// Deep gradient compression (BSP/ASP/SSP/AR-SGD only).
  bool dgc = false;
  compress::DgcConfig dgc_config;
  /// QSGD stochastic quantization of gradient pushes, `qsgd_bits` bits per
  /// value (0 = off; 2..8 = on). Extension beyond the paper; mutually
  /// exclusive with DGC and applicable to the gradient-sending algorithms.
  int qsgd_bits = 0;
  /// BSP local aggregation: gradients of co-located workers are combined on
  /// one machine-leader before touching the network (paper Section III-A).
  bool local_aggregation = true;
  /// ZeRO stage for `algo = fsdp` (ignored elsewhere): 1 shards optimizer
  /// state, 2 adds gradient reduce-scatter, 3 adds parameter sharding with
  /// layer-by-layer all-gather (docs/memory-model.md).
  int zero_stage = 1;
};

/// Per-rank memory accounting (docs/memory-model.md). The ledger always
/// fills RunResult's mem_* fields; `enabled` additionally exports live
/// gauges into the metric registry and trace counters into the Perfetto
/// trace. FSDP runs export them regardless (the protocol's whole point is
/// its memory profile).
struct MemoryConfig {
  bool enabled = false;
};

struct TrainConfig {
  Algo algo = Algo::bsp;
  int num_workers = 4;
  ClusterConfig cluster;
  OptimizationConfig opt;

  // --- algorithm hyperparameters (paper defaults) ---
  int ssp_staleness = 10;     // s
  int easgd_tau = 8;          // communication period
  double easgd_alpha = -1.0;  // moving rate; <0 => 0.9 / tau
  double gosgd_p = 0.01;      // gossip probability
  /// DSSP (algo = dssp): the PS grants each worker a staleness bound in
  /// [dssp_s_min, dssp_s_max], tightening fast workers toward s_min and
  /// granting slow ones slack toward s_max, from push rates observed over
  /// a sliding window of `dssp_window_s` virtual seconds (see
  /// core/staleness_policy.hpp and docs/algorithms.md).
  int dssp_s_min = 1;
  int dssp_s_max = 10;
  double dssp_window_s = 2.0;

  // --- functional training ---
  double epochs = 30.0;
  nn::SgdConfig sgd;
  nn::LrSchedule lr;          // built via LrSchedule::paper by the caller
  double eval_interval_epochs = 1.0;
  /// When > 0 (functional mode), RunResult::time_to_target is the virtual
  /// time of the first convergence-curve sample whose training loss is at
  /// or below this target — the paper-style "time to target loss" scalar
  /// campaigns can aggregate. A run that never reaches the target reports
  /// its full virtual duration (a lower bound on the true time).
  double target_loss = 0.0;

  // --- cost-only training ---
  /// When the workload is not functional, each worker runs exactly this
  /// many iterations instead of `epochs` worth of data.
  std::int64_t iterations = 60;

  // --- failure / heterogeneity injection (see docs/faults.md) ---
  /// Full fault-injection knobs: persistent/transient compute slowdowns,
  /// link degradation windows, worker crashes + recovery policy. The
  /// Session materializes these into a deterministic faults::FaultPlan
  /// seeded by `seed`.
  faults::FaultConfig faults;
  /// Legacy single-straggler aliases: when straggler_rank >= 0, the rank
  /// is merged into faults.slow_ranks as a persistent slowdown.
  /// Synchronous algorithms pay for it every round; asynchronous ones only
  /// lose that worker's contribution rate.
  int straggler_rank = -1;
  double straggler_slowdown = 1.0;

  // --- reliable transport + PS replication (see docs/network-model.md,
  // "Reliability model", and docs/faults.md, "PS-shard crashes") ---
  struct ReliabilityConfig {
    /// Retransmission schedule of net::ReliableTransport (virtual s).
    double timeout_s = 0.05;
    double backoff = 2.0;
    double max_timeout_s = 1.0;
    int max_retransmits = 10;
    /// Primary-backup replication of every PS shard: pushes applied by a
    /// shard's primary are mirrored (in application order, over the
    /// reliable channel) to a backup endpoint that workers fail over to
    /// when the primary crashes. Required for faults.ps_crashes.
    /// Centralized algorithms only; incompatible with wait-free BP, worker
    /// crashes and DGC on BSP (validated by the Session).
    bool replicate_ps = false;
    /// ASP graceful degradation: consecutive iterations a worker may
    /// apply its gradient locally when a shard exchange times out during
    /// failover, before it must block on a successful exchange.
    int local_step_budget = 0;

    /// The transport is engaged (and its probes registered) only when the
    /// run can need it, keeping fault-free runs byte-identical.
    [[nodiscard]] bool engaged(const faults::FaultConfig& f) const noexcept {
      return replicate_ps || f.msg.any();
    }
  };
  ReliabilityConfig reliability;

  // --- failure detector + membership views (see docs/faults.md,
  // "Membership views") ---
  /// Virtual-time heartbeat failure detector publishing deterministic,
  /// epoch-numbered membership views. Auto-engaged when a ring algorithm
  /// (AR-SGD / D-PSGD) runs sync_policy=drop with crashes configured (views
  /// drive the ring repair); `membership.enabled` additionally turns it on
  /// for measurement on any crash run.
  membership::MembershipConfig membership;

  // --- memory accounting (see docs/memory-model.md) ---
  MemoryConfig memory;
  /// True when memory gauges/trace counters are exported for this run.
  /// Gated like every optional probe: fault-free non-FSDP runs keep their
  /// byte-identical metric dumps unless [memory] enabled is set.
  [[nodiscard]] bool memory_engaged() const noexcept {
    return memory.enabled || algo == Algo::fsdp;
  }

  std::uint64_t seed = 42;

  // --- host execution (does not affect simulated results) ---
  /// Host threads for Process::advance_compute numerics. 0 = auto: the
  /// DT_COMPUTE_THREADS environment variable if set, else the hardware
  /// thread count capped at num_workers (so a 1-worker run never offloads).
  /// 1 = strictly sequential (historical behavior). Any value produces
  /// bit-identical metrics; >1 only changes wall-clock.
  int compute_threads = 0;
  /// When true, host-side wall-clock gauges (host.* metrics) are recorded
  /// in the registry. Off by default so metric dumps stay byte-identical
  /// across hosts and compute_threads settings.
  bool host_metrics = false;

  /// When non-empty, a Chrome-tracing JSON of every worker's phase
  /// intervals (virtual time) is written here after the run — including
  /// counter events (sampled registry scalars) and message flow arrows.
  std::string trace_path;

  // --- observability (see docs/observability.md) ---
  /// When non-empty, the end-of-run MetricRegistry contents are written
  /// here as JSONL (one metric per line).
  std::string metrics_jsonl;
  /// When non-empty, a daemon samples every counter/gauge each
  /// `sample_period` virtual seconds and writes the series here as CSV.
  std::string timeseries_csv;
  /// Virtual seconds between time-series samples.
  double sample_period = 0.25;

  /// Critical-path profiler (docs/observability.md): when true, phase
  /// spans, request windows, and message edges are captured and the
  /// critical-path analyzer fills RunResult::profile. Purely observational
  /// — simulated behavior and every other output are unchanged.
  bool profile = false;
  /// When non-empty, the profiler's span log is written here as JSONL
  /// (implies `profile`).
  std::string profile_spans_jsonl;
  /// When non-empty, the span log is also exported as Chrome-tracing JSON
  /// (implies `profile`).
  std::string profile_trace;

  [[nodiscard]] bool profiling_enabled() const noexcept {
    return profile || !profile_spans_jsonl.empty() || !profile_trace.empty();
  }
};

}  // namespace dt::core
