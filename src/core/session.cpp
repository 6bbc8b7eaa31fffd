#include "core/session.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "core/protocol.hpp"
#include "runtime/thread_pool.hpp"

namespace dt::core {

Session::Session(TrainConfig config, Workload& workload)
    : cfg(std::move(config)), wl(workload) {
  common::check(cfg.num_workers >= 1, "Session: need at least one worker");
  common::check(!wl.functional() || wl.num_workers() == cfg.num_workers,
                "Session: workload built for a different worker count");
  common::check(cfg.easgd_tau >= 1, "Session: easgd_tau must be >= 1");
  common::check(cfg.ssp_staleness >= 0,
                "Session: ssp_staleness must be >= 0");
  build_fault_plan();
  build_membership();
  build_cluster();
  validate_reliability();
  validate_membership();
  validate_fsdp();
}

void Session::build_membership() {
  const bool ring_drop =
      (cfg.algo == Algo::arsgd || cfg.algo == Algo::dpsgd) &&
      fault_plan.sync_policy() == faults::SyncPolicy::drop &&
      fault_plan.has_crashes();
  if (!cfg.membership.enabled && !ring_drop) return;
  // explicit_join only where the view drives ring repair: a ring rejoiner
  // must finish its state pull before it is placed back into a collective.
  // Centralized algorithms readmit on resumed heartbeats alone.
  oracle_ = std::make_unique<membership::MembershipOracle>(
      cfg.membership, cfg.num_workers, /*explicit_join=*/ring_drop);
}

void Session::validate_membership() const {
  const bool ring_drop =
      (cfg.algo == Algo::arsgd || cfg.algo == Algo::dpsgd) &&
      fault_plan.sync_policy() == faults::SyncPolicy::drop &&
      fault_plan.has_crashes();
  if (!ring_drop) return;
  common::check(cfg.num_workers >= 3,
                "Session: sync_policy=drop on a ring algorithm needs at "
                "least 3 workers (a 2-ring cannot shrink)");
  common::check(
      !cfg.opt.wait_free_bp && !cfg.opt.dgc && cfg.opt.qsgd_bits == 0,
      "Session: ring repair (sync_policy=drop with crashes) reduces one "
      "dense bucket per round — incompatible with wait-free BP and "
      "gradient compression (DGC/QSGD)");
}

void Session::validate_fsdp() const {
  common::check(cfg.opt.zero_stage >= 1 && cfg.opt.zero_stage <= 3,
                "Session: zero_stage must be 1, 2, or 3");
  if (cfg.algo != Algo::fsdp) return;
  common::check(
      !cfg.opt.wait_free_bp && !cfg.opt.dgc && cfg.opt.qsgd_bits == 0,
      "Session: FSDP's reduce-scatter is dense and round-synchronous — "
      "incompatible with wait-free BP and gradient compression (DGC/QSGD)");
  common::check(!(fault_plan.has_crashes() &&
                  fault_plan.sync_policy() == faults::SyncPolicy::drop),
                "Session: FSDP crashes support sync_policy=stall only (a "
                "dropped rank would orphan its parameter shard)");
  common::check(!cfg.reliability.engaged(cfg.faults),
                "Session: reliability (message faults / replicate_ps) is "
                "supported for the centralized algorithms only");
}

void Session::validate_reliability() const {
  const bool engaged = cfg.reliability.engaged(cfg.faults);
  common::check(!fault_plan.has_ps_crashes() || cfg.reliability.replicate_ps,
                "Session: faults.ps_crashes requires reliability.replicate_ps "
                "(a crashed unreplicated shard would lose state)");
  if (!engaged) return;
  common::check(is_centralized(cfg.algo),
                "Session: reliability (message faults / replicate_ps) is "
                "supported for the centralized algorithms only");
  common::check(!(cfg.opt.dgc && cfg.algo == Algo::bsp),
                "Session: reliable BSP is incompatible with DGC (its staged "
                "rank-order round sum is dense)");
  common::check(!cfg.opt.wait_free_bp,
                "Session: reliability modes are incompatible with wait-free "
                "BP (acked sends would serialize the backward pass)");
  common::check(!fault_plan.has_crashes(),
                "Session: worker crashes are incompatible with the reliable "
                "transport (per-peer sequence state would not survive a "
                "reboot)");
  for (int m : cfg.faults.msg.machines) {
    common::check(m < num_machines,
                  "Session: faults.lossy_machines references a machine "
                  "beyond the cluster");
  }
  for (const auto& pc : fault_plan.config().ps_crashes) {
    common::check(pc.shard < num_shards(),
                  "Session: faults.ps_crashes references a shard beyond the "
                  "sharding plan");
  }
}

void Session::build_fault_plan() {
  faults::FaultConfig merged = cfg.faults;
  // Legacy straggler aliases fold into the persistent slow-rank table
  // (explicit slow_ranks entries for the same rank win).
  if (cfg.straggler_rank >= 0 && cfg.straggler_slowdown > 0.0) {
    bool already = false;
    for (const auto& [rank, _] : merged.slow_ranks) {
      if (rank == cfg.straggler_rank) already = true;
    }
    if (!already) {
      merged.slow_ranks.emplace_back(cfg.straggler_rank,
                                     cfg.straggler_slowdown);
    }
  }
  fault_plan = faults::FaultPlan(merged, cfg.seed, cfg.num_workers);
  crash_taken_.assign(static_cast<std::size_t>(cfg.num_workers), 0);
  down_until_.assign(static_cast<std::size_t>(cfg.num_workers), -1.0);
  finished_.assign(static_cast<std::size_t>(cfg.num_workers), 0);
}

bool Session::crash_pending(int rank, double now) const {
  const auto& list = fault_plan.crashes_of(rank);
  const auto idx =
      static_cast<std::size_t>(crash_taken_[static_cast<std::size_t>(rank)]);
  return idx < list.size() && now >= list[idx].at;
}

bool Session::rank_down(int rank, double now) const {
  return now < down_until_[static_cast<std::size_t>(rank)];
}

void Session::mark_finished(int rank, double now) {
  finished_[static_cast<std::size_t>(rank)] = 1;
  if (oracle_) oracle_->leave(rank, now);
}

bool Session::rank_finished(int rank) const {
  return finished_[static_cast<std::size_t>(rank)] != 0;
}

bool Session::member_down(int rank, double now) const {
  if (oracle_) return !oracle_->in_view(rank);
  return rank_down(rank, now);
}

bool Session::member_departed(int rank, double now) const {
  if (oracle_) return !oracle_->in_view(rank);
  (void)now;
  return rank_finished(rank);
}

void Session::mark_ps_down(runtime::Process& self, int shard) {
  ps_down_.at(static_cast<std::size_t>(shard)) = 1;
  if (trace_) {
    trace_->instant("ps" + std::to_string(shard), "crash", self.now());
  }
}

bool Session::ps_primary_down(int shard) const {
  return ps_down_.at(static_cast<std::size_t>(shard)) != 0;
}

void Session::fail_over(runtime::Process& self, int shard) {
  auto& flag = ps_failed_.at(static_cast<std::size_t>(shard));
  if (flag != 0) return;
  common::check(has_backups(), "fail_over: shard has no backup");
  flag = 1;
  if (fprobes.ps_failovers != nullptr) fprobes.ps_failovers->inc();
  if (trace_) {
    trace_->instant("ps" + std::to_string(shard) + "b", "failover",
                    self.now());
  }
}

bool Session::ps_failed_over(int shard) const {
  return ps_failed_.at(static_cast<std::size_t>(shard)) != 0;
}

int Session::ps_route(int shard) const {
  return ps_failed_over(shard)
             ? ps_backup_ep.at(static_cast<std::size_t>(shard))
             : ps_ep.at(static_cast<std::size_t>(shard));
}

void Session::take_crash(runtime::Process& self, int rank) {
  const auto& list = fault_plan.crashes_of(rank);
  const auto idx =
      static_cast<std::size_t>(crash_taken_[static_cast<std::size_t>(rank)]);
  common::check(idx < list.size(),
                "take_crash: no crash scheduled for rank");
  const faults::Crash* c = &list[idx];
  ++crash_taken_[static_cast<std::size_t>(rank)];
  down_until_[static_cast<std::size_t>(rank)] = self.now() + c->downtime;
  if (fprobes.crashes != nullptr) {
    fprobes.crashes->inc();
    fprobes.dead_workers->add(1.0);
  }
  if (trace_) {
    trace_->instant("worker" + std::to_string(rank), "crash", self.now());
  }
  // Record the true death instant so the eventual eviction can measure
  // detection latency (membership.detect_vsec).
  if (oracle_) oracle_->note_down(rank, self.now());
  // The downtime is a busy advance, not a blocking wait: senders that
  // wake() this process meanwhile cannot shorten it (see runtime/sim.cpp).
  self.advance(c->downtime);
  if (fprobes.rejoins != nullptr) {
    fprobes.rejoins->inc();
    fprobes.dead_workers->add(-1.0);
  }
  if (trace_) {
    trace_->instant("worker" + std::to_string(rank), "rejoin", self.now());
  }
}

void Session::build_cluster() {
  const int wpm = std::max(1, cfg.cluster.workers_per_machine);
  num_machines = (cfg.num_workers + wpm - 1) / wpm;
  network = std::make_unique<net::Network>(
      engine, cfg.cluster.to_spec(num_machines));

  worker_machine.resize(static_cast<std::size_t>(cfg.num_workers));
  worker_ep.resize(static_cast<std::size_t>(cfg.num_workers));
  for (int r = 0; r < cfg.num_workers; ++r) {
    worker_machine[static_cast<std::size_t>(r)] = r / wpm;
    worker_ep[static_cast<std::size_t>(r)] = network->add_endpoint(
        r / wpm, "worker" + std::to_string(r));
  }

  // Sharding plan: slot wire sizes from the workload.
  std::vector<std::uint64_t> slot_bytes;
  for (std::size_t i = 0; i < wl.num_slots(); ++i) {
    slot_bytes.push_back(wl.slot_wire_bytes(i));
  }
  int total_shards = 1;
  if (is_centralized(cfg.algo) && cfg.opt.ps_shards_per_machine > 0) {
    total_shards = cfg.opt.ps_shards_per_machine * num_machines;
  }
  plan = ps::ShardingPlan::build(slot_bytes, total_shards,
                                 cfg.opt.shard_policy);

  if (cfg.algo == Algo::fsdp) {
    std::vector<std::int64_t> slot_numel;
    for (std::size_t i = 0; i < wl.num_slots(); ++i) {
      slot_numel.push_back(wl.slot_numel(i));
    }
    fsdp_plan =
        ps::FlatShardingPlan::build(slot_numel, slot_bytes, cfg.num_workers);
  }

  if (is_centralized(cfg.algo)) {
    for (int shard = 0; shard < plan.num_shards; ++shard) {
      const int machine = shard % num_machines;  // round-robin placement
      ps_machine.push_back(machine);
      ps_ep.push_back(
          network->add_endpoint(machine, "ps" + std::to_string(shard)));
      shards.push_back(std::make_unique<ps::ShardState>(plan, shard, wl,
                                                        cfg.sgd));
    }
    if (cfg.reliability.replicate_ps) {
      for (int shard = 0; shard < plan.num_shards; ++shard) {
        // Backup on the next machine over, so a machine-level view of the
        // crash would still find the replica elsewhere.
        const int pm = ps_machine[static_cast<std::size_t>(shard)];
        const int bm = num_machines > 1 ? (pm + 1) % num_machines : 0;
        ps_backup_machine.push_back(bm);
        ps_backup_ep.push_back(network->add_endpoint(
            bm, "ps" + std::to_string(shard) + "b"));
        backup_shards.push_back(
            std::make_unique<ps::ShardState>(plan, shard, wl, cfg.sgd));
      }
    }
    if (cfg.reliability.engaged(cfg.faults)) {
      reliable = std::make_unique<net::ReliableTransport>(
          *network,
          net::ReliableConfig{
              .timeout = cfg.reliability.timeout_s,
              .backoff = cfg.reliability.backoff,
              .max_timeout = cfg.reliability.max_timeout_s,
              .max_retransmits = cfg.reliability.max_retransmits});
    }
  }
  if (oracle_ && is_centralized(cfg.algo)) {
    // Control-plane mailbox the detector daemon sends kTagViewChange notes
    // from: blocked synchronous PS loops wake and re-check admission.
    membership_ep_ = network->add_endpoint(0, "membership");
  }

  ps_down_.assign(static_cast<std::size_t>(plan.num_shards), 0);
  ps_failed_.assign(static_cast<std::size_t>(plan.num_shards), 0);

  wmetrics.resize(static_cast<std::size_t>(cfg.num_workers));
}

std::int64_t Session::iterations_per_worker() const {
  if (!wl.functional()) return cfg.iterations;
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::llround(cfg.epochs *
                          static_cast<double>(wl.iterations_per_epoch()))));
}

double Session::epoch_of(std::int64_t iter) const {
  if (!wl.functional()) return 0.0;
  return static_cast<double>(iter) /
         static_cast<double>(wl.iterations_per_epoch());
}

std::vector<int> Session::machine_peers(int rank) const {
  std::vector<int> peers;
  const int m = worker_machine.at(static_cast<std::size_t>(rank));
  for (int r = 0; r < cfg.num_workers; ++r) {
    if (worker_machine[static_cast<std::size_t>(r)] == m) peers.push_back(r);
  }
  return peers;
}

int Session::machine_leader(int rank) const {
  return machine_peers(rank).front();
}

double Session::uncontended_time(std::uint64_t bytes, int ep_a,
                                 int ep_b) const {
  const auto& spec = network->spec();
  if (network->machine_of(ep_a) == network->machine_of(ep_b)) {
    return spec.send_overhead +
           static_cast<double>(bytes) / spec.local_bus_bandwidth +
           spec.local_latency;
  }
  return spec.send_overhead +
         static_cast<double>(bytes) / spec.nic_bandwidth + spec.latency;
}

void Session::record_curve(double epoch, double vtime, double test_error,
                           double train_loss) {
  result.curve.push_back(metrics::CurvePoint{.epoch = epoch,
                                             .virtual_time = vtime,
                                             .test_error = test_error,
                                             .train_loss = train_loss});
}

common::Rng Session::worker_rng(int rank) const {
  return common::Rng(cfg.seed).fork(0x5000 + static_cast<std::uint64_t>(rank));
}

void Session::launch_membership() {
  if (!oracle_) return;
  const double period = oracle_->config().period_s;
  // Per-rank heartbeat daemons. The beat interval is stretched by the
  // rank's slowdown faults, so stragglers look slow to the detector too
  // (suspected, then refuted — never silently healthy); ranks inside a
  // crash window or finished do not beat at all.
  for (int r = 0; r < cfg.num_workers; ++r) {
    engine.spawn(
        "hb" + std::to_string(r),
        [this, r, period](runtime::Process& self) {
          for (;;) {
            if (!rank_down(r, self.now()) && !rank_finished(r)) {
              oracle_->beat(r, self.now());
            }
            self.advance(fault_plan.stretch(r, self.now(), period));
          }
        },
        /*daemon=*/true);
  }
  // One detector daemon evaluates the evidence every (unstretched) period
  // and, on centralized runs, wakes every PS loop with a kTagViewChange
  // note when a new view was published.
  engine.spawn(
      "membership",
      [this, period](runtime::Process& self) {
        std::int64_t notified = oracle_->epoch();
        for (;;) {
          self.advance(period);
          oracle_->evaluate(self.now());
          const std::int64_t epoch = oracle_->epoch();
          // Raw notes would confuse the reliable transport's sequencing;
          // reliable PSes poll liveness on retransmit timeouts instead.
          if (epoch != notified && membership_ep_ >= 0 && !reliable_mode()) {
            for (int shard = 0; shard < num_shards(); ++shard) {
              net::Packet note;
              note.tag = kTagViewChange;
              note.wire_bytes = net::kControlBytes;
              note.c = epoch;
              network->send(self, membership_ep_, ps_route(shard),
                            std::move(note));
            }
          }
          notified = epoch;
        }
      },
      /*daemon=*/true);
}

void Session::launch() {
  switch (cfg.algo) {
    case Algo::bsp:
    case Algo::asp:
    case Algo::ssp:
    case Algo::dssp:
    case Algo::easgd: launch_ps(*this); return;
    case Algo::arsgd: launch_arsgd(*this); return;
    case Algo::gosgd:
    case Algo::adpsgd:
    case Algo::dpsgd: launch_neighbour(*this); return;
    case Algo::fsdp: launch_fsdp(*this); return;
  }
  common::fail("Session: unknown algorithm");
}

void Session::init_memory() {
  mem_ledger.reset(cfg.num_workers);
  if (cfg.memory_engaged()) {
    // Live per-rank gauges (and trace counters when tracing): registered
    // only when engaged, so other runs' metric dumps stay byte-identical.
    std::vector<metrics::Gauge*> gauges;
    std::vector<std::string> names;  // trace counter names, built once
    gauges.reserve(static_cast<std::size_t>(cfg.num_workers));
    names.reserve(static_cast<std::size_t>(cfg.num_workers));
    for (int r = 0; r < cfg.num_workers; ++r) {
      gauges.push_back(&registry.gauge(
          "mem.current_bytes", {{"worker", std::to_string(r)}}));
      names.push_back("mem worker" + std::to_string(r));
    }
    mem_ledger.set_hook([this, gauges = std::move(gauges),
                         names = std::move(names)](int rank, double now,
                                                   std::uint64_t current) {
      gauges[static_cast<std::size_t>(rank)]->set(
          static_cast<double>(current));
      if (trace_) {
        trace_->counter("memory", names[static_cast<std::size_t>(rank)], now,
                        static_cast<double>(current));
      }
    });
  }

  // Coarse static footprints (docs/memory-model.md): every non-FSDP rank
  // is charged the DDP-style triple — full parameters, a full gradient
  // buffer, and full optimizer (momentum) state. FSDP shards the triple by
  // stage; its transient gather/reduction buffers are charged dynamically
  // by launch_fsdp's fibers.
  using memory::Category;
  const std::uint64_t m = wl.total_wire_bytes();
  for (int r = 0; r < cfg.num_workers; ++r) {
    std::uint64_t p = m;
    std::uint64_t g = m;
    std::uint64_t o = m;
    if (cfg.algo == Algo::fsdp) {
      const std::uint64_t owned =
          fsdp_plan.shard_bytes[static_cast<std::size_t>(r)];
      o = owned;                                // stage 1: optimizer shard
      if (cfg.opt.zero_stage >= 2) g = owned;   // stage 2: gradient shard
      if (cfg.opt.zero_stage >= 3) p = owned;   // stage 3: parameter shard
    }
    mem_ledger.charge_static(r, Category::params, p);
    mem_ledger.charge_static(r, Category::grads, g);
    mem_ledger.charge_static(r, Category::optimizer, o);
  }
}

metrics::RunResult Session::run() {
  common::check(!ran_, "Session::run called twice");
  ran_ = true;

  // set_faults before set_metrics: the network registers its degraded-send
  // counter only when the plan has link windows.
  network->set_faults(&fault_plan);
  network->set_metrics(&registry);
  for (int r = 0; r < cfg.num_workers; ++r) {
    const metrics::Labels labels{{"worker", std::to_string(r)}};
    wmetrics[static_cast<std::size_t>(r)].bind_counters(
        &registry.counter("worker.iterations_total", labels),
        &registry.counter("worker.samples_total", labels));
  }
  if (!fault_plan.empty()) {
    fprobes.crashes = &registry.counter("faults.crashes_total");
    fprobes.rejoins = &registry.counter("faults.rejoins_total");
    fprobes.dropped_pushes = &registry.counter("faults.dropped_pushes_total");
    fprobes.skipped_peers = &registry.counter("faults.skipped_peers_total");
    fprobes.dead_workers = &registry.gauge("faults.dead_workers");
  }
  if (fault_plan.has_ps_crashes()) {
    fprobes.ps_failovers = &registry.counter("ps.failovers_total");
  }
  if (reliable_mode()) {
    reliable->set_metrics(&registry);
    if (cfg.reliability.local_step_budget > 0) {
      fprobes.local_steps = &registry.counter("faults.local_steps_total");
    }
  }
  if (membership_engaged()) {
    mprobes.view_changes = &registry.counter("membership.view_changes_total");
    mprobes.suspicions = &registry.counter("membership.suspicions_total");
    mprobes.false_suspicions =
        &registry.counter("membership.false_suspicions_total");
    mprobes.aborted_rounds =
        &registry.counter("membership.aborted_rounds_total");
    mprobes.flushed_packets =
        &registry.counter("membership.flushed_packets_total");
    mprobes.detect_vsec = &registry.histogram(
        "membership.detect_vsec", {}, metrics::Histogram::time_bounds());
    oracle_->set_probes(mprobes);
  }

  if (!cfg.trace_path.empty() || cfg.profiling_enabled()) {
    network->set_edges(&edges_);
  }
  if (!cfg.trace_path.empty()) {
    trace_ = std::make_unique<metrics::TraceLog>();
    network->set_trace(trace_.get());
    if (oracle_) oracle_->set_trace(trace_.get());
    for (int r = 0; r < cfg.num_workers; ++r) {
      wmetrics[static_cast<std::size_t>(r)].set_trace(
          trace_.get(), "worker" + std::to_string(r));
    }
    // Planned fault windows as slices on a dedicated track, so injected
    // events line up visually with the worker tracks they perturb.
    for (int r = 0; r < cfg.num_workers; ++r) {
      for (const auto& w : fault_plan.windows(r)) {
        trace_->record("faults",
                       "slow worker" + std::to_string(r) + " x" +
                           std::to_string(w.factor),
                       w.start, w.end);
      }
    }
    for (const auto& w : fault_plan.config().link_windows) {
      trace_->record("faults",
                     "link machine" + std::to_string(w.machine), w.start,
                     w.end);
    }
  }
  if (cfg.profiling_enabled()) {
    // Capture only: spans/edges are recorded on the simulated threads (one
    // at a time), never read during the run, and change no simulated
    // behavior — profiled runs stay byte-identical with unprofiled ones.
    spans_ = std::make_unique<profile::SpanLog>(edges_);
    for (int r = 0; r < cfg.num_workers; ++r) {
      wmetrics[static_cast<std::size_t>(r)].set_spans(spans_.get(), r);
    }
  }
  if (!cfg.timeseries_csv.empty()) {
    sampler_ = std::make_unique<metrics::TimeSeriesSampler>(
        registry, cfg.sample_period);
    sampler_->set_trace(trace_.get());
    sampler_->attach(engine);
  }

  // Auto never picks more threads than workers: a process's numerics cannot
  // overlap with itself, so a 1-worker run would only pay the pool handoff.
  const int threads = runtime::ThreadPool::resolve_threads(
      cfg.compute_threads, cfg.num_workers);
  engine.set_compute_threads(threads);

  init_memory();
  launch();
  launch_membership();
  const auto host_start = std::chrono::steady_clock::now();
  engine.run();
  const double host_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();

  result.algorithm = algo_name(cfg.algo);
  result.num_workers = cfg.num_workers;
  result.host_wall_s = host_wall;
  result.host_compute_threads = threads;
  if (cfg.host_metrics) {
    // Opt-in: host gauges vary run to run, so recording them would break
    // byte-identical metric dumps across hosts and thread counts.
    registry.gauge("host.wall_seconds").set(host_wall);
    registry.gauge("host.compute_threads").set(static_cast<double>(threads));
  }
  result.virtual_duration = engine.now();
  result.workers = wmetrics;
  for (const auto& w : wmetrics) {
    result.total_iterations += w.iterations();
    result.total_samples += w.samples();
  }
  result.wire_bytes = network->stats().bytes;
  result.wire_messages = network->stats().messages;
  result.inter_machine_bytes = network->stats().inter_machine_bytes;

  using memory::Category;
  result.mem_peak_rank_bytes = mem_ledger.peak_rank_bytes();
  result.mem_peak_params_bytes =
      mem_ledger.peak_category_bytes(Category::params);
  result.mem_peak_grads_bytes =
      mem_ledger.peak_category_bytes(Category::grads);
  result.mem_peak_optimizer_bytes =
      mem_ledger.peak_category_bytes(Category::optimizer);
  result.mem_peak_gather_bytes =
      mem_ledger.peak_category_bytes(Category::gather);
  if (cfg.memory_engaged()) {
    for (int r = 0; r < cfg.num_workers; ++r) {
      registry.gauge("mem.peak_bytes", {{"worker", std::to_string(r)}})
          .set(static_cast<double>(mem_ledger.rank(r).peak_total));
    }
  }

  if (wl.functional()) {
    result.final_accuracy = wl.evaluate_params(wl.average_worker_params());
  }
  if (sampler_) {
    sampler_->sample(engine.now());  // final row = end-of-run state
    sampler_->save_csv(cfg.timeseries_csv);
  }
  result.sim_events = engine.stats().events;
  result.sim_wakes = engine.stats().wakes;
  if (spans_) {
    // Endpoint registration is deferred to here so launcher-created
    // endpoints (collectives, backups) are covered too; edges recorded
    // mid-run only carry ids.
    std::vector<int> ep_rank(
        static_cast<std::size_t>(network->num_endpoints()), -1);
    for (int r = cfg.num_workers - 1; r >= 0; --r) {  // lowest rank wins
      const int ep = worker_ep[static_cast<std::size_t>(r)];
      ep_rank[static_cast<std::size_t>(ep)] = r;
    }
    for (int ep = 0; ep < network->num_endpoints(); ++ep) {
      spans_->register_endpoint(ep, network->endpoint_name(ep),
                                network->machine_of(ep),
                                ep_rank[static_cast<std::size_t>(ep)]);
    }
    result.profile = std::make_shared<const profile::RunProfile>(
        profile::analyze(*spans_, result.virtual_duration, cfg.num_workers,
                         wl.functional() ? wl.iterations_per_epoch() : 0));
    if (!cfg.profile_spans_jsonl.empty()) {
      spans_->save_jsonl(cfg.profile_spans_jsonl);
    }
    if (!cfg.profile_trace.empty()) {
      spans_->save_chrome_json(cfg.profile_trace);
    }
  }
  result.metrics = registry.snapshot();
  if (!cfg.metrics_jsonl.empty()) registry.save_jsonl(cfg.metrics_jsonl);
  if (trace_) {
    std::vector<metrics::TraceLog::Id> endpoint_tracks;
    for (int ep = 0; ep < network->num_endpoints(); ++ep) {
      endpoint_tracks.push_back(trace_->intern(network->endpoint_name(ep)));
    }
    trace_->save(cfg.trace_path, sampler_.get(), {&edges_, &endpoint_tracks});
  }
  std::sort(result.curve.begin(), result.curve.end(),
            [](const metrics::CurvePoint& a, const metrics::CurvePoint& b) {
              return a.epoch < b.epoch;
            });
  if (cfg.target_loss > 0.0) {
    result.time_to_target = result.virtual_duration;
    for (const auto& p : result.curve) {
      if (p.train_loss <= cfg.target_loss) {
        result.time_to_target = p.virtual_time;
        break;
      }
    }
  }
  return result;
}

metrics::RunResult run_training(const TrainConfig& cfg, Workload& workload) {
  Session session(cfg, workload);
  return session.run();
}

}  // namespace dt::core
