// Helpers shared by the algorithm launchers (algo_centralized.cpp,
// algo_decentralized.cpp, algo_fsdp.cpp): gradient compression setup, the
// compute step of one iteration, the convergence-curve recorder, the per-worker
// synchronization probes and their window accounting, and the periodic
// crash-recovery checkpoint. Internal to src/core.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compress/dgc.hpp"
#include "core/session.hpp"
#include "metrics/metrics.hpp"

namespace dt::core {

inline bool use_dgc(const Session& s) {
  return s.cfg.opt.dgc && sends_gradients(s.cfg.algo);
}

/// DGC density used for wire sizing in cost-only mode (steady state).
inline double dgc_steady_density(const Session& s) {
  return 1.0 -
         compress::DgcCompressor::sparsity_at(s.cfg.opt.dgc_config, 1e9);
}

/// The worker's DGC compressor (functional runs with DGC on, else null).
inline std::unique_ptr<compress::DgcCompressor> make_dgc(const Session& s) {
  if (!use_dgc(s) || !s.wl.functional()) return nullptr;
  std::vector<std::int64_t> sizes;
  for (std::size_t i = 0; i < s.wl.num_slots(); ++i) {
    sizes.push_back(s.wl.slot_numel(i));
  }
  compress::DgcConfig cfg = s.cfg.opt.dgc_config;
  cfg.num_workers = s.cfg.num_workers;
  cfg.momentum = s.cfg.sgd.momentum;
  return std::make_unique<compress::DgcCompressor>(cfg, std::move(sizes));
}

/// compute_iteration's default: no per-slot callback.
struct NoSlotCallback {
  void operator()(std::size_t /*slot*/) const {}
};

/// Runs one iteration's forward+backward in virtual time (and functionally
/// when the workload is). `on_slot_ready`, when given, is invoked per slot
/// in backprop (reverse) order — interleaved with the backward advances when
/// wait-free BP is on, otherwise after the full backward. It is passed by
/// pointer to its own type, so the callback is never type-erased.
template <class OnSlot = NoSlotCallback>
double compute_iteration(Session& s, runtime::Process& self, int rank,
                         common::Rng& rng, metrics::WorkerMetrics& wm,
                         OnSlot* on_slot_ready = nullptr) {
  metrics::PhaseTimer timer(self, wm, metrics::Phase::compute);
  // The forward-time draw must happen on the simulated thread, before the
  // closure is submitted, so the RNG stream order is independent of the
  // compute_threads setting. fault_stretch applies the rank's persistent
  // straggler factor and any transient slowdown windows.
  const double fwd = s.fault_stretch(self, rank, s.wl.forward_time(rng));
  double loss = 0.0;
  if (s.wl.functional()) {
    // Forward+backward touches only worker-`rank` state (its model replica,
    // batch cursor, gradient slots), so the numerics run on the host pool
    // while other processes are scheduled across the modeled forward
    // interval; a peer's responder that blends into the replica joins the
    // closure first (Process::join_compute). advance_compute joins the
    // closure before returning, so the gradients exist before any backward
    // slot below is announced.
    self.advance_compute(fwd,
                         [&s, &loss, rank] { loss = s.wl.compute_gradients(rank); });
  } else {
    self.advance(fwd);
  }

  const std::size_t n = s.wl.num_slots();
  if (!s.cfg.opt.wait_free_bp || on_slot_ready == nullptr) {
    self.advance(s.fault_stretch(self, rank, s.wl.backward_time(rng)));
    if (on_slot_ready != nullptr) {
      for (std::size_t i = n; i-- > 0;) (*on_slot_ready)(i);
    }
  } else {
    double nominal = 0.0;
    for (std::size_t i = 0; i < n; ++i) nominal += s.wl.backward_slot_time(i);
    const double total =
        s.fault_stretch(self, rank, s.wl.backward_time(rng));
    const double scale = nominal > 0.0 ? total / nominal : 0.0;
    for (std::size_t i = n; i-- > 0;) {
      self.advance(s.wl.backward_slot_time(i) * scale);
      (*on_slot_ready)(i);
    }
  }
  return loss;
}

/// Functional-mode convergence-curve recorder (worker 0 only).
struct CurveRecorder {
  Session& s;
  int rank;
  double next_eval;

  CurveRecorder(Session& session, int r)
      : s(session), rank(r), next_eval(s.cfg.eval_interval_epochs) {}

  void maybe_record(runtime::Process& self, std::int64_t iter_done,
                    double loss) {
    if (rank != 0 || !s.wl.functional()) return;
    const double epoch = s.epoch_of(iter_done);
    if (epoch + 1e-9 < next_eval) return;
    const double err = 1.0 - s.wl.evaluate(0);
    s.record_curve(epoch, self.now(), err, loss);
    while (next_eval <= epoch + 1e-9) next_eval += s.cfg.eval_interval_epochs;
  }
};

/// Per-worker synchronization probes: the full sync window and its wait
/// share, the part the uncontended network estimate cannot explain —
/// barrier convoy for BSP/AR-SGD/D-PSGD and FSDP, PS queueing for ASP/SSP,
/// the passive peer's responsiveness for AD-PSGD.
struct SyncProbes {
  metrics::Histogram* window = nullptr;  // sync.window_s
  metrics::Histogram* wait = nullptr;    // sync.wait_s

  static SyncProbes make(Session& s) {
    const metrics::Labels labels{{"algo", algo_name(s.cfg.algo)}};
    return SyncProbes{
        &s.registry.histogram("sync.window_s", labels,
                              metrics::Histogram::time_bounds()),
        &s.registry.histogram("sync.wait_s", labels,
                              metrics::Histogram::time_bounds())};
  }
};

/// Splits a measured sync window into pure-communication time (up to the
/// uncontended estimate) and aggregation/queueing wait.
inline void account_window(runtime::Process& self, metrics::WorkerMetrics& wm,
                           double window_start, double comm_estimate,
                           const SyncProbes& probes) {
  const double elapsed = self.now() - window_start;
  const double comm = std::min(elapsed, comm_estimate);
  wm.accumulate(metrics::Phase::comm, comm);
  wm.accumulate(metrics::Phase::global_agg, elapsed - comm);
  probes.window->observe(elapsed);
  probes.wait->observe(elapsed - comm);
  wm.note_window(window_start, self.now());
}

/// Periodic crash-recovery snapshot state for one worker (docs/faults.md).
/// Only armed when the fault plan has crashes, recovery mode is
/// `checkpoint`, and a period is configured; otherwise every call is a
/// cheap no-op.
struct CrashCheckpoint {
  double period = 0.0;  // 0 => disabled
  double next = 0.0;
  bool have = false;
  std::string blob;  // empty in cost-only mode (only the I/O cost matters)

  static CrashCheckpoint make(const Session& s) {
    CrashCheckpoint ck;
    if (s.fault_plan.has_crashes() &&
        s.fault_plan.recovery() == faults::RecoveryMode::checkpoint &&
        s.fault_plan.config().checkpoint_period > 0.0) {
      ck.period = s.fault_plan.config().checkpoint_period;
      ck.next = ck.period;
    }
    return ck;
  }

  /// Snapshots the worker replica when the period has elapsed; the write is
  /// charged as one full-model aggregation-rate I/O pass.
  void maybe_snapshot(Session& s, runtime::Process& self, int rank) {
    if (period <= 0.0 || self.now() < next) return;
    if (s.wl.functional()) blob = s.wl.save_worker_checkpoint(rank);
    have = true;
    self.advance(s.wl.agg_time(s.wl.total_wire_bytes()));
    while (next <= self.now()) next += period;
  }

  /// Restores the replica from the last snapshot. Returns false when no
  /// snapshot exists yet (the caller falls back to its own re-sync).
  bool restore(Session& s, runtime::Process& self, int rank) {
    if (!have) return false;
    if (s.wl.functional()) s.wl.load_worker_checkpoint(rank, blob);
    self.advance(s.wl.agg_time(s.wl.total_wire_bytes()));
    return true;
  }
};

}  // namespace dt::core
