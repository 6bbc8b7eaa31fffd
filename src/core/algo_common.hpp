// Helpers shared by the algorithm launchers (algo_centralized.cpp,
// algo_decentralized.cpp, algo_fsdp.cpp): the convergence-curve recorder,
// the per-worker synchronization probes and their window accounting, and
// the periodic crash-recovery checkpoint. Internal to src/core.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/session.hpp"
#include "metrics/metrics.hpp"

namespace dt::core {

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
