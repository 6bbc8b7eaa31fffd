// Measurement plumbing for experiments.
//
// Phases follow the paper's Figure 3 breakdown: computation, local
// aggregation (intra-machine), global aggregation (PS/collective work,
// including the time spent waiting for other workers' contributions), and
// communication (wire + protocol wait). Accounting is in *virtual* time.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/registry.hpp"
#include "metrics/span_sink.hpp"
#include "metrics/trace.hpp"
#include "runtime/sim.hpp"

namespace dt::profile {
struct RunProfile;
}

namespace dt::metrics {

enum class Phase : int {
  compute = 0,
  local_agg = 1,
  global_agg = 2,
  comm = 3,
};
inline constexpr int kNumPhases = 4;

[[nodiscard]] const char* phase_name(Phase p) noexcept;

/// Per-worker accumulators, filled by the algorithm worker loops.
class WorkerMetrics {
 public:
  void accumulate(Phase phase, double seconds) noexcept {
    phase_time_[static_cast<int>(phase)] += seconds;
  }

  /// Attaches a trace sink: every PhaseTimer interval is also recorded as
  /// a trace event on `track`.
  void set_trace(TraceLog* trace, std::string_view track) {
    trace_ = trace;
    if (trace != nullptr) track_ = trace->intern(track);
  }
  [[nodiscard]] TraceLog* trace() const noexcept { return trace_; }
  /// The trace's id of the track.
  [[nodiscard]] TraceLog::Id track() const noexcept { return track_; }

  /// Attaches a profiler span sink (see metrics/span_sink.hpp): every
  /// PhaseTimer interval and account_window window is also emitted as a
  /// span tagged with `rank` and the current iteration index.
  void set_spans(SpanSink* sink, int rank) noexcept {
    spans_ = sink;
    rank_ = rank;
  }
  [[nodiscard]] SpanSink* spans() const noexcept { return spans_; }
  [[nodiscard]] int rank() const noexcept { return rank_; }

  /// Records a request-response window [start, end) into the span sink
  /// (no-op without one). Called by the launchers' account_window next to
  /// the comm/global_agg accumulation it performs.
  void note_window(double start, double end) {
    if (spans_ != nullptr && end > start) {
      spans_->on_window(rank_, iterations_, start, end);
    }
  }

  /// Mirrors iteration/sample counts into registry counters (per-worker
  /// labels), so the time-series sampler sees training progress. Pointers
  /// must outlive the run; Session wires them to its MetricRegistry.
  void bind_counters(Counter* iterations, Counter* samples) noexcept {
    iter_counter_ = iterations;
    sample_counter_ = samples;
  }
  void count_iteration(std::int64_t samples) noexcept {
    ++iterations_;
    samples_ += samples;
    if (iter_counter_ != nullptr) iter_counter_->inc();
    if (sample_counter_ != nullptr) {
      sample_counter_->inc(static_cast<double>(samples));
    }
  }

  [[nodiscard]] double phase_time(Phase p) const noexcept {
    return phase_time_[static_cast<int>(p)];
  }
  [[nodiscard]] double total_time() const noexcept {
    double t = 0.0;
    for (double v : phase_time_) t += v;
    return t;
  }
  [[nodiscard]] std::int64_t iterations() const noexcept { return iterations_; }
  [[nodiscard]] std::int64_t samples() const noexcept { return samples_; }

 private:
  std::array<double, kNumPhases> phase_time_{};
  std::int64_t iterations_ = 0;
  std::int64_t samples_ = 0;
  TraceLog* trace_ = nullptr;
  SpanSink* spans_ = nullptr;
  int rank_ = 0;
  TraceLog::Id track_ = 0;
  Counter* iter_counter_ = nullptr;
  Counter* sample_counter_ = nullptr;
};

/// RAII phase timer over the virtual clock. Create it around the code that
/// belongs to a phase; it adds the elapsed virtual time on destruction.
class PhaseTimer {
 public:
  PhaseTimer(runtime::Process& proc, WorkerMetrics& metrics, Phase phase)
      : proc_(proc), metrics_(metrics), phase_(phase), start_(proc.now()) {}
  ~PhaseTimer() {
    const double end = proc_.now();
    metrics_.accumulate(phase_, end - start_);
    if (metrics_.trace() != nullptr && end > start_) {
      TraceLog& trace = *metrics_.trace();
      trace.record(metrics_.track(), trace.intern(phase_name(phase_)), start_,
                   end);
    }
    if (metrics_.spans() != nullptr && end > start_) {
      metrics_.spans()->on_phase(metrics_.rank(), metrics_.iterations(),
                                 static_cast<int>(phase_), start_, end);
    }
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  runtime::Process& proc_;
  WorkerMetrics& metrics_;
  Phase phase_;
  double start_;
};

/// One point of a convergence curve.
struct CurvePoint {
  double epoch = 0.0;
  double virtual_time = 0.0;
  double test_error = 0.0;
  double train_loss = 0.0;
};

/// Aggregated result of one training run.
struct RunResult {
  std::string algorithm;
  int num_workers = 0;

  double final_accuracy = 0.0;
  std::vector<CurvePoint> curve;

  double virtual_duration = 0.0;      // end-of-run virtual clock
  /// Virtual time at which the training loss first reached the configured
  /// target (TrainConfig::target_loss). 0 when no target is set; the full
  /// virtual duration (a lower bound on the true time) when the run never
  /// got there.
  double time_to_target = 0.0;
  std::int64_t total_samples = 0;     // across all workers
  std::int64_t total_iterations = 0;  // across all workers

  std::vector<WorkerMetrics> workers;

  std::uint64_t wire_bytes = 0;     // total network traffic
  std::uint64_t wire_messages = 0;
  std::uint64_t inter_machine_bytes = 0;  // traffic that crossed a NIC

  // Per-rank memory accounting (docs/memory-model.md): the worst rank's
  // peak resident bytes, total and per ledger category. Filled for every
  // run (the ledger itself is always on; only its gauges are gated).
  std::uint64_t mem_peak_rank_bytes = 0;
  std::uint64_t mem_peak_params_bytes = 0;
  std::uint64_t mem_peak_grads_bytes = 0;
  std::uint64_t mem_peak_optimizer_bytes = 0;
  std::uint64_t mem_peak_gather_bytes = 0;

  /// End-of-run values of every registry instrument (protocol probes,
  /// PS/network counters, staleness histograms, ...). See
  /// docs/observability.md for the catalogue.
  MetricSnapshot metrics;

  /// Critical-path analysis (docs/observability.md, "Critical-path
  /// profiler"). Non-null only when the run's `profile` knob was set.
  /// Derived exclusively from virtual-time spans, so its contents are
  /// byte-identical across hosts and compute_threads settings.
  std::shared_ptr<const profile::RunProfile> profile;

  // Host-side execution stats (wall clock, not virtual time). These never
  // feed back into simulated results; they describe how fast this host ran
  // the simulation. See docs/performance.md. The sim_* counters describe
  // the engine's own work (scheduler resumptions, wakes, peak ready-queue
  // length); they are deterministic but kept out of metric dumps and
  // campaign records — bench_simcore turns them into events/sec.
  double host_wall_s = 0.0;       // wall-clock seconds inside engine.run()
  int host_compute_threads = 0;   // resolved advance_compute pool size
  std::uint64_t sim_events = 0;       // scheduler resumptions
  std::uint64_t sim_wakes = 0;        // SimEngine::wake calls

  /// Samples per second of virtual time (paper: "images/sec").
  [[nodiscard]] double throughput() const noexcept {
    return virtual_duration > 0.0
               ? static_cast<double>(total_samples) / virtual_duration
               : 0.0;
  }

  /// Mean per-phase time across workers (seconds).
  [[nodiscard]] double mean_phase_time(Phase p) const noexcept;
};

}  // namespace dt::metrics
