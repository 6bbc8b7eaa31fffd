// Critical-path profiler, part 1: the span log.
//
// A SpanLog is the raw material of the profiler — an append-only record of
// everything that happened in one run, in *virtual* time:
//   - phase spans: per-(worker, round) intervals for the Figure-3 phases
//     (compute / local_agg / global_agg / comm), captured by PhaseTimer;
//   - windows: the request→response interval each launcher splits into
//     comm + global_agg via account_window (phase kind kWindowPhase);
//   - message edges: every delivered network message or bulk transfer
//     (src endpoint, dst endpoint, bytes, send time, arrival time).
//
// Spans are captured behind the `profile` knob through metrics::SpanSink,
// so all algorithms and PS shards emit spans with no per-algorithm code;
// edges are read from the run's metrics::EdgeLog, which the Chrome trace
// expands its flows from too. Both are filled on the simulated threads
// (one at a time — the runtime serializes processes), in deterministic
// order, so the serialized forms are byte-identical across hosts and
// compute_threads settings.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/span_sink.hpp"

namespace dt::profile {

/// Phase kind stored in Span::phase. 0..3 mirror metrics::Phase; 4 marks an
/// account_window request-response window (not a leaf phase: it overlaps
/// the comm/global_agg split derived from it).
inline constexpr int kWindowPhase = 4;

[[nodiscard]] const char* span_phase_name(int phase) noexcept;

struct Span {
  int worker = 0;           // rank
  std::int64_t round = 0;   // worker-local iteration index when recorded
  int phase = 0;            // metrics::Phase as int, or kWindowPhase
  double start = 0.0;       // virtual seconds
  double end = 0.0;
};

using metrics::MessageEdge;

/// What an endpoint id means (worker rank / PS shard / other), registered
/// by Session before the run so reports can say "worker 3" and the
/// analyzer can tell worker endpoints from PS endpoints.
struct EndpointInfo {
  std::string name;         // "worker3", "ps0", ...
  int machine = 0;
  int worker_rank = -1;     // rank when this is a worker mailbox, else -1
};

class SpanLog final : public metrics::SpanSink {
 public:
  /// A log whose message edges are `edges`, which must outlive it.
  explicit SpanLog(const metrics::EdgeLog& edges) : edges_(&edges) {}

  /// Registers endpoint `id` (ids are dense, assigned by net::Network).
  void register_endpoint(int id, std::string name, int machine,
                         int worker_rank);

  // SpanSink -----------------------------------------------------------
  void on_phase(int worker, std::int64_t round, int phase, double start,
                double end) override;
  void on_window(int worker, std::int64_t round, double start,
                 double end) override;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const metrics::EdgeLog& edges() const noexcept {
    return *edges_;
  }
  [[nodiscard]] const std::vector<EndpointInfo>& endpoints() const noexcept {
    return endpoints_;
  }
  /// Endpoint id of `rank`'s worker mailbox, or -1 when never registered.
  [[nodiscard]] int endpoint_of_worker(int rank) const noexcept;
  /// Display name for an endpoint ("ep<id>" when unregistered).
  [[nodiscard]] std::string endpoint_name(int id) const;

  /// One JSON object per line: first the endpoint table, then every span
  /// and edge in capture order. Numbers use shortest round-trip formatting
  /// (byte-stable across hosts). Throws if the stream fails.
  void write_jsonl(std::ostream& os) const;
  void save_jsonl(const std::string& path) const;

  /// Chrome-tracing JSON: one track per worker with phase slices (windows
  /// as an overlay track per worker), one flow arrow per message edge, and
  /// process/thread-name metadata. Complements metrics::TraceLog — this
  /// export exists even for runs that never set `trace_path`. Flows are
  /// expanded by TraceLog's writer, named by their byte size.
  void write_chrome_json(std::ostream& os) const;
  void save_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  const metrics::EdgeLog* edges_;
  std::vector<EndpointInfo> endpoints_;  // indexed by endpoint id
};

}  // namespace dt::profile
