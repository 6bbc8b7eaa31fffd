// Capture interfaces of the critical-path profiler (dt::profile), kept in
// dt::metrics so the network and the metrics layer need not depend on it.
// Phase intervals (PhaseTimer, account_window) go to a SpanSink, whose one
// implementation is profile::SpanLog. net::Network appends each delivered
// message to an EdgeLog, the only per-message observer record: the
// profiler analyzes it and the Chrome trace expands its flows from it.
// Session attaches both only when a run profiles or traces.
#pragma once

#include <cstdint>
#include <vector>

namespace dt::metrics {

class SpanSink {
 public:
  virtual ~SpanSink() = default;

  /// One phase interval [start, end) of `worker` (virtual seconds), during
  /// its `round`-th local iteration. `phase` is a metrics::Phase value.
  virtual void on_phase(int worker, std::int64_t round, int phase,
                        double start, double end) = 0;

  /// One request-response window [start, end): the interval the launchers
  /// split into comm + global_agg after the fact (account_window). The
  /// analyzer explains it by tracing message edges instead.
  virtual void on_window(int worker, std::int64_t round, double start,
                         double end) = 0;
};

/// A packet delivered to a mailbox (a duplicate is a second delivery) or a
/// bulk crash-recovery transfer (net::Network::transfer).
enum class EdgeKind : std::uint8_t { delivered, recover };

/// One delivered message (virtual seconds). Lost packets are not edges.
struct MessageEdge {
  int src = 0;              // network endpoint ids
  int dst = 0;
  std::uint64_t bytes = 0;  // wire bytes
  double sent = 0.0;        // virtual send time (after send overhead)
  double arrival = 0.0;     // virtual delivery time
  bool inter_machine = false;
  EdgeKind kind = EdgeKind::delivered;  // in inter_machine's padding
};
static_assert(sizeof(MessageEdge) == 40, "MessageEdge grew past 40 bytes");

using EdgeLog = std::vector<MessageEdge>;

}  // namespace dt::metrics
