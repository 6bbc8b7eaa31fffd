// Virtual-time execution traces.
//
// When a TrainConfig sets `trace_path`, every worker phase interval
// (compute / local agg / global agg / comm, per iteration) is recorded and
// written as a Chrome-tracing ("catapult") JSON file, loadable in
// chrome://tracing or Perfetto: one track per worker, virtual microseconds
// on the time axis. Invaluable for understanding *why* an algorithm's
// breakdown looks the way it does (e.g. watching BSP's barrier convoy).
//
// Beyond phase slices ("X" events) a TraceLog also records:
//   - counter events ("C"): single samples (e.g. the memory ledger's
//     per-rank bytes) and sampled registry scalars, drawn by Perfetto as
//     step plots above the tracks. A TimeSeriesSampler tick is recorded as
//     one series-row marker in the counter stream, not one counter per
//     cell: the values live once, in the sampler's change-only table
//     (metrics/sampler.hpp), and the export expands each marker into one
//     counter per column, interleaved with the single counters in
//     recording order;
//   - flow events ("s"/"f"): one arrow per network message from the send on
//     the source endpoint's track to its delivery on the destination's —
//     this is what makes staleness and convoy effects *visible* (e.g. every
//     gradient push crossing a barrier round boundary). The export expands
//     a run's flows from its edge log (metrics/span_sink.hpp); the log
//     holds only lost messages, each with a marker into the edge stream.
//
// Cost: a log keeps one table of the distinct strings it has seen (track
// names, event names) and stores every event as a plain record of 32-bit
// string ids plus doubles. The string-taking record/counter/instant/flow
// calls look their strings up by std::string_view, so a name the log
// already knows costs a hash and no allocation; PhaseTimer and the sampler
// intern() once and pass ids. write_chrome_json streams through a bounded
// metrics::ChunkWriter buffer (metrics/writer.hpp), escapes each distinct
// string once (an edge's flow name is written from its endpoints' escaped
// names), and formats a counter timestamp or a counter series' value only
// when it differs from the previous one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "metrics/span_sink.hpp"

namespace dt::metrics {

class TimeSeriesSampler;

/// What a TraceLog export expands flows from: one "s"/"f" pair per edge
/// and per lost flow, in recording order, between endpoints' tracks.
struct EdgeFlows {
  const EdgeLog* edges = nullptr;
  const std::vector<std::uint32_t>* tracks = nullptr;  // TraceLog::Ids
  /// Names flows "<bytes>B" with ids from 0 (the profiler's trace) instead
  /// of "<prefix><src>-><dst>" from 1, prefixed "", "recover " or "lost ".
  bool by_bytes = false;
};

class TraceLog {
 public:
  /// Handle of an interned string; valid for the lifetime of the log.
  using Id = std::uint32_t;

  /// The id of `s`, adding it to the string table when new.
  Id intern(std::string_view s);
  /// The string behind `id`.
  [[nodiscard]] const std::string& str(Id id) const { return strings_.at(id); }

  /// Records a complete interval [start, end) (virtual seconds) on `track`.
  void record(std::string_view track, std::string_view name, double start,
              double end) {
    record(intern(track), intern(name), start, end);
  }
  void record(Id track, Id name, double start, double end);

  /// Records a counter sample: `name` has `value` at virtual time `t`.
  void counter(std::string_view track, std::string_view name, double t,
               double value) {
    counter(intern(track), intern(name), t, value);
  }
  void counter(Id track, Id name, double t, double value) {
    counter_events_.push_back(CounterEvent{track, name, t, value});
  }

  /// Records that row `row` of a TimeSeriesSampler's table was sampled:
  /// one marker in the counter stream, expanded at export into one counter
  /// per column of that row on `track` (TimeSeriesSampler::set_trace).
  void series_row(Id track, std::size_t row) {
    series_rows_.push_back(SeriesRow{counter_events_.size(), row, track});
  }

  /// Records a zero-duration instant event (Chrome "i" phase, rendered as
  /// a vertical marker) — used for injected faults (crash/rejoin).
  void instant(std::string_view track, std::string_view name, double t) {
    instant_events_.push_back(InstantEvent{intern(track), intern(name), t});
  }

  /// Records one message flow: sent from `src_track` at `sent` (virtual
  /// seconds), delivered on `dst_track` at `arrival`. `id` pairs the two
  /// ends; use a fresh id per message.
  void flow(std::string_view src_track, std::string_view dst_track,
            std::string_view name, double sent, double arrival,
            std::uint64_t id);

  /// Records a message lost between endpoints, placed before edge `at` of
  /// the run's edge log; exported as the flow "lost <src>-><dst>".
  void lost_flow(int src_ep, int dst_ep, std::uint64_t bytes, double sent,
                 double arrival, std::size_t at);

  /// Names the (single) trace process — emitted as a "process_name"
  /// metadata event so Perfetto's track group shows e.g. "dtrain bsp"
  /// instead of the bare pid. Empty (default) emits no such event, keeping
  /// pre-existing traces byte-identical.
  void set_process_name(std::string name) { process_name_ = std::move(name); }
  [[nodiscard]] const std::string& process_name() const noexcept {
    return process_name_;
  }

  /// Total records (slices + single counters + series-row markers + flows
  /// + lost flows + instants).
  [[nodiscard]] std::size_t size() const noexcept {
    return events_.size() + counter_events_.size() + series_rows_.size() +
           flow_events_.size() + lost_flows_.size() + instant_events_.size();
  }

  /// Chrome-tracing JSON array; pid 0, timestamps in µs. Each distinct
  /// track gets one tid, numbered by first appearance when the events are
  /// scanned kind by kind — slices, then counters, then flows (source
  /// track before destination track), then instants — each kind in
  /// recording order. After the optional "process_name" event come the
  /// "thread_name" metadata events sorted by track name, then slices,
  /// counters, instants and flow pairs.
  ///
  /// `series` is the sampler whose rows were recorded by series_row(), and
  /// `flows` the edge log the lost flows were placed in: the log keeps no
  /// pointer to either. Each series marker expands, in its place among the
  /// single counters, into one counter per column of its row (none for a
  /// row without columns), walking the table with one
  /// TimeSeriesSampler::Cursor. Throws common::Error when `series` or
  /// `flows` lacks what a marker or a lost flow names or if the stream
  /// fails, std::out_of_range when an edge's endpoint has no track.
  void write_chrome_json(std::ostream& os,
                         const TimeSeriesSampler* series = nullptr,
                         const EdgeFlows& flows = {}) const;

  /// Convenience: writes the JSON to `path` (overwrites). Throws with the
  /// path in the message when the file cannot be opened or written, and,
  /// before opening it, on a missing `series` or `flows` as
  /// write_chrome_json does.
  void save(const std::string& path, const TimeSeriesSampler* series = nullptr,
            const EdgeFlows& flows = {}) const;

  // Recorded events; names and tracks are ids for str().
  struct Event {
    Id track;
    Id name;
    double start;
    double end;
  };
  struct CounterEvent {
    Id track;
    Id name;
    double t;
    double value;
  };
  /// A sampler tick: row `row` of the series table, placed before
  /// counter_events()[at] in recording order.
  struct SeriesRow {
    std::size_t at;
    std::size_t row;
    Id track;
  };
  struct FlowEvent {
    Id src_track;
    Id dst_track;
    Id name;
    double sent;
    double arrival;
    std::uint64_t id;
  };
  /// A lost message, placed before edge `at` of the edge log.
  struct LostFlow {
    std::size_t at;
    int src, dst;  // endpoint ids
    std::uint64_t bytes;
    double sent, arrival;
  };
  struct InstantEvent {
    Id track;
    Id name;
    double t;
  };
  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const std::vector<CounterEvent>& counter_events()
      const noexcept {
    return counter_events_;
  }
  [[nodiscard]] const std::vector<SeriesRow>& series_rows() const noexcept {
    return series_rows_;
  }
  [[nodiscard]] const std::vector<FlowEvent>& flow_events() const noexcept {
    return flow_events_;
  }
  [[nodiscard]] const std::vector<LostFlow>& lost_flows() const noexcept {
    return lost_flows_;
  }
  [[nodiscard]] const std::vector<InstantEvent>& instant_events()
      const noexcept {
    return instant_events_;
  }

 private:
  std::string process_name_;
  // String table: a deque never relocates its elements, so the views keyed
  // in index_ stay valid as strings are added.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, Id> index_;
  std::vector<Event> events_;
  std::vector<CounterEvent> counter_events_;
  std::vector<SeriesRow> series_rows_;
  std::vector<FlowEvent> flow_events_;
  std::vector<LostFlow> lost_flows_;
  std::vector<InstantEvent> instant_events_;
};

}  // namespace dt::metrics
