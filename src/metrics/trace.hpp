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
//   - counter events ("C"): sampled registry scalars, drawn by Perfetto as
//     step plots above the tracks (see metrics/sampler.hpp);
//   - flow events ("s"/"f"): one arrow per network message from the send on
//     the source endpoint's track to its delivery on the destination's —
//     this is what makes staleness and convoy effects *visible* (e.g. every
//     gradient push crossing a barrier round boundary).
//
// Cost: a log keeps one table of the distinct strings it has seen (track
// names, event names) and stores every event as a plain record of 32-bit
// string ids plus doubles. The string-taking record/counter/instant/flow
// calls look their strings up by std::string_view, so a name the log
// already knows costs a hash and no allocation; callers on a per-message
// path can intern() once and pass ids. write_chrome_json streams through
// a bounded metrics::ChunkWriter buffer (metrics/writer.hpp) and escapes
// each distinct string once.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dt::metrics {

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

  /// Names the (single) trace process — emitted as a "process_name"
  /// metadata event so Perfetto's track group shows e.g. "dtrain bsp"
  /// instead of the bare pid. Empty (default) emits no such event, keeping
  /// pre-existing traces byte-identical.
  void set_process_name(std::string name) { process_name_ = std::move(name); }
  [[nodiscard]] const std::string& process_name() const noexcept {
    return process_name_;
  }

  /// Total recorded events (slices + counters + flows + instants).
  [[nodiscard]] std::size_t size() const noexcept {
    return events_.size() + counter_events_.size() + flow_events_.size() +
           instant_events_.size();
  }

  /// Chrome-tracing JSON array; pid 0, timestamps in µs. Each distinct
  /// track gets one tid, numbered by first appearance when the events are
  /// scanned kind by kind — slices, then counters, then flows (source
  /// track before destination track), then instants — each kind in
  /// recording order. After the optional "process_name" event come the
  /// "thread_name" metadata events sorted by track name, then slices,
  /// counters, instants and flow pairs. Throws if the stream fails.
  void write_chrome_json(std::ostream& os) const;

  /// Convenience: writes the JSON to `path` (overwrites). Throws with the
  /// path in the message when the file cannot be opened or written.
  void save(const std::string& path) const;

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
  struct FlowEvent {
    Id src_track;
    Id dst_track;
    Id name;
    double sent;
    double arrival;
    std::uint64_t id;
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
  [[nodiscard]] const std::vector<FlowEvent>& flow_events() const noexcept {
    return flow_events_;
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
  std::vector<FlowEvent> flow_events_;
  std::vector<InstantEvent> instant_events_;
};

}  // namespace dt::metrics
