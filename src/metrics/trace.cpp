#include "metrics/trace.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "metrics/writer.hpp"

namespace dt::metrics {

TraceLog::Id TraceLog::intern(std::string_view s) {
  if (const auto it = index_.find(s); it != index_.end()) return it->second;
  const auto id = static_cast<Id>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), id);
  return id;
}

void TraceLog::record(Id track, Id name, double start, double end) {
  common::check(end >= start, "TraceLog: negative-duration event");
  events_.push_back(Event{track, name, start, end});
}

void TraceLog::flow(Id src_track, Id dst_track, Id name, double sent,
                    double arrival, std::uint64_t id) {
  common::check(arrival >= sent, "TraceLog: flow arrives before it is sent");
  flow_events_.push_back(
      FlowEvent{src_track, dst_track, name, sent, arrival, id});
}

void TraceLog::write_chrome_json(std::ostream& os) const {
  // Tids by first appearance in scan order (see the header).
  std::vector<int> tid(strings_.size(), -1);
  std::vector<Id> tracks;
  auto see = [&tid, &tracks](Id track) {
    if (tid[track] < 0) {
      tid[track] = static_cast<int>(tracks.size());
      tracks.push_back(track);
    }
  };
  for (const Event& e : events_) see(e.track);
  for (const CounterEvent& e : counter_events_) see(e.track);
  for (const FlowEvent& e : flow_events_) {
    see(e.src_track);
    see(e.dst_track);
  }
  for (const InstantEvent& e : instant_events_) see(e.track);
  std::sort(tracks.begin(), tracks.end(),
            [this](Id a, Id b) { return strings_[a] < strings_[b]; });

  // Each distinct string is escaped once, not once per event.
  std::vector<std::string> text;
  text.reserve(strings_.size());
  for (const std::string& s : strings_) text.push_back(json_escape(s));

  ChunkWriter w(os);
  w.put("[\n");
  bool first = true;
  auto sep = [&w, &first] {
    if (!first) w.put(",\n");
    first = false;
  };
  auto head = [&w, &sep, &tid, &text](std::string_view prefix, Id track,
                                      Id name) {
    sep();
    w.put(prefix);
    w.integer(tid[track]);
    w.put(R"(,"name":")");
    w.put(text[name]);
  };
  // Process/thread-name metadata so the viewer shows run and worker names.
  if (!process_name_.empty()) {
    sep();
    w.put(R"({"ph":"M","pid":0,"name":"process_name","args":{"name":")");
    w.put(json_escape(process_name_));
    w.put(R"("}})");
  }
  for (const Id track : tracks) {
    sep();
    w.put(R"({"ph":"M","pid":0,"tid":)");
    w.integer(tid[track]);
    w.put(R"(,"name":"thread_name","args":{"name":")");
    w.put(text[track]);
    w.put(R"("}})");
  }
  for (const Event& e : events_) {
    head(R"({"ph":"X","pid":0,"tid":)", e.track, e.name);
    w.put(R"(","ts":)");
    w.number(e.start * 1e6);
    w.put(R"(,"dur":)");
    w.number((e.end - e.start) * 1e6);
    w.put('}');
  }
  // A sampler tick stamps every series with one time, and most series hold
  // still between ticks: memo the time, and each series' value by name id.
  ChunkWriter::NumberMemo counter_ts;
  std::vector<ChunkWriter::NumberMemo> counter_value(strings_.size());
  for (const CounterEvent& e : counter_events_) {
    head(R"({"ph":"C","pid":0,"tid":)", e.track, e.name);
    w.put(R"(","ts":)");
    w.number(e.t * 1e6, counter_ts);
    w.put(R"(,"args":{"value":)");
    w.number(e.value, counter_value[e.name]);
    w.put("}}");
  }
  for (const InstantEvent& e : instant_events_) {
    head(R"({"ph":"i","s":"t","pid":0,"tid":)", e.track, e.name);
    w.put(R"(","ts":)");
    w.number(e.t * 1e6);
    w.put('}');
  }
  for (const FlowEvent& e : flow_events_) {
    head(R"({"ph":"s","cat":"net","pid":0,"tid":)", e.src_track, e.name);
    w.put(R"(","id":)");
    w.integer(e.id);
    w.put(R"(,"ts":)");
    w.number(e.sent * 1e6);
    w.put('}');
    head(R"({"ph":"f","bp":"e","cat":"net","pid":0,"tid":)", e.dst_track,
         e.name);
    w.put(R"(","id":)");
    w.integer(e.id);
    w.put(R"(,"ts":)");
    w.number(e.arrival * 1e6);
    w.put('}');
  }
  w.put("\n]\n");
  w.flush();
  common::check(os.good(), "TraceLog: stream write failed");
}

void TraceLog::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) {
    common::log_error("TraceLog: cannot open ", path);
    common::fail("TraceLog: cannot open " + path);
  }
  write_chrome_json(out);
  out.flush();
  if (!out.good()) common::fail("TraceLog: write failed for " + path);
}

}  // namespace dt::metrics
