#include "metrics/trace.hpp"

#include <fstream>
#include <map>
#include <ostream>

#include "common/error.hpp"
#include "common/log.hpp"

namespace dt::metrics {

void TraceLog::record(const std::string& track, const std::string& name,
                      double start, double end) {
  common::check(end >= start, "TraceLog: negative-duration event");
  events_.push_back(Event{track, name, start, end});
}

void TraceLog::counter(const std::string& track, const std::string& name,
                       double t, double value) {
  counter_events_.push_back(CounterEvent{track, name, t, value});
}

void TraceLog::instant(const std::string& track, const std::string& name,
                       double t) {
  instant_events_.push_back(InstantEvent{track, name, t});
}

void TraceLog::flow(const std::string& src_track, const std::string& dst_track,
                    const std::string& name, double sent, double arrival,
                    std::uint64_t id) {
  common::check(arrival >= sent, "TraceLog: flow arrives before it is sent");
  flow_events_.push_back(
      FlowEvent{src_track, dst_track, name, sent, arrival, id});
}

namespace {
// Full JSON string escaping: quotes, backslashes, and control characters
// (events and track names may carry user-provided strings from configs).
std::string escape(const std::string& s) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out += hex[u >> 4];
          out += hex[u & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}
}  // namespace

void TraceLog::write_chrome_json(std::ostream& os) const {
  std::map<std::string, int> tids;
  auto tid_of = [&tids](const std::string& track) {
    return tids.emplace(track, static_cast<int>(tids.size())).first->second;
  };
  for (const Event& e : events_) tid_of(e.track);
  for (const CounterEvent& e : counter_events_) tid_of(e.track);
  for (const FlowEvent& e : flow_events_) {
    tid_of(e.src_track);
    tid_of(e.dst_track);
  }
  for (const InstantEvent& e : instant_events_) tid_of(e.track);

  os << "[\n";
  bool first = true;
  auto sep = [&os, &first] {
    if (!first) os << ",\n";
    first = false;
  };
  // Process/thread-name metadata so the viewer shows run and worker names.
  if (!process_name_.empty()) {
    sep();
    os << R"({"ph":"M","pid":0,"name":"process_name","args":{"name":")"
       << escape(process_name_) << R"("}})";
  }
  for (const auto& [track, tid] : tids) {
    sep();
    os << R"({"ph":"M","pid":0,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":")" << escape(track)
       << R"("}})";
  }
  for (const Event& e : events_) {
    sep();
    os << R"({"ph":"X","pid":0,"tid":)" << tids[e.track] << R"(,"name":")"
       << escape(e.name) << R"(","ts":)" << e.start * 1e6 << R"(,"dur":)"
       << (e.end - e.start) * 1e6 << "}";
  }
  for (const CounterEvent& e : counter_events_) {
    sep();
    os << R"({"ph":"C","pid":0,"tid":)" << tids[e.track] << R"(,"name":")"
       << escape(e.name) << R"(","ts":)" << e.t * 1e6
       << R"(,"args":{"value":)" << e.value << "}}";
  }
  for (const InstantEvent& e : instant_events_) {
    sep();
    os << R"({"ph":"i","s":"t","pid":0,"tid":)" << tids[e.track]
       << R"(,"name":")" << escape(e.name) << R"(","ts":)" << e.t * 1e6
       << "}";
  }
  for (const FlowEvent& e : flow_events_) {
    sep();
    os << R"({"ph":"s","cat":"net","pid":0,"tid":)" << tids[e.src_track]
       << R"(,"name":")" << escape(e.name) << R"(","id":)" << e.id
       << R"(,"ts":)" << e.sent * 1e6 << "}";
    sep();
    os << R"({"ph":"f","bp":"e","cat":"net","pid":0,"tid":)"
       << tids[e.dst_track] << R"(,"name":")" << escape(e.name)
       << R"(","id":)" << e.id << R"(,"ts":)" << e.arrival * 1e6 << "}";
  }
  os << "\n]\n";
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
