#include "profile/spans.hpp"

#include <charconv>
#include <fstream>
#include <ostream>

#include "common/error.hpp"
#include "metrics/trace.hpp"

namespace dt::profile {

namespace {
// Shortest round-trip decimal form (std::to_chars without precision): the
// same bytes on every host, and parsing it back returns the same double.
std::string num(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  common::check(res.ec == std::errc(), "SpanLog: number formatting failed");
  return std::string(buf, res.ptr);
}

// Escapes quotes and backslashes, and every control character as \u00XX.
// Deliberately not metrics::json_escape, which writes \n, \r and \t in
// short form: span logs keep the bytes they have always had.
std::string escape(const std::string& s) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
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

const char* span_phase_name(int phase) noexcept {
  switch (phase) {
    case 0: return "compute";
    case 1: return "local_agg";
    case 2: return "global_agg";
    case 3: return "comm";
    case kWindowPhase: return "window";
    default: return "unknown";
  }
}

void SpanLog::register_endpoint(int id, std::string name, int machine,
                                int worker_rank) {
  common::check(id >= 0, "SpanLog: negative endpoint id");
  if (static_cast<std::size_t>(id) >= endpoints_.size()) {
    endpoints_.resize(static_cast<std::size_t>(id) + 1);
  }
  endpoints_[static_cast<std::size_t>(id)] =
      EndpointInfo{std::move(name), machine, worker_rank};
}

void SpanLog::on_phase(int worker, std::int64_t round, int phase, double start,
                       double end) {
  spans_.push_back(Span{worker, round, phase, start, end});
}

void SpanLog::on_window(int worker, std::int64_t round, double start,
                        double end) {
  spans_.push_back(Span{worker, round, kWindowPhase, start, end});
}

void SpanLog::on_edge(int src_ep, int dst_ep, std::uint64_t bytes, double sent,
                      double arrival, bool inter_machine) {
  edges_.push_back(
      MessageEdge{src_ep, dst_ep, bytes, sent, arrival, inter_machine});
}

int SpanLog::endpoint_of_worker(int rank) const noexcept {
  for (std::size_t id = 0; id < endpoints_.size(); ++id) {
    if (endpoints_[id].worker_rank == rank) return static_cast<int>(id);
  }
  return -1;
}

std::string SpanLog::endpoint_name(int id) const {
  if (id >= 0 && static_cast<std::size_t>(id) < endpoints_.size() &&
      !endpoints_[static_cast<std::size_t>(id)].name.empty()) {
    return endpoints_[static_cast<std::size_t>(id)].name;
  }
  return "ep" + std::to_string(id);
}

void SpanLog::write_jsonl(std::ostream& os) const {
  for (std::size_t id = 0; id < endpoints_.size(); ++id) {
    const EndpointInfo& ep = endpoints_[id];
    os << "{\"type\":\"endpoint\",\"id\":" << id << ",\"name\":\""
       << escape(ep.name) << "\",\"machine\":" << ep.machine
       << ",\"worker\":" << ep.worker_rank << "}\n";
  }
  for (const Span& s : spans_) {
    os << "{\"type\":\"span\",\"worker\":" << s.worker
       << ",\"round\":" << s.round << ",\"phase\":\""
       << span_phase_name(s.phase) << "\",\"start\":" << num(s.start)
       << ",\"end\":" << num(s.end) << "}\n";
  }
  for (const MessageEdge& e : edges_) {
    os << "{\"type\":\"edge\",\"src\":" << e.src << ",\"dst\":" << e.dst
       << ",\"bytes\":" << e.bytes << ",\"sent\":" << num(e.sent)
       << ",\"arrival\":" << num(e.arrival) << ",\"scope\":\""
       << (e.inter_machine ? "inter" : "intra") << "\"}\n";
  }
  common::check(os.good(), "SpanLog: stream write failed");
}

void SpanLog::save_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) common::fail("SpanLog: cannot open " + path);
  write_jsonl(out);
  out.flush();
  if (!out.good()) common::fail("SpanLog: write failed for " + path);
}

void SpanLog::write_chrome_json(std::ostream& os) const {
  metrics::TraceLog trace;
  trace.set_process_name("dtrain profile");
  for (const Span& s : spans_) {
    std::string track = "worker" + std::to_string(s.worker);
    // Windows overlap the phase slices they were split into; give them
    // their own track so Perfetto does not nest them confusingly.
    if (s.phase == kWindowPhase) track += " windows";
    trace.record(track, span_phase_name(s.phase), s.start, s.end);
  }
  std::uint64_t id = 0;
  for (const MessageEdge& e : edges_) {
    // Edge tracks are the registered endpoint names, matching the worker
    // phase tracks when the endpoint is a worker mailbox.
    const EndpointInfo* src = nullptr;
    const EndpointInfo* dst = nullptr;
    if (e.src >= 0 && static_cast<std::size_t>(e.src) < endpoints_.size()) {
      src = &endpoints_[static_cast<std::size_t>(e.src)];
    }
    if (e.dst >= 0 && static_cast<std::size_t>(e.dst) < endpoints_.size()) {
      dst = &endpoints_[static_cast<std::size_t>(e.dst)];
    }
    auto track_of = [this](const EndpointInfo* ep, int id_) {
      if (ep != nullptr && ep->worker_rank >= 0) {
        return "worker" + std::to_string(ep->worker_rank);
      }
      return endpoint_name(id_);
    };
    trace.flow(track_of(src, e.src), track_of(dst, e.dst),
               std::to_string(e.bytes) + "B", e.sent, e.arrival, id++);
  }
  trace.write_chrome_json(os);
}

void SpanLog::save_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) common::fail("SpanLog: cannot open " + path);
  write_chrome_json(out);
  out.flush();
  if (!out.good()) common::fail("SpanLog: write failed for " + path);
}

}  // namespace dt::profile
