#include "profile/spans.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "common/error.hpp"
#include "metrics/trace.hpp"
#include "metrics/writer.hpp"

namespace dt::profile {

namespace {
// Writes `parts` in order: strings as they are, integers in decimal, doubles
// in shortest round-trip form (std::to_chars without precision) — the same
// bytes on every host, and parsing one back returns the same double.
template <typename... Parts>
void emit(metrics::ChunkWriter& w, const Parts&... parts) {
  auto one = [&w](const auto& part) {
    using T = std::decay_t<decltype(part)>;
    if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof(buf), part);
      common::check(res.ec == std::errc(), "SpanLog: number formatting failed");
      w.put(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
    } else if constexpr (std::is_integral_v<T>) {
      w.integer(part);
    } else {
      w.put(part);
    }
  };
  (one(parts), ...);
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
  metrics::ChunkWriter w(os);
  for (std::size_t id = 0; id < endpoints_.size(); ++id) {
    const EndpointInfo& ep = endpoints_[id];
    emit(w, R"({"type":"endpoint","id":)", id, R"(,"name":")",
         escape(ep.name), R"(","machine":)", ep.machine, R"(,"worker":)",
         ep.worker_rank, "}\n");
  }
  for (const Span& s : spans_) {
    emit(w, R"({"type":"span","worker":)", s.worker, R"(,"round":)", s.round,
         R"(,"phase":")", span_phase_name(s.phase), R"(","start":)", s.start,
         R"(,"end":)", s.end, "}\n");
  }
  for (const MessageEdge& e : *edges_) {
    emit(w, R"({"type":"edge","src":)", e.src, R"(,"dst":)", e.dst,
         R"(,"bytes":)", e.bytes, R"(,"sent":)", e.sent, R"(,"arrival":)",
         e.arrival, R"(,"scope":")", e.inter_machine ? "inter" : "intra",
         "\"}\n");
  }
  w.flush();
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
  // Windows overlap the phase slices they were split into; give them their
  // own track so Perfetto does not nest them confusingly.
  std::unordered_map<std::int64_t, metrics::TraceLog::Id> worker_tracks;
  for (const Span& s : spans_) {
    const bool window = s.phase == kWindowPhase;
    const auto [it, added] =  // by 2 * rank, + 1 for the windows track
        worker_tracks.try_emplace(2 * std::int64_t{s.worker} + window);
    if (added) {
      it->second = trace.intern("worker" + std::to_string(s.worker) +
                                (window ? " windows" : ""));
    }
    trace.record(it->second, trace.intern(span_phase_name(s.phase)), s.start,
                 s.end);
  }
  // Edge tracks are the registered endpoint names, matching the worker
  // phase tracks when the endpoint is a worker mailbox.
  std::size_t num_endpoints = endpoints_.size();
  for (const MessageEdge& e : *edges_) {
    num_endpoints =
        std::max({num_endpoints, static_cast<std::size_t>(e.src) + 1,
                  static_cast<std::size_t>(e.dst) + 1});
  }
  std::vector<metrics::TraceLog::Id> tracks;
  for (std::size_t ep = 0; ep < num_endpoints; ++ep) {
    tracks.push_back(trace.intern(
        ep < endpoints_.size() && endpoints_[ep].worker_rank >= 0
            ? "worker" + std::to_string(endpoints_[ep].worker_rank)
            : endpoint_name(static_cast<int>(ep))));
  }
  trace.write_chrome_json(os, nullptr, {edges_, &tracks, /*by_bytes=*/true});
}

void SpanLog::save_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) common::fail("SpanLog: cannot open " + path);
  write_chrome_json(out);
  out.flush();
  if (!out.good()) common::fail("SpanLog: write failed for " + path);
}

}  // namespace dt::profile
