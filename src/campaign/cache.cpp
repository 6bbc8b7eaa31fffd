#include "campaign/cache.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "campaign/spec.hpp"
#include "common/error.hpp"

namespace dt::campaign {

namespace {

// Escapes only quotes and backslashes; control characters pass through.
// Deliberately not metrics::json_escape, which emits different bytes for
// them: serialized records feed the cache fingerprints and the fnv64
// integrity line, so a change here would invalidate every cached run.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Shortest round-trip decimal form (std::to_chars without precision):
/// parsing it back yields the exact same double, and the same double always
/// prints the same bytes — the property the byte-identity contract needs.
std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_number(std::uint64_t v) { return std::to_string(v); }
std::string json_number(std::int64_t v) { return std::to_string(v); }

/// Minimal strict parser for exactly the flat shape serialize() emits: an
/// object whose values are strings, numbers, or one level of string->string
/// object. Any deviation throws (mapped to nullopt by RunRecord::parse).
struct ParseFail {};

class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : s_(text) {}

  void expect(char c) {
    if (i_ >= s_.size() || s_[i_] != c) throw ParseFail{};
    ++i_;
  }
  [[nodiscard]] bool peek_is(char c) const {
    return i_ < s_.size() && s_[i_] == c;
  }
  [[nodiscard]] bool done() const { return i_ >= s_.size(); }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (i_ >= s_.size()) throw ParseFail{};
      const char c = s_[i_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (i_ >= s_.size()) throw ParseFail{};
        out += s_[i_++];
      } else {
        out += c;
      }
    }
  }

  /// Raw number text up to the next ',' or '}' (validated by the caller's
  /// from_chars conversion).
  std::string parse_number_raw() {
    std::size_t j = i_;
    while (j < s_.size() && s_[j] != ',' && s_[j] != '}') ++j;
    if (j == i_) throw ParseFail{};
    std::string out = s_.substr(i_, j - i_);
    i_ = j;
    return out;
  }

 private:
  const std::string& s_;
  std::size_t i_ = 0;
};

double to_double(const std::string& raw) {
  double v = 0.0;
  const auto res = std::from_chars(raw.data(), raw.data() + raw.size(), v);
  if (res.ec != std::errc{} || res.ptr != raw.data() + raw.size()) {
    throw ParseFail{};
  }
  return v;
}

template <typename Int>
Int to_int(const std::string& raw) {
  Int v = 0;
  const auto res = std::from_chars(raw.data(), raw.data() + raw.size(), v);
  if (res.ec != std::errc{} || res.ptr != raw.data() + raw.size()) {
    throw ParseFail{};
  }
  return v;
}

}  // namespace

std::string RunRecord::serialize() const {
  std::ostringstream os;
  os << "{\"fingerprint\":\"" << json_escape(fingerprint) << "\",\"axes\":{";
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(axes[i].first) << "\":\""
       << json_escape(axes[i].second) << '"';
  }
  os << "},\"replicate\":" << replicate << ",\"seed\":" << seed
     << ",\"algorithm\":\"" << json_escape(algorithm) << '"'
     << ",\"workers\":" << workers
     << ",\"final_accuracy\":" << json_number(final_accuracy)
     << ",\"virtual_duration\":" << json_number(virtual_duration)
     << ",\"time_to_target\":" << json_number(time_to_target)
     << ",\"throughput\":" << json_number(throughput)
     << ",\"wire_bytes\":" << json_number(wire_bytes)
     << ",\"wire_messages\":" << json_number(wire_messages)
     << ",\"total_samples\":" << json_number(total_samples)
     << ",\"total_iterations\":" << json_number(total_iterations)
     << ",\"cp_compute\":" << json_number(cp_compute)
     << ",\"cp_local_agg\":" << json_number(cp_local_agg)
     << ",\"cp_comm\":" << json_number(cp_comm)
     << ",\"cp_ps\":" << json_number(cp_ps)
     << ",\"cp_wait\":" << json_number(cp_wait)
     << ",\"mem_peak_rank_bytes\":" << json_number(mem_peak_rank_bytes)
     << ",\"mem_params_bytes\":" << json_number(mem_params_bytes)
     << ",\"mem_grads_bytes\":" << json_number(mem_grads_bytes)
     << ",\"mem_optimizer_bytes\":" << json_number(mem_optimizer_bytes)
     << ",\"mem_gather_bytes\":" << json_number(mem_gather_bytes)
     << ",\"param_hash\":\"" << json_escape(param_hash) << "\"}";
  const std::string line = os.str();
  return line + "\n{\"fnv64\":\"" + fnv1a_hex(line) + "\"}\n";
}

std::optional<RunRecord> RunRecord::parse(const std::string& text) {
  // Split record line / footer line and verify the integrity hash first:
  // a record is either fully intact or not a record.
  const std::size_t nl = text.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  const std::string line = text.substr(0, nl);
  const std::string footer_expected =
      "{\"fnv64\":\"" + fnv1a_hex(line) + "\"}\n";
  if (text.substr(nl + 1) != footer_expected) return std::nullopt;

  try {
    RunRecord rec;
    JsonCursor cur(line);
    cur.expect('{');
    bool first = true;
    while (!cur.peek_is('}')) {
      if (!first) cur.expect(',');
      first = false;
      const std::string key = cur.parse_string();
      cur.expect(':');
      if (key == "axes") {
        cur.expect('{');
        bool afirst = true;
        while (!cur.peek_is('}')) {
          if (!afirst) cur.expect(',');
          afirst = false;
          const std::string axis = cur.parse_string();
          cur.expect(':');
          rec.axes.emplace_back(axis, cur.parse_string());
        }
        cur.expect('}');
      } else if (key == "fingerprint") {
        rec.fingerprint = cur.parse_string();
      } else if (key == "algorithm") {
        rec.algorithm = cur.parse_string();
      } else if (key == "param_hash") {
        rec.param_hash = cur.parse_string();
      } else if (key == "replicate") {
        rec.replicate = to_int<int>(cur.parse_number_raw());
      } else if (key == "seed") {
        rec.seed = to_int<std::uint64_t>(cur.parse_number_raw());
      } else if (key == "workers") {
        rec.workers = to_int<int>(cur.parse_number_raw());
      } else if (key == "final_accuracy") {
        rec.final_accuracy = to_double(cur.parse_number_raw());
      } else if (key == "virtual_duration") {
        rec.virtual_duration = to_double(cur.parse_number_raw());
      } else if (key == "time_to_target") {
        rec.time_to_target = to_double(cur.parse_number_raw());
      } else if (key == "throughput") {
        rec.throughput = to_double(cur.parse_number_raw());
      } else if (key == "wire_bytes") {
        rec.wire_bytes = to_int<std::uint64_t>(cur.parse_number_raw());
      } else if (key == "wire_messages") {
        rec.wire_messages = to_int<std::uint64_t>(cur.parse_number_raw());
      } else if (key == "total_samples") {
        rec.total_samples = to_int<std::int64_t>(cur.parse_number_raw());
      } else if (key == "total_iterations") {
        rec.total_iterations = to_int<std::int64_t>(cur.parse_number_raw());
      } else if (key == "cp_compute") {
        rec.cp_compute = to_double(cur.parse_number_raw());
      } else if (key == "cp_local_agg") {
        rec.cp_local_agg = to_double(cur.parse_number_raw());
      } else if (key == "cp_comm") {
        rec.cp_comm = to_double(cur.parse_number_raw());
      } else if (key == "cp_ps") {
        rec.cp_ps = to_double(cur.parse_number_raw());
      } else if (key == "cp_wait") {
        rec.cp_wait = to_double(cur.parse_number_raw());
      } else if (key == "mem_peak_rank_bytes") {
        rec.mem_peak_rank_bytes = to_int<std::uint64_t>(cur.parse_number_raw());
      } else if (key == "mem_params_bytes") {
        rec.mem_params_bytes = to_int<std::uint64_t>(cur.parse_number_raw());
      } else if (key == "mem_grads_bytes") {
        rec.mem_grads_bytes = to_int<std::uint64_t>(cur.parse_number_raw());
      } else if (key == "mem_optimizer_bytes") {
        rec.mem_optimizer_bytes = to_int<std::uint64_t>(cur.parse_number_raw());
      } else if (key == "mem_gather_bytes") {
        rec.mem_gather_bytes = to_int<std::uint64_t>(cur.parse_number_raw());
      } else {
        return std::nullopt;  // unknown field: not our format
      }
    }
    cur.expect('}');
    if (!cur.done()) return std::nullopt;
    if (rec.fingerprint.empty()) return std::nullopt;
    return rec;
  } catch (const ParseFail&) {
    return std::nullopt;
  }
}

RunCache::RunCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    common::fail("campaign: cannot create cache dir " + dir_ + ": " +
                 ec.message());
  }
}

std::string RunCache::path_of(const std::string& fingerprint) const {
  return dir_ + "/" + fingerprint + ".jsonl";
}

std::optional<RunRecord> RunCache::load(
    const std::string& fingerprint) const {
  if (!enabled()) return std::nullopt;
  std::ifstream in(path_of(fingerprint), std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  auto rec = RunRecord::parse(ss.str());
  if (!rec || rec->fingerprint != fingerprint) return std::nullopt;
  rec->from_cache = true;
  return rec;
}

void RunCache::store(const RunRecord& record) const {
  if (!enabled()) return;
  const std::string path = path_of(record.fingerprint);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) common::fail("campaign: cannot write " + tmp);
    out << record.serialize();
    if (!out.good()) common::fail("campaign: write failed: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    common::fail("campaign: cannot publish cache entry " + path + ": " +
                 ec.message());
  }
}

}  // namespace dt::campaign
