#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "campaign/spec.hpp"
#include "common/error.hpp"

namespace dtbench {

// ---- Checks ----------------------------------------------------------------

Checks::Checks(const Options& opt, std::map<std::string, std::string> pinned)
    : workload_(opt.workload),
      pinned_seed_(opt.seed == kPinnedSeed && opt.pin_out.empty()),
      pinned_(std::move(pinned)) {}

void Checks::fail(const std::string& label, const std::string& why) {
  ++failed_;
  std::cerr << "FAIL " << workload_ << " " << label << ": " << why << "\n";
}

void Checks::threw(const std::string& label, const std::string& what) {
  ++attempted_;
  fail(label, "threw: " + what);
}

void Checks::record(const std::string& label, const std::string& outputs,
                    const std::string& problem) {
  ++attempted_;
  const std::string digest = dt::campaign::fnv1a_hex(outputs);
  digests_.emplace(label, digest);
  if (!problem.empty()) return fail(label, problem);
  const auto [first, inserted] = first_.emplace(label, outputs);
  if (!inserted && first->second != outputs) {
    return fail(label, "outputs differ from an earlier run of the same label");
  }
  if (!pinned_seed_) return;
  const auto pin = pinned_.find(workload_ + " " + label);
  if (pin == pinned_.end()) return fail(label, "no pinned digest");
  if (pin->second != digest) {
    fail(label, "digest " + digest + " != pinned " + pin->second);
  }
}

std::map<std::string, std::string> load_pins(const std::string& path) {
  std::map<std::string, std::string> pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, label, digest;
    if (fields >> workload >> label >> digest) {
      pins[workload + " " + label] = digest;
    }
  }
  return pins;
}

std::string canonical(const dt::metrics::RunResult& r,
                      dt::core::Workload& wl) {
  std::string params;
  if (wl.functional()) {
    for (int w = 0; w < wl.num_workers(); ++w) {
      for (const auto& t : wl.params(w)) {
        const auto values = t.data();
        params.append(reinterpret_cast<const char*>(values.data()),
                      values.size_bytes());
      }
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "virtual_duration=%a\ntotal_iterations=%" PRId64
                "\nwire_bytes=%" PRIu64 "\nwire_messages=%" PRIu64
                "\nfinal_accuracy=%a\nmem_peak_rank_bytes=%" PRIu64
                "\nparam_hash=%s\n",
                r.virtual_duration, r.total_iterations, r.wire_bytes,
                r.wire_messages, r.final_accuracy, r.mem_peak_rank_bytes,
                params.empty() ? "" : dt::campaign::fnv1a_hex(params).c_str());
  return buf;
}

// ---- Spans -----------------------------------------------------------------

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

Spans::Scope::Scope(Spans& spans, std::string name) : spans_(spans) {
  if (!spans_.enabled_) return;
  id_ = static_cast<int>(spans_.spans_.size());
  Span s;
  s.id = id_;
  s.parent = spans_.open_.empty() ? -1 : spans_.open_.back();
  s.name = std::move(name);
  s.start_ns = spans_.now_ns();
  spans_.spans_.push_back(std::move(s));
  spans_.open_.push_back(id_);
}

Spans::Scope::~Scope() {
  if (id_ < 0) return;
  spans_.spans_[static_cast<std::size_t>(id_)].end_ns = spans_.now_ns();
  spans_.open_.pop_back();
}

std::vector<std::int64_t> Spans::self_ns() const {
  // Children of one parent run one after another on this thread, so they
  // never overlap and their durations add up to the covered part.
  std::vector<std::int64_t> self(spans_.size());
  for (const Span& s : spans_) {
    self[static_cast<std::size_t>(s.id)] += s.end_ns - s.start_ns;
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

void Spans::save_jsonl(const std::string& path) const {
  std::ofstream out(path);
  dt::common::check(static_cast<bool>(out), "cannot write " + path);
  const std::vector<std::int64_t> self = self_ns();
  struct Total {
    std::int64_t count = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Total> totals;
  for (const Span& s : spans_) {
    const std::int64_t own = self[static_cast<std::size_t>(s.id)];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"self_ns\":" << own << "}\n";
    Total& t = totals[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += own;
  }
  for (const auto& [name, t] : totals) {
    out << "{\"summary\":\"" << name << "\",\"count\":" << t.count
        << ",\"total_ns\":" << t.total_ns << ",\"self_ns\":" << t.self_ns
        << "}\n";
  }
}

}  // namespace dtbench
