#include "metrics/sampler.hpp"

#include <fstream>
#include <ostream>

#include "common/error.hpp"
#include "metrics/trace.hpp"
#include "metrics/writer.hpp"
#include "runtime/sim.hpp"

namespace dt::metrics {

TimeSeriesSampler::TimeSeriesSampler(const MetricRegistry& registry,
                                     double period)
    : registry_(registry), period_(period) {
  common::check(period_ > 0.0, "TimeSeriesSampler: period must be > 0");
}

void TimeSeriesSampler::attach(runtime::SimEngine& engine) {
  engine.spawn(
      "metrics-sampler",
      [this](runtime::Process& self) {
        for (;;) {
          self.advance(period_);  // throws ProcessKilled at shutdown
          sample(self.now());
        }
      },
      /*daemon=*/true);
}

void TimeSeriesSampler::set_trace(TraceLog* trace) {
  trace_ = trace;
  trace_names_.clear();
  if (trace_ == nullptr) return;
  trace_track_ = trace_->intern("metrics");
  for (const std::string& c : columns_) {
    trace_names_.push_back(trace_->intern(c));
  }
}

void TimeSeriesSampler::sample(double t) {
  Row row;
  row.t = t;
  row.begin = values_.size();
  // Scalars are visited in registry creation order, which only ever
  // extends — so the running index lines up with columns_ and new series
  // append new columns.
  std::size_t ci = 0;
  registry_.for_each_scalar([&](const std::string& name, const Labels& labels,
                                MetricKind /*kind*/, double value) {
    if (ci == columns_.size()) {
      columns_.push_back(name + labels_to_string(labels));
      if (trace_ != nullptr) {
        trace_names_.push_back(trace_->intern(columns_.back()));
      }
    }
    values_.push_back(value);
    if (trace_ != nullptr) {
      trace_->counter(trace_track_, trace_names_[ci], t, value);
    }
    ++ci;
  });
  row.width = ci;
  rows_.push_back(row);
}

double TimeSeriesSampler::at(std::size_t row, std::size_t col) const {
  const Row& r = rows_.at(row);
  common::check(col < columns_.size(), "TimeSeriesSampler: bad column");
  return col < r.width ? values_[r.begin + col] : 0.0;
}

void TimeSeriesSampler::write_csv(std::ostream& os) const {
  ChunkWriter w(os);
  w.put("time");
  for (const auto& c : columns_) {
    w.put(',');
    // RFC-4180-ish quoting: column names can contain commas via labels.
    if (c.find_first_of(",\"") != std::string::npos) {
      w.put('"');
      for (char ch : c) {
        if (ch == '"') w.put('"');
        w.put(ch);
      }
      w.put('"');
    } else {
      w.put(c);
    }
  }
  w.put('\n');
  // Most series hold still between ticks: memo each column's last value.
  std::vector<ChunkWriter::NumberMemo> memo(columns_.size());
  for (const Row& r : rows_) {
    w.number(r.t);
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      w.put(',');
      w.number(c < r.width ? values_[r.begin + c] : 0.0, memo[c]);
    }
    w.put('\n');
  }
}

void TimeSeriesSampler::save_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) common::fail("TimeSeriesSampler: cannot open " + path);
  write_csv(out);
  out.flush();
  if (!out.good()) common::fail("TimeSeriesSampler: write failed for " + path);
}

}  // namespace dt::metrics
