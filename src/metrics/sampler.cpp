#include "metrics/sampler.hpp"

#include <bit>
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
  if (trace_ != nullptr) trace_track_ = trace_->intern("metrics");
}

void TimeSeriesSampler::sample(double t) {
  // Scalars are visited in registry creation order, which only ever
  // extends — so the running index lines up with columns_ and new series
  // append new columns.
  std::size_t ci = 0;
  registry_.for_each_scalar([&](const std::string& name, const Labels& labels,
                                MetricKind /*kind*/, double value) {
    if (ci == columns_.size()) {
      columns_.push_back(name + labels_to_string(labels));
      last_bits_.push_back(std::bit_cast<std::uint64_t>(0.0));
    }
    const auto bits = std::bit_cast<std::uint64_t>(value);
    if (bits != last_bits_[ci]) {
      last_bits_[ci] = bits;
      changes_.push_back(Change{static_cast<std::uint32_t>(ci), value});
    }
    ++ci;
  });
  rows_.push_back(Row{t, ci, changes_.size()});
  if (trace_ != nullptr) trace_->series_row(trace_track_, rows_.size() - 1);
}

double TimeSeriesSampler::at(std::size_t row, std::size_t col) const {
  const Row& r = rows_.at(row);
  common::check(col < columns_.size(), "TimeSeriesSampler: bad column");
  if (col >= r.width) return 0.0;
  // The latest change of `col` up to this row; none means it still reads 0.
  for (std::size_t i = r.end; i-- > 0;) {
    if (changes_[i].col == col) return changes_[i].value;
  }
  return 0.0;
}

TimeSeriesSampler::Cursor::Cursor(const TimeSeriesSampler& table)
    : table_(table), values_(table.columns_.size(), 0.0) {}

const std::vector<double>& TimeSeriesSampler::Cursor::seek(std::size_t row) {
  common::check(row < table_.rows_.size() && row + 1 >= next_,
                "TimeSeriesSampler::Cursor: rows must be sought in order");
  const std::size_t begin = next_ == 0 ? 0 : table_.rows_[next_ - 1].end;
  const std::size_t end = table_.rows_[row].end;
  for (std::size_t i = begin; i < end; ++i) {
    values_[table_.changes_[i].col] = table_.changes_[i].value;
  }
  next_ = row + 1;
  return values_;
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
  Cursor cursor(*this);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const std::vector<double>& values = cursor.seek(r);
    w.number(rows_[r].t);
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      w.put(',');
      w.number(values[c], memo[c]);
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
