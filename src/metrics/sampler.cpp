#include "metrics/sampler.hpp"

#include <fstream>
#include <ostream>

#include "common/error.hpp"
#include "metrics/trace.hpp"
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

void TimeSeriesSampler::sample(double t) {
  Row row;
  row.t = t;
  // Scalars are visited in registry creation order, which only ever
  // extends — so the running index lines up with columns_ and new series
  // append new columns.
  std::size_t ci = 0;
  registry_.for_each_scalar([&](const std::string& name, const Labels& labels,
                                MetricKind /*kind*/, double value) {
    if (ci == columns_.size()) {
      columns_.push_back(name + labels_to_string(labels));
    }
    row.values.push_back(value);
    if (trace_ != nullptr) {
      trace_->counter("metrics", columns_[ci], t, value);
    }
    ++ci;
  });
  rows_.push_back(std::move(row));
}

double TimeSeriesSampler::at(std::size_t row, std::size_t col) const {
  const Row& r = rows_.at(row);
  common::check(col < columns_.size(), "TimeSeriesSampler: bad column");
  return col < r.values.size() ? r.values[col] : 0.0;
}

void TimeSeriesSampler::write_csv(std::ostream& os) const {
  os << "time";
  for (const auto& c : columns_) {
    os << ',';
    // RFC-4180-ish quoting: column names can contain commas via labels.
    if (c.find_first_of(",\"") != std::string::npos) {
      os << '"';
      for (char ch : c) {
        if (ch == '"') os << '"';
        os << ch;
      }
      os << '"';
    } else {
      os << c;
    }
  }
  os << '\n';
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << rows_[r].t;
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      os << ',' << at(r, c);
    }
    os << '\n';
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
