// Virtual-time series sampling of registry scalars.
//
// A TimeSeriesSampler is a daemon Process that wakes every `period` virtual
// seconds and snapshots every counter and gauge in a MetricRegistry. The
// result is a rectangular table (one row per sample tick, one column per
// series) written as CSV — the raw material for scalability/utilization
// plots over *virtual* time. Columns appear when their series is first
// created (instruments are registered lazily by the hot paths); earlier
// rows read 0 for columns born later.
//
// Because sampling rides the same deterministic virtual clock as the
// simulation, two runs of the same configuration produce byte-identical
// series — asserted by tests/test_registry.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/registry.hpp"

namespace dt::runtime {
class SimEngine;
}

namespace dt::metrics {

class TraceLog;

class TimeSeriesSampler {
 public:
  /// Samples `registry` every `period` virtual seconds (> 0).
  TimeSeriesSampler(const MetricRegistry& registry, double period);

  /// Spawns the sampling daemon on `engine`. Call before SimEngine::run();
  /// the daemon dies with the simulation (ProcessKilled).
  void attach(runtime::SimEngine& engine);

  /// Also mirrors every sample as Chrome-tracing counter ("C") events on
  /// `trace`, so Perfetto plots the series alongside the phase slices.
  void set_trace(TraceLog* trace);

  /// Takes one sample at virtual time `t` immediately (the daemon calls
  /// this; Session calls it once more at end-of-run so the final state is
  /// always on the last row).
  void sample(double t);

  [[nodiscard]] double period() const noexcept { return period_; }
  [[nodiscard]] std::size_t num_rows() const noexcept { return rows_.size(); }
  /// Column names in creation order: "name{labels}".
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }
  /// Value of column `col` in row `row` (0 when the column did not exist
  /// yet at that tick).
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;
  [[nodiscard]] double row_time(std::size_t row) const {
    return rows_.at(row).t;
  }

  /// CSV: header "time,<col>,...", one row per tick. Numbers print as a
  /// default-precision std::ostream would print them (metrics/writer.hpp).
  void write_csv(std::ostream& os) const;
  /// Writes CSV to `path`; throws (with the path) on open/write failure.
  void save_csv(const std::string& path) const;

 private:
  // A row's values are values_[begin, begin + width), indexed by column;
  // width is the column count at that tick, so early rows may be short.
  // One flat array keeps sampling free of per-row allocations.
  struct Row {
    double t = 0.0;
    std::size_t begin = 0;
    std::size_t width = 0;
  };

  const MetricRegistry& registry_;
  double period_;
  TraceLog* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;          // interned "metrics"
  std::vector<std::uint32_t> trace_names_;  // interned columns_
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
  std::vector<double> values_;
};

}  // namespace dt::metrics
