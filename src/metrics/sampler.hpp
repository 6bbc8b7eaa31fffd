// Virtual-time series sampling of registry scalars.
//
// A TimeSeriesSampler is a daemon Process that wakes every `period` virtual
// seconds and snapshots every counter and gauge in a MetricRegistry. The
// result is a table (one row per sample tick, one column per series)
// written as CSV — the raw material for scalability/utilization plots over
// *virtual* time. Columns appear when their series is first created
// (instruments are registered lazily by the hot paths); earlier rows read
// 0 for columns born later.
//
// The table is the one copy of the sampled values. It stores changes
// only: each tick appends one row record (time, width, range of changes),
// and a cell enters the changes only when its bit pattern differs from
// the column's previous value (bits, not `==`, so 0.0/-0.0 and NaN
// payloads survive). Most series hold still between ticks, so the table
// grows by little more than a row record per tick. A Cursor walks the
// rows in order holding one row's values; the CSV writer and the trace's
// counter block (TraceLog::write_chrome_json, which records one row marker
// per tick instead of one counter per cell) both expand the table through
// it, so neither export ever holds the dense table.
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

  /// Also records every later tick as one row marker on `trace` (track
  /// "metrics"); exporting the trace with this sampler expands each marker
  /// into one Chrome-tracing counter ("C") event per column, so Perfetto
  /// plots the series alongside the phase slices.
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
  /// yet at that tick). Scans the changes backwards; walk with a Cursor
  /// to read rows in order.
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;
  [[nodiscard]] double row_time(std::size_t row) const {
    return rows_.at(row).t;
  }
  /// The column count at tick `row`.
  [[nodiscard]] std::size_t row_width(std::size_t row) const {
    return rows_.at(row).width;
  }

  /// Reads the rows in order, holding only the current row's values.
  class Cursor {
   public:
    explicit Cursor(const TimeSeriesSampler& table);
    /// The values of row `row` (at or after the last row sought), one per
    /// column of the table; columns born after `row` read 0. Valid until
    /// the next seek.
    const std::vector<double>& seek(std::size_t row);

   private:
    const TimeSeriesSampler& table_;
    std::size_t next_ = 0;  // first row whose changes are not applied yet
    std::vector<double> values_;
  };

  /// CSV: header "time,<col>,...", one row per tick. Numbers print as a
  /// default-precision std::ostream would print them (metrics/writer.hpp).
  void write_csv(std::ostream& os) const;
  /// Writes CSV to `path`; throws (with the path) on open/write failure.
  void save_csv(const std::string& path) const;

 private:
  // A row's changes are changes_[previous row's end, end).
  struct Row {
    double t = 0.0;
    std::size_t width = 0;
    std::size_t end = 0;
  };
  struct Change {
    std::uint32_t col = 0;
    double value = 0.0;
  };

  const MetricRegistry& registry_;
  double period_;
  TraceLog* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;  // interned "metrics"
  std::vector<std::string> columns_;
  std::vector<std::uint64_t> last_bits_;  // each column's latest value
  std::vector<Row> rows_;
  std::vector<Change> changes_;
};

}  // namespace dt::metrics
