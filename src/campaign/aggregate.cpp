#include "campaign/aggregate.hpp"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace dt::campaign {

namespace {

// Escapes only quotes and backslashes; control characters pass through.
// Deliberately not metrics::json_escape, which emits different bytes for
// them: the aggregate files must stay byte-identical with the cache
// records (cache.cpp) they are built from.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Shortest round-trip form — same doubles always print the same bytes.
std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double metric_of(const RunRecord& rec, const std::string& metric) {
  if (metric == "accuracy") return rec.final_accuracy;
  if (metric == "throughput") return rec.throughput;
  if (metric == "duration") return rec.virtual_duration;
  if (metric == "time_to_target") return rec.time_to_target;
  if (metric == "mem_peak") {
    return static_cast<double>(rec.mem_peak_rank_bytes);
  }
  common::fail("campaign: unknown metric '" + metric + "'");
}

std::string join_labels(
    const std::vector<std::pair<std::string, std::string>>& axes) {
  std::string out;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (i) out += '|';
    out += axes[i].second;
  }
  return out;
}

}  // namespace

std::string CellStats::cell_key() const { return join_labels(axes); }

Aggregate Aggregate::build(const std::vector<RunRecord>& records,
                           const std::string& metric, bool functional,
                           const std::map<std::string, double>& paper_refs) {
  Aggregate agg;
  agg.metric_ =
      metric == "auto" ? (functional ? "accuracy" : "throughput") : metric;

  // Group by cell key, preserving first-seen (= expansion) order; collect
  // raw samples first so mean/stddev use one well-defined formula.
  std::map<std::string, std::size_t> index;
  std::vector<std::vector<double>> values;
  std::vector<std::vector<double>> durations;
  for (const RunRecord& rec : records) {
    const std::string key = join_labels(rec.axes);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, agg.cells_.size()).first;
      CellStats cell;
      cell.axes = rec.axes;
      if (auto ref = paper_refs.find(key); ref != paper_refs.end()) {
        cell.paper = ref->second;
      }
      agg.cells_.push_back(std::move(cell));
      values.emplace_back();
      durations.emplace_back();
    }
    values[it->second].push_back(metric_of(rec, agg.metric_));
    durations[it->second].push_back(rec.virtual_duration);
    CellStats& cell = agg.cells_[it->second];
    cell.mean_cp[0] += rec.cp_compute;
    cell.mean_cp[1] += rec.cp_local_agg;
    cell.mean_cp[2] += rec.cp_comm;
    cell.mean_cp[3] += rec.cp_ps;
    cell.mean_cp[4] += rec.cp_wait;
  }

  for (std::size_t i = 0; i < agg.cells_.size(); ++i) {
    CellStats& cell = agg.cells_[i];
    cell.n = static_cast<int>(values[i].size());
    double sum = 0.0, dsum = 0.0;
    for (double v : values[i]) sum += v;
    for (double d : durations[i]) dsum += d;
    cell.mean = sum / cell.n;
    cell.mean_duration = dsum / cell.n;
    for (double& v : cell.mean_cp) v /= cell.n;
    if (cell.n > 1) {
      double ss = 0.0;
      for (double v : values[i]) ss += (v - cell.mean) * (v - cell.mean);
      cell.stddev = std::sqrt(ss / (cell.n - 1));
    }
  }
  return agg;
}

const CellStats* Aggregate::find(
    const std::vector<std::string>& labels) const {
  for (const CellStats& cell : cells_) {
    if (cell.axes.size() != labels.size()) continue;
    bool match = true;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (cell.axes[i].second != labels[i]) {
        match = false;
        break;
      }
    }
    if (match) return &cell;
  }
  return nullptr;
}

common::Table Aggregate::to_table(const std::string& title) const {
  common::Table table(title);
  bool any_paper = false;
  for (const CellStats& cell : cells_) any_paper |= cell.paper.has_value();

  std::vector<std::string> header;
  if (!cells_.empty()) {
    for (const auto& [axis, _] : cells_.front().axes) header.push_back(axis);
  }
  header.push_back("n");
  header.push_back("mean " + metric_);
  header.push_back("std");
  header.push_back("mean duration (s)");
  for (const char* col :
       {"cp compute", "cp local", "cp comm", "cp ps", "cp wait"}) {
    header.emplace_back(col);
  }
  if (any_paper) {
    header.push_back("paper");
    header.push_back("delta");
  }
  table.set_header(std::move(header));

  for (const CellStats& cell : cells_) {
    std::vector<std::string> row;
    for (const auto& [_, label] : cell.axes) row.push_back(label);
    row.push_back(std::to_string(cell.n));
    row.push_back(common::fmt(cell.mean, 4));
    row.push_back(cell.n > 1 ? common::fmt(cell.stddev, 4) : "-");
    row.push_back(common::fmt(cell.mean_duration, 3));
    for (double v : cell.mean_cp) {
      row.push_back(cell.mean_duration > 0.0
                        ? common::fmt_pct(v / cell.mean_duration)
                        : "-");
    }
    if (any_paper) {
      row.push_back(cell.paper ? common::fmt(*cell.paper, 4) : "-");
      row.push_back(cell.delta() ? common::fmt(*cell.delta(), 4) : "-");
    }
    table.add_row(std::move(row));
  }
  return table;
}

common::LineChart Aggregate::to_chart(const std::string& title,
                                      const std::string& x_axis) const {
  common::check(!cells_.empty(), "campaign: no cells to chart");
  std::size_t x_index = cells_.front().axes.size();
  for (std::size_t i = 0; i < cells_.front().axes.size(); ++i) {
    if (cells_.front().axes[i].first == x_axis) x_index = i;
  }
  if (x_index >= cells_.front().axes.size())
    common::fail("campaign: chart_axis '" + x_axis + "' is not an axis");

  // Series = the remaining axes' labels; insertion order = cell order.
  std::map<std::string, std::size_t> series_index;
  std::vector<std::pair<std::string, std::vector<std::pair<double, double>>>>
      series;
  for (const CellStats& cell : cells_) {
    const std::string& x_label = cell.axes[x_index].second;
    double x = 0.0;
    const auto res = std::from_chars(
        x_label.data(), x_label.data() + x_label.size(), x);
    if (res.ec != std::errc{} ||
        res.ptr != x_label.data() + x_label.size()) {
      common::fail("campaign: chart_axis '" + x_axis + "' label '" + x_label +
                   "' is not numeric");
    }
    std::string name;
    for (std::size_t i = 0; i < cell.axes.size(); ++i) {
      if (i == x_index) continue;
      if (!name.empty()) name += '|';
      name += cell.axes[i].second;
    }
    if (name.empty()) name = metric_;
    auto it = series_index.find(name);
    if (it == series_index.end()) {
      it = series_index.emplace(name, series.size()).first;
      series.emplace_back(name, std::vector<std::pair<double, double>>{});
    }
    series[it->second].second.emplace_back(x, cell.mean);
  }

  common::LineChart chart(title);
  chart.set_axes(x_axis, "mean " + metric_);
  for (auto& [name, points] : series) {
    chart.add_series(name, std::move(points));
  }
  return chart;
}

void Aggregate::write_csv(std::ostream& os) const {
  to_table("").write_csv(os);
}

void Aggregate::write_jsonl(std::ostream& os) const {
  for (const CellStats& cell : cells_) {
    os << "{\"axes\":{";
    for (std::size_t i = 0; i < cell.axes.size(); ++i) {
      if (i) os << ',';
      os << '"' << json_escape(cell.axes[i].first) << "\":\""
         << json_escape(cell.axes[i].second) << '"';
    }
    os << "},\"metric\":\"" << json_escape(metric_) << "\",\"n\":" << cell.n
       << ",\"mean\":" << json_number(cell.mean) << ",\"stddev\":";
    // A sample standard deviation needs n >= 2; with a single replicate
    // emit null instead of a misleading 0 (matches the table's "-").
    if (cell.n > 1) {
      os << json_number(cell.stddev);
    } else {
      os << "null";
    }
    os << ",\"mean_duration\":" << json_number(cell.mean_duration)
       << ",\"cp\":{\"compute\":" << json_number(cell.mean_cp[0])
       << ",\"local_agg\":" << json_number(cell.mean_cp[1])
       << ",\"comm\":" << json_number(cell.mean_cp[2])
       << ",\"ps\":" << json_number(cell.mean_cp[3])
       << ",\"wait\":" << json_number(cell.mean_cp[4]) << "}";
    if (cell.paper) {
      os << ",\"paper\":" << json_number(*cell.paper)
         << ",\"delta\":" << json_number(*cell.delta());
    }
    os << "}\n";
  }
}

void write_outputs(const std::string& dir, const std::string& title,
                   const std::vector<RunRecord>& records,
                   const Aggregate& agg) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    common::fail("campaign: cannot create output dir " + dir + ": " +
                 ec.message());
  }

  {
    std::ofstream out(dir + "/runs.jsonl", std::ios::binary);
    if (!out.good())
      common::fail("campaign: cannot write " + dir + "/runs.jsonl");
    for (const RunRecord& rec : records) {
      const std::string two_lines = rec.serialize();
      out << two_lines.substr(0, two_lines.find('\n') + 1);
    }
  }

  {
    common::Table runs_table;
    std::vector<std::string> header{"fingerprint"};
    if (!records.empty()) {
      for (const auto& [axis, _] : records.front().axes) {
        header.push_back(axis);
      }
    }
    for (const char* col :
         {"replicate", "seed", "algorithm", "workers", "final_accuracy",
          "virtual_duration", "time_to_target", "throughput", "wire_bytes",
          "wire_messages",
          "total_samples", "total_iterations", "cp_compute", "cp_local_agg",
          "cp_comm", "cp_ps", "cp_wait", "mem_peak_rank_bytes",
          "mem_params_bytes", "mem_grads_bytes", "mem_optimizer_bytes",
          "mem_gather_bytes", "param_hash"}) {
      header.emplace_back(col);
    }
    runs_table.set_header(std::move(header));
    for (const RunRecord& rec : records) {
      std::vector<std::string> row{rec.fingerprint};
      for (const auto& [_, label] : rec.axes) row.push_back(label);
      row.push_back(std::to_string(rec.replicate));
      row.push_back(std::to_string(rec.seed));
      row.push_back(rec.algorithm);
      row.push_back(std::to_string(rec.workers));
      row.push_back(json_number(rec.final_accuracy));
      row.push_back(json_number(rec.virtual_duration));
      row.push_back(json_number(rec.time_to_target));
      row.push_back(json_number(rec.throughput));
      row.push_back(std::to_string(rec.wire_bytes));
      row.push_back(std::to_string(rec.wire_messages));
      row.push_back(std::to_string(rec.total_samples));
      row.push_back(std::to_string(rec.total_iterations));
      row.push_back(json_number(rec.cp_compute));
      row.push_back(json_number(rec.cp_local_agg));
      row.push_back(json_number(rec.cp_comm));
      row.push_back(json_number(rec.cp_ps));
      row.push_back(json_number(rec.cp_wait));
      row.push_back(std::to_string(rec.mem_peak_rank_bytes));
      row.push_back(std::to_string(rec.mem_params_bytes));
      row.push_back(std::to_string(rec.mem_grads_bytes));
      row.push_back(std::to_string(rec.mem_optimizer_bytes));
      row.push_back(std::to_string(rec.mem_gather_bytes));
      row.push_back(rec.param_hash);
      runs_table.add_row(std::move(row));
    }
    runs_table.save_csv(dir + "/runs.csv");
  }

  const common::Table agg_table = agg.to_table(title);
  agg_table.save_csv(dir + "/aggregate.csv");
  agg_table.save_markdown(dir + "/aggregate.md");
  {
    std::ofstream out(dir + "/aggregate.jsonl", std::ios::binary);
    if (!out.good())
      common::fail("campaign: cannot write " + dir + "/aggregate.jsonl");
    agg.write_jsonl(out);
  }
}

}  // namespace dt::campaign
