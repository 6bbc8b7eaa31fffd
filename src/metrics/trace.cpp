#include "metrics/trace.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <ostream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "metrics/sampler.hpp"
#include "metrics/writer.hpp"

namespace dt::metrics {

namespace {

/// Fails unless `series` holds every row the markers name.
void check_series(const std::vector<TraceLog::SeriesRow>& rows,
                  const TimeSeriesSampler* series) {
  if (rows.empty()) return;
  common::check(series != nullptr,
                "TraceLog: the trace holds sampled series rows but no "
                "TimeSeriesSampler was given to export them");
  common::check(rows.back().row < series->num_rows(),
                "TraceLog: a series row lies beyond the given "
                "TimeSeriesSampler's table");
}

/// Visits the counter stream in recording order: every series-row marker
/// just before the single counter it was recorded ahead of.
template <typename Single, typename Row>
void walk_counters(const std::vector<TraceLog::CounterEvent>& singles,
                   const std::vector<TraceLog::SeriesRow>& rows,
                   Single&& single, Row&& row) {
  std::size_t m = 0;
  for (std::size_t i = 0; i <= singles.size(); ++i) {
    for (; m < rows.size() && rows[m].at == i; ++m) row(rows[m]);
    if (i < singles.size()) single(singles[i]);
  }
}

}  // namespace

TraceLog::Id TraceLog::intern(std::string_view s) {
  if (const auto it = index_.find(s); it != index_.end()) return it->second;
  const auto id = static_cast<Id>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), id);
  return id;
}

void TraceLog::record(Id track, Id name, double start, double end) {
  common::check(end >= start, "TraceLog: negative-duration event");
  events_.push_back(Event{track, name, start, end});
}

void TraceLog::flow(Id src_track, Id dst_track, Id name, double sent,
                    double arrival, std::uint64_t id) {
  common::check(arrival >= sent, "TraceLog: flow arrives before it is sent");
  flow_events_.push_back(
      FlowEvent{src_track, dst_track, name, sent, arrival, id});
}

void TraceLog::write_chrome_json(std::ostream& os,
                                 const TimeSeriesSampler* series) const {
  check_series(series_rows_, series);
  // Tids by first appearance in scan order (see the header).
  std::vector<int> tid(strings_.size(), -1);
  std::vector<Id> tracks;
  auto see = [&tid, &tracks](Id track) {
    if (tid[track] < 0) {
      tid[track] = static_cast<int>(tracks.size());
      tracks.push_back(track);
    }
  };
  for (const Event& e : events_) see(e.track);
  walk_counters(
      counter_events_, series_rows_,
      [&see](const CounterEvent& e) { see(e.track); },
      [&see, series](const SeriesRow& r) {
        if (series->row_width(r.row) > 0) see(r.track);
      });
  for (const FlowEvent& e : flow_events_) {
    see(e.src_track);
    see(e.dst_track);
  }
  for (const InstantEvent& e : instant_events_) see(e.track);
  std::sort(tracks.begin(), tracks.end(),
            [this](Id a, Id b) { return strings_[a] < strings_[b]; });

  // Each distinct string is escaped once, not once per event.
  std::vector<std::string> text;
  text.reserve(strings_.size());
  for (const std::string& s : strings_) text.push_back(json_escape(s));

  ChunkWriter w(os);
  w.put("[\n");
  bool first = true;
  auto sep = [&w, &first] {
    if (!first) w.put(",\n");
    first = false;
  };
  auto head = [&w, &sep, &tid](std::string_view prefix, Id track,
                               std::string_view name) {
    sep();
    w.put(prefix);
    w.integer(tid[track]);
    w.put(R"(,"name":")");
    w.put(name);
  };
  // Process/thread-name metadata so the viewer shows run and worker names.
  if (!process_name_.empty()) {
    sep();
    w.put(R"({"ph":"M","pid":0,"name":"process_name","args":{"name":")");
    w.put(json_escape(process_name_));
    w.put(R"("}})");
  }
  for (const Id track : tracks) {
    sep();
    w.put(R"({"ph":"M","pid":0,"tid":)");
    w.integer(tid[track]);
    w.put(R"(,"name":"thread_name","args":{"name":")");
    w.put(text[track]);
    w.put(R"("}})");
  }
  for (const Event& e : events_) {
    head(R"({"ph":"X","pid":0,"tid":)", e.track, text[e.name]);
    w.put(R"(","ts":)");
    w.number(e.start * 1e6);
    w.put(R"(,"dur":)");
    w.number((e.end - e.start) * 1e6);
    w.put('}');
  }
  // A sampler tick stamps every series with one time, and most series hold
  // still between ticks: memo the time, and each series' value by name id
  // or by sampler column.
  ChunkWriter::NumberMemo counter_ts;
  std::vector<ChunkWriter::NumberMemo> counter_value(strings_.size());
  auto counter = [&](Id track, std::string_view name, double t, double value,
                     ChunkWriter::NumberMemo& value_memo) {
    head(R"({"ph":"C","pid":0,"tid":)", track, name);
    w.put(R"(","ts":)");
    w.number(t * 1e6, counter_ts);
    w.put(R"(,"args":{"value":)");
    w.number(value, value_memo);
    w.put("}}");
  };
  std::vector<std::string> column_text;
  std::vector<ChunkWriter::NumberMemo> column_value;
  std::optional<TimeSeriesSampler::Cursor> cursor;
  if (!series_rows_.empty()) {
    for (const std::string& c : series->columns()) {
      column_text.push_back(json_escape(c));
    }
    column_value.resize(column_text.size());
    cursor.emplace(*series);
  }
  walk_counters(
      counter_events_, series_rows_,
      [&](const CounterEvent& e) {
        counter(e.track, text[e.name], e.t, e.value, counter_value[e.name]);
      },
      [&](const SeriesRow& r) {
        const std::vector<double>& values = cursor->seek(r.row);
        const double t = series->row_time(r.row);
        const std::size_t width = series->row_width(r.row);
        for (std::size_t c = 0; c < width; ++c) {
          counter(r.track, column_text[c], t, values[c], column_value[c]);
        }
      });
  for (const InstantEvent& e : instant_events_) {
    head(R"({"ph":"i","s":"t","pid":0,"tid":)", e.track, text[e.name]);
    w.put(R"(","ts":)");
    w.number(e.t * 1e6);
    w.put('}');
  }
  for (const FlowEvent& e : flow_events_) {
    head(R"({"ph":"s","cat":"net","pid":0,"tid":)", e.src_track,
         text[e.name]);
    w.put(R"(","id":)");
    w.integer(e.id);
    w.put(R"(,"ts":)");
    w.number(e.sent * 1e6);
    w.put('}');
    head(R"({"ph":"f","bp":"e","cat":"net","pid":0,"tid":)", e.dst_track,
         text[e.name]);
    w.put(R"(","id":)");
    w.integer(e.id);
    w.put(R"(,"ts":)");
    w.number(e.arrival * 1e6);
    w.put('}');
  }
  w.put("\n]\n");
  w.flush();
  common::check(os.good(), "TraceLog: stream write failed");
}

void TraceLog::save(const std::string& path,
                    const TimeSeriesSampler* series) const {
  check_series(series_rows_, series);
  std::ofstream out(path);
  if (!out.good()) {
    common::log_error("TraceLog: cannot open ", path);
    common::fail("TraceLog: cannot open " + path);
  }
  write_chrome_json(out, series);
  out.flush();
  if (!out.good()) common::fail("TraceLog: write failed for " + path);
}

}  // namespace dt::metrics
