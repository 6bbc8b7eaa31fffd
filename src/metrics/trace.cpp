#include "metrics/trace.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <ostream>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "metrics/sampler.hpp"
#include "metrics/writer.hpp"

namespace dt::metrics {

namespace {

/// Fails unless `series` holds every row the markers name, and `flows`
/// the edges the lost flows are placed among and the edges' tracks.
void check_sources(const std::vector<TraceLog::SeriesRow>& rows,
                   const TimeSeriesSampler* series,
                   const std::vector<TraceLog::LostFlow>& lost,
                   const EdgeFlows& flows) {
  if (!rows.empty()) {
    common::check(series != nullptr,
                  "TraceLog: the trace holds sampled series rows but no "
                  "TimeSeriesSampler was given to export them");
    common::check(rows.back().row < series->num_rows(),
                  "TraceLog: a series row lies beyond the given "
                  "TimeSeriesSampler's table");
  }
  common::check(lost.empty() || (flows.edges != nullptr &&
                                 lost.back().at <= flows.edges->size()),
                "TraceLog: a lost flow lies beyond the given edge log");
  common::check(flows.edges == nullptr || flows.tracks != nullptr,
                "TraceLog: an edge log was given without endpoint tracks");
}

/// Visits `items` in recording order with each of `marks` (sorted by
/// `at`) just before the item it was recorded ahead of: the series rows
/// among the single counters, the lost flows among the edges.
template <typename Item, typename Mark, typename OnItem, typename OnMark>
void interleave(const std::vector<Item>& items, const std::vector<Mark>& marks,
                OnItem&& on_item, OnMark&& on_mark) {
  std::size_t m = 0;
  for (std::size_t i = 0; i <= items.size(); ++i) {
    for (; m < marks.size() && marks[m].at == i; ++m) on_mark(marks[m]);
    if (i < items.size()) on_item(items[i]);
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

void TraceLog::flow(std::string_view src_track, std::string_view dst_track,
                    std::string_view name, double sent, double arrival,
                    std::uint64_t id) {
  common::check(arrival >= sent, "TraceLog: flow arrives before it is sent");
  const Id src = intern(src_track);
  const Id dst = intern(dst_track);
  flow_events_.push_back(FlowEvent{src, dst, intern(name), sent, arrival, id});
}

void TraceLog::lost_flow(int src_ep, int dst_ep, std::uint64_t bytes,
                         double sent, double arrival, std::size_t at) {
  common::check(arrival >= sent, "TraceLog: flow arrives before it is sent");
  lost_flows_.push_back(LostFlow{at, src_ep, dst_ep, bytes, sent, arrival});
}

void TraceLog::write_chrome_json(std::ostream& os,
                                 const TimeSeriesSampler* series,
                                 const EdgeFlows& flows) const {
  check_sources(series_rows_, series, lost_flows_, flows);
  const EdgeLog no_edges;
  const EdgeLog& edges = flows.edges != nullptr ? *flows.edges : no_edges;
  // The track ids of an edge's or a lost flow's endpoints.
  auto ends = [&flows](const auto& e) {
    return std::pair{flows.tracks->at(static_cast<std::size_t>(e.src)),
                     flows.tracks->at(static_cast<std::size_t>(e.dst))};
  };

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
  interleave(
      counter_events_, series_rows_,
      [&see](const CounterEvent& e) { see(e.track); },
      [&see, series](const SeriesRow& r) {
        if (series->row_width(r.row) > 0) see(r.track);
      });
  for (const FlowEvent& e : flow_events_) {
    see(e.src_track);
    see(e.dst_track);
  }
  auto see_ends = [&see, &ends](const auto& e) {
    const auto [src, dst] = ends(e);
    see(src);
    see(dst);
  };
  interleave(edges, lost_flows_, see_ends, see_ends);
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
  interleave(
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
  // One "s"/"f" pair; put_name appends the name after head's empty one.
  auto flow = [&](Id src, Id dst, auto&& put_name, std::uint64_t id,
                  double sent, double arrival) {
    for (const bool start : {true, false}) {
      head(start ? R"({"ph":"s","cat":"net","pid":0,"tid":)"
                 : R"({"ph":"f","bp":"e","cat":"net","pid":0,"tid":)",
           start ? src : dst, "");
      put_name();
      w.put(R"(","id":)");
      w.integer(id);
      w.put(R"(,"ts":)");
      w.number((start ? sent : arrival) * 1e6);
      w.put('}');
    }
  };
  for (const FlowEvent& e : flow_events_) {
    flow(e.src_track, e.dst_track, [&] { w.put(text[e.name]); }, e.id, e.sent,
         e.arrival);
  }
  std::uint64_t id = flows.by_bytes ? 0 : 1;
  auto edge_flow = [&](const auto& e, std::string_view prefix) {
    const auto [src, dst] = ends(e);
    flow(src, dst, [&] {
      if (flows.by_bytes) {
        w.integer(e.bytes);
        w.put('B');
      } else {
        w.put(prefix);
        w.put(text[src]);
        w.put("->");
        w.put(text[dst]);
      }
    }, id++, e.sent, e.arrival);
  };
  interleave(
      edges, lost_flows_,
      [&edge_flow](const MessageEdge& e) {
        edge_flow(e, e.kind == EdgeKind::recover ? "recover " : "");
      },
      [&edge_flow](const LostFlow& f) { edge_flow(f, "lost "); });
  w.put("\n]\n");
  w.flush();
  common::check(os.good(), "TraceLog: stream write failed");
}

void TraceLog::save(const std::string& path, const TimeSeriesSampler* series,
                    const EdgeFlows& flows) const {
  check_sources(series_rows_, series, lost_flows_, flows);
  std::ofstream out(path);
  if (!out.good()) {
    common::log_error("TraceLog: cannot open ", path);
    common::fail("TraceLog: cannot open " + path);
  }
  write_chrome_json(out, series, flows);
  out.flush();
  if (!out.good()) common::fail("TraceLog: write failed for " + path);
}

}  // namespace dt::metrics
