// Tests for the MetricRegistry instruments and the virtual-time sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "metrics/registry.hpp"
#include "metrics/sampler.hpp"
#include "metrics/trace.hpp"
#include "metrics/writer.hpp"
#include "runtime/sim.hpp"

namespace dt::metrics {
namespace {

TEST(MetricRegistry, CounterAndGaugeSemantics) {
  MetricRegistry reg;
  Counter& c = reg.counter("events_total");
  c.inc();
  c.inc(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  // Same (name, labels) resolves to the same instrument.
  EXPECT_EQ(&reg.counter("events_total"), &c);

  Gauge& g = reg.gauge("depth");
  g.set(4.0);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistry, LabelsAreCanonicalized) {
  MetricRegistry reg;
  Counter& a = reg.counter("x", {{"algo", "bsp"}, {"worker", "3"}});
  Counter& b = reg.counter("x", {{"worker", "3"}, {"algo", "bsp"}});
  EXPECT_EQ(&a, &b);
  // A different label value is a different series.
  Counter& c = reg.counter("x", {{"worker", "4"}, {"algo", "bsp"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistry, KindMismatchFails) {
  MetricRegistry reg;
  reg.counter("series");
  EXPECT_THROW(reg.gauge("series"), common::Error);
  EXPECT_THROW(reg.histogram("series", {}, {1.0}), common::Error);
}

TEST(Histogram, BucketsAndExactStats) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("lat", {}, {1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (inclusive edge)
  h.observe(3.0);   // bucket 2 (<= 4)
  h.observe(100.0); // +inf tail
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 0u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 104.5 / 4.0);
}

TEST(Histogram, PercentileEstimates) {
  MetricRegistry reg;
  // Single observation: every percentile is that exact value (the exact
  // min/max clamp the interpolation, even in the +inf tail bucket).
  Histogram& one = reg.histogram("one", {}, {1.0, 2.0, 4.0});
  one.observe(5.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.50), 5.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.99), 5.0);

  // Two samples in one bucket: the estimate interpolates between the exact
  // min and max, not the (wider) bucket edges.
  Histogram& pair = reg.histogram("pair", {}, {10.0});
  pair.observe(2.0);
  pair.observe(8.0);
  EXPECT_DOUBLE_EQ(pair.percentile(0.50), 5.0);

  // Empty histogram: percentiles read 0 rather than NaN.
  Histogram& empty = reg.histogram("empty", {}, {1.0});
  EXPECT_DOUBLE_EQ(empty.percentile(0.50), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile(1.0), 0.0);

  Histogram& h = reg.histogram("lat2", {}, {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(1.0);
  h.observe(3.0);
  h.observe(100.0);
  // p50 lands at the top of the first bucket; p99 interpolates inside the
  // +inf tail, whose upper edge is the exact max.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 4.0 + 0.96 * 96.0);
  EXPECT_LE(h.percentile(0.99), h.max());
}

TEST(Histogram, PercentileEdgeQuantiles) {
  MetricRegistry reg;
  // Out-of-range and boundary q: clamped to the observed extremes for any
  // sample count, including the degenerate 1- and 2-sample histograms.
  Histogram& one = reg.histogram("edge1", {}, {1.0, 2.0});
  one.observe(1.5);
  EXPECT_DOUBLE_EQ(one.percentile(0.0), 1.5);
  EXPECT_DOUBLE_EQ(one.percentile(1.0), 1.5);
  EXPECT_DOUBLE_EQ(one.percentile(-0.5), 1.5);
  EXPECT_DOUBLE_EQ(one.percentile(2.0), 1.5);

  Histogram& two = reg.histogram("edge2", {}, {10.0});
  two.observe(2.0);
  two.observe(8.0);
  EXPECT_DOUBLE_EQ(two.percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(two.percentile(1.0), 8.0);
  // Interior quantiles never escape [min, max].
  for (double q : {0.01, 0.25, 0.75, 0.99}) {
    EXPECT_GE(two.percentile(q), 2.0);
    EXPECT_LE(two.percentile(q), 8.0);
  }
}

TEST(MetricSnapshot, PercentilesInSnapshotAndJsonl) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("lat", {}, {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);

  const MetricSnapshot snap = reg.snapshot();
  const MetricValue* m = snap.find("lat", {});
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->p50, h.percentile(0.50));
  EXPECT_DOUBLE_EQ(m->p95, h.percentile(0.95));
  EXPECT_DOUBLE_EQ(m->p99, h.percentile(0.99));

  std::ostringstream os;
  reg.write_jsonl(os);
  EXPECT_NE(os.str().find(R"("p50":)"), std::string::npos);
  EXPECT_NE(os.str().find(R"("p99":)"), std::string::npos);
}

TEST(Histogram, RejectsUnsortedBounds) {
  MetricRegistry reg;
  EXPECT_THROW(reg.histogram("bad", {}, {2.0, 1.0}), common::Error);
}

TEST(MetricSnapshot, LookupHelpers) {
  MetricRegistry reg;
  reg.counter("bytes", {{"scope", "inter"}}).inc(10.0);
  reg.counter("bytes", {{"scope", "intra"}}).inc(5.0);
  reg.histogram("stale", {{"algo", "asp"}}, Histogram::count_bounds())
      .observe(3.0);

  const MetricSnapshot snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("bytes", {{"scope", "inter"}}), 10.0);
  EXPECT_DOUBLE_EQ(snap.total("bytes"), 15.0);
  EXPECT_EQ(snap.all("bytes").size(), 2u);
  EXPECT_EQ(snap.find("bytes"), nullptr);  // exact labels required
  const MetricValue* h = snap.find("stale", {{"algo", "asp"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, MetricKind::histogram);
  EXPECT_EQ(h->count, 1u);
  EXPECT_DOUBLE_EQ(h->max, 3.0);
}

TEST(MetricRegistry, JsonlShape) {
  MetricRegistry reg;
  reg.counter("net.bytes_total", {{"scope", "inter"}}).inc(42.0);
  reg.histogram("lat", {}, {1.0}).observe(0.5);
  std::ostringstream os;
  reg.write_jsonl(os);
  const std::string out = os.str();
  EXPECT_NE(out.find(R"("name":"net.bytes_total")"), std::string::npos);
  EXPECT_NE(out.find(R"("scope":"inter")"), std::string::npos);
  EXPECT_NE(out.find(R"("kind":"counter")"), std::string::npos);
  EXPECT_NE(out.find(R"("value":42)"), std::string::npos);
  EXPECT_NE(out.find(R"("kind":"histogram")"), std::string::npos);
  EXPECT_NE(out.find(R"("le":"inf")"), std::string::npos);
  // One JSON object per line, one line per series.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(MetricRegistry, SaveJsonlFailsLoudly) {
  MetricRegistry reg;
  reg.counter("c").inc();
  EXPECT_THROW(reg.save_jsonl("/nonexistent-dir/metrics.jsonl"),
               common::Error);
}

// ---- sampler ---------------------------------------------------------------

/// Drives a registry from a simulated process: `work` gets bumped every
/// 0.1 virtual seconds for `ticks` ticks.
void run_sampled_workload(MetricRegistry& reg, TimeSeriesSampler& sampler,
                          int ticks) {
  runtime::SimEngine engine;
  sampler.attach(engine);
  Counter& work = reg.counter("work_total");
  engine.spawn("worker", [&](runtime::Process& self) {
    for (int i = 0; i < ticks; ++i) {
      self.advance(0.1);
      work.inc();
    }
  });
  engine.run();
  sampler.sample(engine.now());
}

TEST(TimeSeriesSampler, SamplesOnVirtualCadence) {
  MetricRegistry reg;
  TimeSeriesSampler sampler(reg, 0.25);
  run_sampled_workload(reg, sampler, 10);  // 1.0 virtual seconds of work
  // Daemon ticks every 0.25 virtual seconds while the worker runs, plus the
  // explicit end-of-run sample at t=1.0.
  ASSERT_GE(sampler.num_rows(), 4u);
  EXPECT_DOUBLE_EQ(sampler.row_time(0), 0.25);
  EXPECT_DOUBLE_EQ(sampler.row_time(1), 0.5);
  EXPECT_DOUBLE_EQ(sampler.row_time(2), 0.75);
  EXPECT_DOUBLE_EQ(sampler.row_time(sampler.num_rows() - 1), 1.0);
  ASSERT_EQ(sampler.columns().size(), 1u);
  EXPECT_EQ(sampler.columns()[0], "work_total");
  // Values grow monotonically tick-to-tick and end at the exact total.
  for (std::size_t r = 1; r < sampler.num_rows(); ++r) {
    EXPECT_LE(sampler.at(r - 1, 0), sampler.at(r, 0));
  }
  EXPECT_DOUBLE_EQ(sampler.at(sampler.num_rows() - 1, 0), 10.0);
}

TEST(TimeSeriesSampler, DeterministicAcrossRuns) {
  auto run_once = [] {
    MetricRegistry reg;
    TimeSeriesSampler sampler(reg, 0.25);
    run_sampled_workload(reg, sampler, 10);
    std::ostringstream os;
    sampler.write_csv(os);
    return os.str();
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical: sampling rides the virtual clock
}

TEST(TimeSeriesSampler, LateBornColumnsReadZeroInEarlierRows) {
  MetricRegistry reg;
  TimeSeriesSampler sampler(reg, 1.0);
  reg.counter("early").inc(1.0);
  sampler.sample(0.0);
  reg.counter("late").inc(7.0);  // born after the first row
  sampler.sample(1.0);
  ASSERT_EQ(sampler.columns().size(), 2u);
  EXPECT_DOUBLE_EQ(sampler.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(sampler.at(1, 1), 7.0);

  std::ostringstream os;
  sampler.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time,early,late"), std::string::npos);
  EXPECT_NE(csv.find("1,7"), std::string::npos);
}

TEST(TimeSeriesSampler, MirrorsSamplesAsTraceCounters) {
  MetricRegistry reg;
  TimeSeriesSampler sampler(reg, 1.0);
  TraceLog trace;
  sampler.set_trace(&trace);
  reg.counter("c").inc(2.0);
  sampler.sample(0.5);
  // One row marker per tick, no per-cell counter record; the values stay
  // in the sampler's table.
  EXPECT_TRUE(trace.counter_events().empty());
  ASSERT_EQ(trace.series_rows().size(), 1u);
  const std::size_t row = trace.series_rows()[0].row;
  EXPECT_EQ(trace.str(trace.series_rows()[0].track), "metrics");
  EXPECT_EQ(sampler.columns().at(0), "c");
  EXPECT_DOUBLE_EQ(sampler.row_time(row), 0.5);
  EXPECT_DOUBLE_EQ(sampler.at(row, 0), 2.0);
  // The export expands the marker into the counter event.
  std::ostringstream os;
  trace.write_chrome_json(os, &sampler);
  EXPECT_NE(os.str().find(R"({"ph":"C","pid":0,"tid":0,"name":"c",)"
                          R"("ts":500000,"args":{"value":2}})"),
            std::string::npos);
}

TEST(TimeSeriesSampler, TraceOutlivingItsSamplerFailsByName) {
  TraceLog trace;
  {
    MetricRegistry reg;
    TimeSeriesSampler sampler(reg, 1.0);
    sampler.set_trace(&trace);
    reg.counter("c").inc();
    sampler.sample(0.5);
  }  // the sampler and its table are gone; the trace keeps its marker
  // The log holds no pointer to the table, so an export without one fails
  // by name (never reads freed memory), and save() fails before it
  // creates the file.
  std::ostringstream os;
  try {
    trace.write_chrome_json(os);
    ADD_FAILURE() << "exported series rows without their sampler";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("no TimeSeriesSampler"),
              std::string::npos)
        << e.what();
  }
  const std::string path = "/tmp/dtrainlib_registry_orphan.trace.json";
  std::remove(path.c_str());
  EXPECT_THROW(trace.save(path), common::Error);
  EXPECT_FALSE(std::ifstream(path).good());
  // A table without the marked row is refused the same way.
  MetricRegistry other;
  const TimeSeriesSampler empty(other, 1.0);
  EXPECT_THROW(trace.write_chrome_json(os, &empty), common::Error);
}

/// The sampler as it was first written: a dense copy of every cell, and
/// one trace counter per cell per tick. The oracle for the change-only
/// table and the trace's row markers.
class PerCellReferenceSampler {
 public:
  explicit PerCellReferenceSampler(const MetricRegistry& reg) : reg_(reg) {}

  void set_trace(TraceLog* trace) { trace_ = trace; }

  void sample(double t) {
    std::vector<double> row;
    reg_.for_each_scalar([&](const std::string& name, const Labels& labels,
                             MetricKind /*kind*/, double value) {
      if (row.size() == columns.size()) {
        columns.push_back(name + labels_to_string(labels));
      }
      if (trace_ != nullptr) {
        trace_->counter("metrics", columns[row.size()], t, value);
      }
      row.push_back(value);
    });
    times.push_back(t);
    rows.push_back(std::move(row));
  }

  [[nodiscard]] double at(std::size_t row, std::size_t col) const {
    return col < rows[row].size() ? rows[row][col] : 0.0;
  }

  [[nodiscard]] std::string csv() const {
    std::ostringstream os;
    os << "time";
    for (const std::string& c : columns) {
      os << ',';
      if (c.find_first_of(",\"") == std::string::npos) {
        os << c;
        continue;
      }
      os << '"';
      for (const char ch : c) os << (ch == '"' ? "\"\"" : std::string(1, ch));
      os << '"';
    }
    os << '\n';
    for (std::size_t r = 0; r < rows.size(); ++r) {
      os << format_number(times[r]);
      for (std::size_t c = 0; c < columns.size(); ++c) {
        os << ',' << format_number(at(r, c));
      }
      os << '\n';
    }
    return os.str();
  }

  std::vector<std::string> columns;
  std::vector<double> times;
  std::vector<std::vector<double>> rows;

 private:
  const MetricRegistry& reg_;
  TraceLog* trace_ = nullptr;
};

TEST(TimeSeriesSampler, ChangeOnlyTableMatchesPerCellReference) {
  // Values whose bits differ where `==` does not tell them apart (+0/-0)
  // or where `==` never holds (NaN payloads), plus infinities, subnormals
  // and plain repeats.
  const double pool[] = {
      0.0,
      -0.0,
      1.0,
      -2.5,
      0.1,
      1e300,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(std::uint64_t{0x7ff8000000000123}),
      std::bit_cast<double>(std::uint64_t{0xfff8000000000001}),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::bit_cast<double>(std::uint64_t{0x000fffffffffffff}),
  };
  constexpr std::size_t kPool = std::size(pool);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    auto pick = [&] { return pool[rng() % kPool]; };
    MetricRegistry reg;
    TimeSeriesSampler sampler(reg, 0.25);
    PerCellReferenceSampler ref(reg);
    TraceLog got;
    TraceLog want;
    std::vector<Gauge*> gauges;
    std::vector<Counter*> counters;
    const int ticks = 40 + static_cast<int>(rng() % 40);
    const int attach_at = static_cast<int>(rng() % 12);  // after some ticks
    double t = 0.0;
    std::size_t direct = 0;
    for (int tick = 0; tick < ticks; ++tick) {
      if (tick == attach_at) {
        sampler.set_trace(&got);
        ref.set_trace(&want);
      }
      // Series born between ticks, some with labels that need quoting in
      // the CSV and escaping in the trace.
      if (rng() % 4 == 0) {
        const std::string i = std::to_string(gauges.size());
        gauges.push_back(rng() % 3 == 0
                             ? &reg.gauge("g" + i, {{"k", "a,\"b\"" + i}})
                             : &reg.gauge("g" + i));
        if (rng() % 2 == 0) gauges.back()->set(pick());
      }
      if (rng() % 6 == 0) {
        counters.push_back(
            &reg.counter("c" + std::to_string(counters.size())));
      }
      for (Gauge* g : gauges) {
        if (rng() % 3 == 0) g->set(pick());
      }
      for (Counter* c : counters) {
        if (rng() % 2 == 0) c->inc(static_cast<double>(rng() % 3));
      }
      // Direct counters on a second track between ticks, on both logs
      // (before the sampler is attached too).
      for (int k = static_cast<int>(rng() % 3); k > 0; --k) {
        const std::string name =
            rng() % 4 == 0 ? "g0" : "mem worker" + std::to_string(rng() % 3);
        const double v = pick();
        got.counter("memory", name, t + 0.1, v);
        want.counter("memory", name, t + 0.1, v);
        ++direct;
      }
      t += rng() % 5 == 0 ? 0.0 : 0.25;  // repeated tick times too
      sampler.sample(t);
      ref.sample(t);
    }

    ASSERT_EQ(sampler.columns(), ref.columns);
    ASSERT_EQ(sampler.num_rows(), ref.rows.size());
    for (std::size_t r = 0; r < ref.rows.size(); ++r) {
      EXPECT_EQ(sampler.row_time(r), ref.times[r]);
      EXPECT_EQ(sampler.row_width(r), ref.rows[r].size());
      for (std::size_t c = 0; c < ref.columns.size(); ++c) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(sampler.at(r, c)),
                  std::bit_cast<std::uint64_t>(ref.at(r, c)))
            << "row " << r << " col " << c;
      }
    }
    std::ostringstream csv;
    sampler.write_csv(csv);
    EXPECT_EQ(csv.str(), ref.csv());

    // Only the direct calls are counter records; each tick since the
    // attach is one marker.
    EXPECT_EQ(got.counter_events().size(), direct);
    EXPECT_EQ(got.series_rows().size(),
              static_cast<std::size_t>(ticks - attach_at));
    std::ostringstream got_json;
    std::ostringstream want_json;
    got.write_chrome_json(got_json, &sampler);
    want.write_chrome_json(want_json);
    EXPECT_EQ(got_json.str(), want_json.str());
  }
}

TEST(TimeSeriesSampler, SaveCsvFailsLoudly) {
  MetricRegistry reg;
  TimeSeriesSampler sampler(reg, 1.0);
  sampler.sample(0.0);
  EXPECT_THROW(sampler.save_csv("/nonexistent-dir/series.csv"),
               common::Error);
}

}  // namespace
}  // namespace dt::metrics
