// Tests for the MetricRegistry instruments and the virtual-time sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "metrics/registry.hpp"
#include "metrics/sampler.hpp"
#include "metrics/trace.hpp"
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
  ASSERT_EQ(trace.counter_events().size(), 1u);
  EXPECT_EQ(trace.str(trace.counter_events()[0].name), "c");
  EXPECT_DOUBLE_EQ(trace.counter_events()[0].t, 0.5);
  EXPECT_DOUBLE_EQ(trace.counter_events()[0].value, 2.0);
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
