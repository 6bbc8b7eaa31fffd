// Tests for metrics accounting and the Chrome-tracing export.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <vector>

#include "core/trainer.hpp"
#include "metrics/metrics.hpp"
#include "metrics/trace.hpp"
#include "metrics/writer.hpp"
#include "runtime/sim.hpp"

namespace dt::metrics {
namespace {

TEST(WorkerMetrics, AccumulatesPerPhase) {
  WorkerMetrics wm;
  wm.accumulate(Phase::compute, 1.0);
  wm.accumulate(Phase::compute, 0.5);
  wm.accumulate(Phase::comm, 2.0);
  wm.count_iteration(32);
  wm.count_iteration(32);
  EXPECT_DOUBLE_EQ(wm.phase_time(Phase::compute), 1.5);
  EXPECT_DOUBLE_EQ(wm.phase_time(Phase::comm), 2.0);
  EXPECT_DOUBLE_EQ(wm.phase_time(Phase::local_agg), 0.0);
  EXPECT_DOUBLE_EQ(wm.total_time(), 3.5);
  EXPECT_EQ(wm.iterations(), 2);
  EXPECT_EQ(wm.samples(), 64);
}

TEST(PhaseTimer, MeasuresVirtualTime) {
  runtime::SimEngine engine;
  WorkerMetrics wm;
  engine.spawn("p", [&](runtime::Process& self) {
    PhaseTimer t(self, wm, Phase::compute);
    self.advance(2.5);
  });
  engine.run();
  EXPECT_DOUBLE_EQ(wm.phase_time(Phase::compute), 2.5);
}

TEST(PhaseTimer, FeedsAttachedTrace) {
  runtime::SimEngine engine;
  WorkerMetrics wm;
  TraceLog trace;
  wm.set_trace(&trace, "w0");
  engine.spawn("p", [&](runtime::Process& self) {
    {
      PhaseTimer t(self, wm, Phase::compute);
      self.advance(1.0);
    }
    {
      PhaseTimer t(self, wm, Phase::comm);
      self.advance(0.5);
    }
  });
  engine.run();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.str(trace.events()[0].name), "compute");
  EXPECT_DOUBLE_EQ(trace.events()[0].start, 0.0);
  EXPECT_DOUBLE_EQ(trace.events()[0].end, 1.0);
  EXPECT_EQ(trace.str(trace.events()[1].name), "comm");
  EXPECT_DOUBLE_EQ(trace.events()[1].end, 1.5);
}

TEST(TraceLog, ChromeJsonShape) {
  TraceLog trace;
  trace.record("worker0", "compute", 0.0, 0.001);
  trace.record("worker1", "comm", 0.001, 0.002);
  std::ostringstream os;
  trace.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"compute")"), std::string::npos);
  EXPECT_NE(json.find(R"("thread_name")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"worker1")"), std::string::npos);
  // Timestamps in microseconds.
  EXPECT_NE(json.find(R"("ts":1000)"), std::string::npos);
}

TEST(TraceLog, RejectsNegativeDuration) {
  TraceLog trace;
  EXPECT_THROW(trace.record("t", "e", 2.0, 1.0), common::Error);
}

TEST(TraceLog, EscapesJsonSpecials) {
  TraceLog trace;
  trace.record("tr\"ack\\", "na\nme\tx\x01", 0.0, 1.0);
  std::ostringstream os;
  trace.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find(R"(tr\"ack\\)"), std::string::npos);
  EXPECT_NE(json.find(R"(na\nme\tx)"), std::string::npos);
  // The \x01 must become a \u escape; no raw control character may
  // survive (the only one in the output is the '\n' event separator).
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  for (char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
}

TEST(TraceLog, EmitsCounterEvents) {
  TraceLog trace;
  trace.counter("metrics", "net.in_flight", 0.5, 3.0);
  EXPECT_EQ(trace.size(), 1u);
  std::ostringstream os;
  trace.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find(R"("ph":"C")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"net.in_flight")"), std::string::npos);
  EXPECT_NE(json.find(R"("ts":500000)"), std::string::npos);
  EXPECT_NE(json.find(R"("value":3)"), std::string::npos);
}

TEST(TraceLog, EmitsFlowEventPairs) {
  TraceLog trace;
  trace.record("worker0", "comm", 0.0, 0.002);
  trace.record("ps0", "agg", 0.001, 0.003);
  trace.flow("worker0", "ps0", "grad", 0.001, 0.002, 42);
  std::ostringstream os;
  trace.write_chrome_json(os);
  const std::string json = os.str();
  // One start ("s") on the source track and one finish ("f") on the
  // destination track, paired by id.
  EXPECT_NE(json.find(R"("ph":"s")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"f")"), std::string::npos);
  EXPECT_NE(json.find(R"("id":42)"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"grad")"), std::string::npos);
}

TEST(TraceLog, RejectsFlowArrivingBeforeSend) {
  TraceLog trace;
  EXPECT_THROW(trace.flow("a", "b", "m", 2.0, 1.0, 1), common::Error);
}

TEST(TraceLog, SaveFailsLoudlyOnBadPath) {
  TraceLog trace;
  trace.record("t", "e", 0.0, 1.0);
  EXPECT_THROW(trace.save("/nonexistent-dir/trace.json"), common::Error);
}

/// What a std::ostream with default flags prints for `v` at `precision`.
std::string ostream_text(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

TEST(NumberFormat, MatchesDefaultOstream) {
  const double values[] = {0.0,
                           -0.0,
                           1e-5,
                           0.1 + 0.2,
                           123456.0,
                           1234567.0,
                           1e300,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (const int precision : {6, 12}) {
    for (const double v : values) {
      EXPECT_EQ(format_number(v, precision), ostream_text(v, precision))
          << "precision " << precision;
    }
  }
}

TEST(NumberFormat, MatchesDefaultOstreamOnRandomDoubles) {
  // Mantissas and exponents across the whole range, including values just
  // below a power of ten, which round up into the next decade.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> mant(-10.0, 10.0);
  std::uniform_int_distribution<int> decade(-320, 300);
  std::ostringstream got6;
  std::ostringstream got12;
  std::ostringstream want6;
  std::ostringstream want12;
  {
    ChunkWriter w6(got6);
    ChunkWriter w12(got12);
    for (int i = 0; i < 20000; ++i) {
      const double p10 = std::pow(10.0, decade(rng));
      const double v =
          i % 4 == 0 ? std::nextafter(p10, 0.0) : mant(rng) * p10;
      w6.number(v);
      w6.put(',');
      w12.number(v, 12);
      w12.put(',');
      want6 << ostream_text(v, 6) << ',';
      want12 << ostream_text(v, 12) << ',';
    }
  }
  EXPECT_EQ(got6.str(), want6.str());
  EXPECT_EQ(got12.str(), want12.str());
}

TEST(ChunkWriter, StreamsAcrossChunkBoundaries) {
  // Several chunks of output, with numbers and strings straddling the
  // boundaries and one string larger than a whole chunk.
  const std::string big(ChunkWriter::kChunkBytes + 7, 'x');
  std::ostringstream os;
  std::string want;
  {
    ChunkWriter w(os);
    for (int i = 0; i < 400000; ++i) {
      w.put("event");
      w.integer(i);
      w.put(':');
      w.number(i * 0.1);
      want += "event" + std::to_string(i) + ":" + format_number(i * 0.1);
      if (i % 100000 == 0) {
        w.put(big);
        want += big;
      }
    }
  }
  EXPECT_GT(want.size(), 3 * ChunkWriter::kChunkBytes);
  EXPECT_EQ(os.str(), want);
}

TEST(ChunkWriter, EmptyViewPutIsANoOp) {
  // A default string_view has a null data pointer, which memcpy must never
  // see (UBSan's nonnull check), whether the buffer is empty or not.
  std::ostringstream os;
  {
    ChunkWriter w(os);
    w.put(std::string_view{});
    w.put("ab");
    w.put(std::string_view{});
    w.put('c');
  }
  EXPECT_EQ(os.str(), "abc");
}

/// Values a number memo could confuse: signed zeros, NaNs that differ only
/// in sign or payload (the all-ones pattern among them), infinities,
/// subnormals, and neighbours of the %g switch points 1e-4 and 1e6.
std::vector<double> memo_adversaries() {
  const double inf = std::numeric_limits<double>::infinity();
  const double min_normal = std::numeric_limits<double>::min();
  const double denorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> v = {0.0,
                           -0.0,
                           inf,
                           -inf,
                           denorm,
                           -denorm,
                           std::nextafter(min_normal, 0.0),
                           min_normal,
                           1.0,
                           0.1 + 0.2,
                           999999.5,
                           9.999995e-5};
  for (const double edge : {1e-4, 1e6, -1e-4, -1e6}) {
    v.push_back(std::nextafter(edge, 0.0));
    v.push_back(edge);
    v.push_back(std::nextafter(edge, 2.0 * edge));
  }
  for (const std::uint64_t bits :
       {0x7ff8000000000000ull, 0xfff8000000000000ull, 0x7ff0000000000001ull,
        0x7ff4000000000000ull, 0x7fffffffffffffffull, 0xffffffffffffffffull,
        0x0000000000000000ull, 0x8000000000000000ull}) {
    v.push_back(std::bit_cast<double>(bits));
  }
  return v;
}

TEST(NumberMemo, FreshMemoPrintsItsFirstValue) {
  // A memo that marks "empty" with a sentinel bit pattern instead of an
  // explicit state prints nothing when the first value has that pattern.
  for (const double v : memo_adversaries()) {
    std::ostringstream os;
    {
      ChunkWriter w(os);
      ChunkWriter::NumberMemo memo;
      w.number(v, memo);
      w.put(',');
      w.number(v, memo);
    }
    EXPECT_EQ(os.str(), format_number(v) + "," + format_number(v))
        << std::hex << std::bit_cast<std::uint64_t>(v);
  }
}

TEST(NumberMemo, RunsAndAlternationsMatchFormatNumber) {
  // Every ordered pair through one memo, as a run and as an alternation:
  // a memo keyed by == would print 0.0's text for -0.0.
  const std::vector<double> values = memo_adversaries();
  std::ostringstream os;
  std::string want;
  {
    ChunkWriter w(os);
    for (const double a : values) {
      for (const double b : values) {
        ChunkWriter::NumberMemo memo;
        for (const double v : {a, a, a, b, b, a, b, a, b, b}) {
          w.number(v, memo);
          w.put(',');
          want += format_number(v) + ",";
        }
      }
    }
  }
  EXPECT_EQ(os.str(), want);
}

TEST(NumberMemo, RandomSitesAcrossChunksMatchFormatNumber) {
  // Several memos (call sites) drawing from a small pool, so most calls
  // hit, mixed with fresh random doubles, over several chunks: hits and
  // misses land on every chunk boundary offset.
  std::mt19937_64 rng(5);
  std::vector<double> pool = memo_adversaries();
  std::uniform_real_distribution<double> mant(-10.0, 10.0);
  std::uniform_int_distribution<int> decade(-310, 300);
  for (int i = 0; i < 16; ++i) {
    pool.push_back(mant(rng) * std::pow(10.0, decade(rng)));
  }
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  std::uniform_int_distribution<int> run(1, 12);
  std::ostringstream os;
  std::string want;
  {
    ChunkWriter w(os);
    ChunkWriter::NumberMemo memos[4];
    std::size_t site = 0;
    while (want.size() < 3 * ChunkWriter::kChunkBytes + 1000) {
      const double v = rng() % 8 == 0
                           ? mant(rng) * std::pow(10.0, decade(rng))
                           : pool[pick(rng)];
      for (int k = run(rng); k > 0; --k) {
        site = (site + rng() % 2) % 4;
        w.number(v, memos[site]);
        w.put(k % 3 == 0 ? "," : ";");
        want += format_number(v) + (k % 3 == 0 ? "," : ";");
      }
    }
  }
  EXPECT_EQ(os.str(), want);
}

TEST(NumberMemo, HitsStraddleTheChunkBoundary) {
  // A repeated value plus a separator is 15 bytes, an odd period, so the
  // write position passes every offset near the end of the chunk.
  std::ostringstream os;
  std::string want;
  {
    ChunkWriter w(os);
    ChunkWriter::NumberMemo memo;
    const double v = -1.23456789e-300;
    const std::string text = format_number(v);
    while (want.size() < 2 * ChunkWriter::kChunkBytes) {
      w.number(v, memo);
      w.put("||");
      want += text + "||";
    }
  }
  EXPECT_EQ(os.str(), want);
}

/// The Chrome-trace writer as it was first written: one `operator<<` per
/// field into the stream, tids from a std::map, strings escaped per event.
std::string reference_chrome_json(const TraceLog& trace) {
  std::map<std::string, int> tids;
  auto tid_of = [&tids](const std::string& track) {
    return tids.emplace(track, static_cast<int>(tids.size())).first->second;
  };
  const auto& s = [&trace](TraceLog::Id id) { return trace.str(id); };
  for (const auto& e : trace.events()) tid_of(s(e.track));
  for (const auto& e : trace.counter_events()) tid_of(s(e.track));
  for (const auto& e : trace.flow_events()) {
    tid_of(s(e.src_track));
    tid_of(s(e.dst_track));
  }
  for (const auto& e : trace.instant_events()) tid_of(s(e.track));
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  auto sep = [&os, &first] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& [track, tid] : tids) {
    sep();
    os << R"({"ph":"M","pid":0,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":")" << json_escape(track)
       << R"("}})";
  }
  for (const auto& e : trace.events()) {
    sep();
    os << R"({"ph":"X","pid":0,"tid":)" << tids[s(e.track)]
       << R"(,"name":")" << json_escape(s(e.name)) << R"(","ts":)"
       << e.start * 1e6 << R"(,"dur":)" << (e.end - e.start) * 1e6 << "}";
  }
  for (const auto& e : trace.counter_events()) {
    sep();
    os << R"({"ph":"C","pid":0,"tid":)" << tids[s(e.track)]
       << R"(,"name":")" << json_escape(s(e.name)) << R"(","ts":)"
       << e.t * 1e6 << R"(,"args":{"value":)" << e.value << "}}";
  }
  for (const auto& e : trace.instant_events()) {
    sep();
    os << R"({"ph":"i","s":"t","pid":0,"tid":)" << tids[s(e.track)]
       << R"(,"name":")" << json_escape(s(e.name)) << R"(","ts":)"
       << e.t * 1e6 << "}";
  }
  for (const auto& e : trace.flow_events()) {
    sep();
    os << R"({"ph":"s","cat":"net","pid":0,"tid":)" << tids[s(e.src_track)]
       << R"(,"name":")" << json_escape(s(e.name)) << R"(","id":)" << e.id
       << R"(,"ts":)" << e.sent * 1e6 << "}";
    sep();
    os << R"({"ph":"f","bp":"e","cat":"net","pid":0,"tid":)"
       << tids[s(e.dst_track)] << R"(,"name":")" << json_escape(s(e.name))
       << R"(","id":)" << e.id << R"(,"ts":)" << e.arrival * 1e6 << "}";
  }
  os << "\n]\n";
  return os.str();
}

TEST(TraceLog, LargeTraceMatchesOneShotReference) {
  // Tracks whose first appearance order differs from their name order,
  // names that need escaping, and enough events that the output spans
  // several 1 MiB chunks.
  TraceLog trace;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(0.0, 100.0);
  const char* tracks[] = {"worker9", "ps0", "worker10", "faults", "tr\"q"};
  const char* names[] = {"compute", "comm", "x\ny", "worker9->ps0"};
  for (int i = 0; i < 20000; ++i) {
    const double t = u(rng);
    trace.record(tracks[i % 5], names[i % 4], t, t + u(rng) * 1e-3);
    trace.counter("metrics", names[(i + 1) % 4], t, u(rng) * 1e6);
    trace.flow(tracks[(i + 2) % 5], tracks[(i + 3) % 5], names[i % 4], t,
               t + 1e-4, static_cast<std::uint64_t>(i) * 977);
    if (i % 50 == 0) trace.instant("membership", "crash", t);
  }
  std::ostringstream os;
  trace.write_chrome_json(os);
  const std::string got = os.str();
  EXPECT_GT(got.size(), 3 * ChunkWriter::kChunkBytes);
  EXPECT_EQ(got, reference_chrome_json(trace));
}

TEST(TraceLog, RepeatingValuesMatchOneShotReference) {
  // What the export memos: sampler ticks that stamp every series with one
  // time, series that hold still or flip between 0 and -0, and flows that
  // share a send time.
  TraceLog trace;
  const char* series[] = {"a", "b", "c", "d"};
  for (int tick = 0; tick < 2000; ++tick) {
    const double t = tick * 0.005;
    for (int k = 0; k < 4; ++k) {
      const double value = k == 0   ? tick / 10
                           : k == 1 ? (tick % 2 == 0 ? 0.0 : -0.0)
                           : k == 2 ? 42.0
                                    : tick * 1e-3;
      trace.counter("metrics", series[k], t, value);
    }
    trace.counter("memory", "worker0", t, tick % 7 == 0 ? 1.5e6 : 1.5e6 + 1);
    for (int k = 0; k < 3; ++k) {
      trace.flow("ps0", series[k], "ps0->w", t, t + 1e-4 * (k + 1),
                 static_cast<std::uint64_t>(tick * 3 + k));
    }
  }
  std::ostringstream os;
  trace.write_chrome_json(os);
  EXPECT_EQ(os.str(), reference_chrome_json(trace));
}

TEST(RunResult, ThroughputAndPhaseMeans) {
  RunResult r;
  r.total_samples = 100;
  r.virtual_duration = 4.0;
  EXPECT_DOUBLE_EQ(r.throughput(), 25.0);
  WorkerMetrics a, b;
  a.accumulate(Phase::compute, 2.0);
  b.accumulate(Phase::compute, 4.0);
  r.workers = {a, b};
  EXPECT_DOUBLE_EQ(r.mean_phase_time(Phase::compute), 3.0);
}

TEST(SessionTrace, WritesChromeJsonFile) {
  const std::string path = "/tmp/dtrainlib_trace_test.json";
  std::remove(path.c_str());

  cost::ModelProfile profile = cost::uniform_profile("u", 4, 100'000, 1e9);
  core::Workload wl = core::make_cost_workload(profile, 32);
  core::TrainConfig cfg;
  cfg.algo = core::Algo::asp;
  cfg.num_workers = 4;
  cfg.iterations = 3;
  cfg.opt.ps_shards_per_machine = 1;
  cfg.trace_path = path;
  core::run_training(cfg, wl);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("worker0"), std::string::npos);
  EXPECT_NE(json.find("worker3"), std::string::npos);
  EXPECT_NE(json.find("compute"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dt::metrics
