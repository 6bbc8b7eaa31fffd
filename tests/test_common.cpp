// Unit tests for src/common: RNG, units, table writer, error checks.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/chart.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace dt::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng root(7);
  Rng s0 = root.fork(0);
  Rng s1 = root.fork(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s0.next() == s1.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
  // Forking is a const operation: two forks with the same id are identical.
  Rng s0b = root.fork(0);
  Rng s0c = root.fork(0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s0b.next(), s0c.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(42);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(9);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_u64(7)];
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 7 * 0.1);
}

TEST(Rng, UniformU64ZeroIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform_u64(0), 0u);
  EXPECT_EQ(rng.uniform_u64(1), 0u);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.02), 0.0);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(gbps(10.0), 1.25e9);
  EXPECT_DOUBLE_EQ(gbps(56.0), 7e9);
  EXPECT_DOUBLE_EQ(millis(3.0), 0.003);
  EXPECT_DOUBLE_EQ(micros(50.0), 5e-5);
  EXPECT_DOUBLE_EQ(tflops(14.9), 14.9e12);
  EXPECT_EQ(float_bytes(25), 100u);
  EXPECT_DOUBLE_EQ(mib(2.0), 2.0 * 1024 * 1024);
}

TEST(Table, PrintsAlignedRows) {
  Table t("demo");
  t.set_header({"algo", "acc"});
  t.add_row({"BSP", "0.75"});
  t.add_row({"AD-PSGD", "0.74"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("AD-PSGD"), std::string::npos);
  EXPECT_NE(out.find("| BSP"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t;
  t.set_header({"a", "b"});
  t.add_row({"x,y", "q\"z"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"q\"\"z\"\n");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, HeaderAfterRowsThrows) {
  Table t;
  t.add_row({"x"});
  EXPECT_THROW(t.set_header({"a"}), Error);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(0.75118, 4), "0.7512");
  EXPECT_EQ(fmt(2.0, 1), "2.0");
  EXPECT_EQ(fmt_pct(0.123, 1), "12.3%");
}

TEST(Chart, PlotsCornerPoints) {
  LineChart chart("demo", 20, 5);
  chart.add_series("s", {{0.0, 0.0}, {10.0, 1.0}});
  std::ostringstream os;
  chart.print(os);
  const std::string out = os.str();
  // Highest point in the top row, lowest in the bottom row.
  std::istringstream lines(out);
  std::string line;
  std::getline(lines, line);  // title
  std::getline(lines, line);  // top row
  EXPECT_EQ(line.back(), '*');
  EXPECT_NE(out.find("legend:  * = s"), std::string::npos);
  EXPECT_NE(out.find("1.000"), std::string::npos);
  EXPECT_NE(out.find("0.000"), std::string::npos);
}

TEST(Chart, MultipleSeriesGetDistinctGlyphs) {
  LineChart chart("demo", 20, 5);
  chart.add_series("a", {{0, 0}});
  chart.add_series("b", {{1, 1}});
  std::ostringstream os;
  chart.print(os);
  EXPECT_NE(os.str().find("* = a"), std::string::npos);
  EXPECT_NE(os.str().find("o = b"), std::string::npos);
}

TEST(Chart, EmptyChartSaysNoData) {
  LineChart chart("demo");
  std::ostringstream os;
  chart.print(os);
  EXPECT_NE(os.str().find("(no data)"), std::string::npos);
}

TEST(Chart, FixedYRangeClipsOutliers) {
  LineChart chart("demo", 20, 5);
  chart.set_y_range(0.0, 1.0);
  chart.add_series("s", {{0.0, 5.0}, {1.0, 0.5}});  // first point clipped
  std::ostringstream os;
  EXPECT_NO_THROW(chart.print(os));
  EXPECT_THROW(chart.set_y_range(2.0, 1.0), Error);
}

TEST(Check, ThrowsWithLocation) {
  try {
    check(false, "boom");
    FAIL() << "check did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"),
              std::string::npos);
  }
}

TEST(Check, PassesWhenTrue) { EXPECT_NO_THROW(check(true, "fine")); }

TEST(Check, FailureTextIsCallerFileLineAndMessage) {
  const int line = __LINE__ + 2;
  try {
    check(false, "boom");
    FAIL() << "check did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "tests/test_common.cpp:" + std::to_string(line) + ": boom");
  }
}

TEST(Check, FormattedFailureKeepsTheSamePrefix) {
  const std::string name = "w3";
  const int line = __LINE__ + 2;
  try {
    fail("bad name " + name);
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "tests/test_common.cpp:" +
                                         std::to_string(line) +
                                         ": bad name w3");
  }
}

TEST(Check, LibraryFailureNamesItsFileFromTheRepositoryRoot) {
  // The same failure reads the same in every checkout: the prefix is the
  // source file relative to the repository root, not the path the
  // compiler was given.
  Table t;
  t.set_header({"a", "b"});
  try {
    t.add_row({"only-one"});
    FAIL() << "add_row did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what.starts_with("src/common/table.cpp:")) << what;
  }
}

}  // namespace
}  // namespace dt::common
