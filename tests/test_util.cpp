#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/check.h"
#include "util/cli.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/search.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

namespace minergy::util {
namespace {

// ---------------------------------------------------------------- check.h

TEST(Check, PassingCheckDoesNothing) {
  EXPECT_NO_THROW(MINERGY_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsLogicError) {
  EXPECT_THROW(MINERGY_CHECK(false), std::logic_error);
}

TEST(Check, MessageIsIncluded) {
  try {
    MINERGY_CHECK_MSG(false, "the answer is 42");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("the answer is 42"),
              std::string::npos);
  }
}

TEST(Check, ParseErrorCarriesLocation) {
  ParseError err("bad token", "foo.bench", 17);
  EXPECT_EQ(err.file(), "foo.bench");
  EXPECT_EQ(err.line_no(), 17);
  EXPECT_NE(std::string(err.what()).find("foo.bench:17"), std::string::npos);
}

// ------------------------------------------------------------------ rng.h

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_index(0), std::logic_error);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(9);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  // The child stream must differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == child.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(HashMix, UnitIsDeterministicAndBounded) {
  for (std::uint64_t x : {0ULL, 1ULL, 42ULL, ~0ULL}) {
    const double u = hash_unit(x);
    EXPECT_EQ(u, hash_unit(x));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_NE(hash_unit(1), hash_unit(2));
}

// ---------------------------------------------------------------- clock.h

// Retry backoff reads unix_monotone(), so a wall step back must not move
// it backwards.
TEST(HaClock, UnixMonotoneNeverDecreasesAcrossWallJumps) {
  // Leaked: the per-instance floor map keys on the Clock address, so stack
  // reuse across tests would make a fresh clock inherit a stale floor.
  auto* vc = new util::VirtualClock();
  const double u0 = vc->unix_monotone();
  vc->jump_wall(-3600.0);  // NTP step back one hour
  const double u1 = vc->unix_monotone();
  EXPECT_GE(u1, u0) << "unix_monotone went backwards on a wall step";
  vc->advance(10.0);
  const double u2 = vc->unix_monotone();
  EXPECT_NEAR(u2 - u1, 10.0, 1e-9)
      << "time does not advance at monotonic rate while wall lags the floor";
  vc->jump_wall(7200.0);  // correction lands: wall is ahead again
  const double u3 = vc->unix_monotone();
  EXPECT_GE(u3, u2);
  EXPECT_GT(u3, u2 + 3000.0) << "forward correction was not taken";

  const double s0 = util::Clock::system().unix_monotone();
  EXPECT_GT(s0, 1.0e9);
  EXPECT_GE(util::Clock::system().unix_monotone(), s0);
}

// ---------------------------------------------------------------- stats.h

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);  // clamps to first bin
  h.add(25.0);  // clamps to last bin
  EXPECT_DOUBLE_EQ(h.count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.count(9), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, QuantileInterpolates) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(0.1 * static_cast<double>(i));
  const double median = h.quantile(0.5);
  EXPECT_NEAR(median, 5.0, 1.0);
  EXPECT_LE(h.quantile(0.1), h.quantile(0.9));
}

TEST(Quantile, ExactValues) {
  std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
}

// -------------------------------------------------------------- strings.h

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  foo \t bar\nbaz ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(to_upper("NanD2"), "NAND2");
  EXPECT_EQ(to_lower("NanD2"), "nand2");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(Strings, FormatEng) {
  EXPECT_EQ(format_eng(3.2e-9, "s"), "3.200ns");
  EXPECT_EQ(format_eng(0.0, "J"), "0J");
  EXPECT_EQ(format_eng(1.5e6, "Hz", 1), "1.5MHz");
}

TEST(Strings, FormatSci) {
  EXPECT_EQ(format_sci(1234.5, 2), "1.23e+03");
}

// ---------------------------------------------------------------- table.h

TEST(Table, TextRendering) {
  Table t({"name", "value"});
  t.begin_row().add("x").add(1);
  t.begin_row().add("long-name").add_sci(1.5e-12);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("1.500e-12"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cell(0, 1), "1");
}

TEST(Table, CsvQuoting) {
  Table t({"a", "b"});
  t.begin_row().add("plain").add("with,comma");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
}

TEST(Table, MarkdownShape) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| a | b |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
}

TEST(Table, RowOverflowThrows) {
  Table t({"only"});
  t.begin_row().add("1");
  EXPECT_THROW(t.add("2"), std::logic_error);
}

TEST(Table, MismatchedAddRowThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::logic_error);
}

// ------------------------------------------------------------------ cli.h

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=1.5", "--steps=12",
                        "--verbose", "input.bench"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get("alpha", 0.0), 1.5);
  EXPECT_EQ(cli.get("steps", 0), 12);
  EXPECT_TRUE(cli.get("verbose", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.bench");
}

TEST(Cli, FallbacksApply) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get("missing", std::string("dflt")), "dflt");
  EXPECT_EQ(cli.get("missing", 3), 3);
  EXPECT_FALSE(cli.has("missing"));
}

TEST(Cli, BadBooleanThrows) {
  const char* argv[] = {"prog", "--flag=maybe"};
  Cli cli(2, argv);
  EXPECT_THROW(cli.get("flag", false), std::invalid_argument);
}

// --------------------------------------------------------------- search.h

TEST(Range, MidLowerHigher) {
  Range r{0.0, 8.0};
  EXPECT_DOUBLE_EQ(r.mid(), 4.0);
  EXPECT_DOUBLE_EQ(r.lower().hi, 4.0);
  EXPECT_DOUBLE_EQ(r.higher().lo, 4.0);
  EXPECT_TRUE(r.contains(8.0));
  EXPECT_DOUBLE_EQ(r.clamp(9.0), 8.0);
}

TEST(Search, BisectMinTrueFindsThreshold) {
  const double x = bisect_min_true(0.0, 10.0, 50,
                                   [](double v) { return v >= 3.7; });
  EXPECT_NEAR(x, 3.7, 1e-9);
}

TEST(Search, BisectMaxTrueFindsThreshold) {
  const double x = bisect_max_true(0.0, 10.0, 50,
                                   [](double v) { return v <= 6.1; });
  EXPECT_NEAR(x, 6.1, 1e-9);
}

TEST(Search, GoldenSectionFindsMinimum) {
  const auto f = [](double v) { return (v - 1.5) * (v - 1.5) + 2.0; };
  int calls = 0;
  double f_min = 0.0;
  const double x = golden_section_min(
      -10.0, 10.0, 60,
      [&](double v) {
        ++calls;
        return f(v);
      },
      &f_min);
  EXPECT_NEAR(x, 1.5, 1e-6);
  // The value handed back is f at the returned point, and no extra call
  // was made to get it: two initial probes plus one per step.
  EXPECT_EQ(f_min, f(x));
  EXPECT_EQ(calls, 62);
}

// ---------------------------------------------------------------- units.h

TEST(Units, ThermalVoltageAt300K) {
  EXPECT_NEAR(thermal_voltage(300.0), 0.02585, 1e-4);
}

}  // namespace
}  // namespace minergy::util
