// Tests for common utilities: RNG, statistics, CLI parsing, table printing.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace qec {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256ss a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256ss a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256ss rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability) {
  Xoshiro256ss rng(11);
  for (double p : {0.0, 0.01, 0.3, 0.5, 1.0}) {
    int hits = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) hits += rng.bernoulli(p);
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01) << "p=" << p;
  }
}

TEST(Rng, BernoulliThresholdIsExact) {
  // The integer form the noise sampler hoists out of its loop must agree
  // with uniform() < p for every p, including the edges where the double
  // -> integer conversion could go wrong.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double two_m53 = std::ldexp(1.0, -53);
  const double ps[] = {0.0,
                       -0.0,
                       -1e-300,
                       -0.5,
                       -kInf,
                       std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::denorm_min(),
                       std::nextafter(two_m53, 0.0),
                       two_m53,
                       std::nextafter(two_m53, 1.0),
                       1e-3,
                       0.5,
                       std::nextafter(1.0, 0.0),
                       1.0,
                       1.5,
                       kInf};
  const auto below_p = [](std::uint64_t u, double p) {
    return static_cast<double>(u) * 0x1.0p-53 < p;
  };
  for (const double p : ps) {
    SCOPED_TRACE(testing::Message() << "p=" << p);
    const std::uint64_t t = Xoshiro256ss::bernoulli_threshold(p);
    ASSERT_LE(t, Xoshiro256ss::kUnitThreshold);
    // Boundary draws: u = T-1 is the largest success, u = T the smallest
    // failure.
    if (t > 0) {
      EXPECT_TRUE(below_p(t - 1, p));
    }
    if (t < Xoshiro256ss::kUnitThreshold) {
      EXPECT_FALSE(below_p(t, p));
    }
    // Shared raw draws: the threshold form on one copy of the stream,
    // uniform() < p on the other.
    Xoshiro256ss raw(1234), ref(1234);
    for (int i = 0; i < 4096; ++i) {
      ASSERT_EQ((raw() >> 11) < t, ref.uniform() < p);
    }
    // bernoulli() skips the draw exactly where bernoulli_draws() says so,
    // and its draw-free answer is the threshold's.
    Xoshiro256ss a(77), b(77);
    const bool hit = a.bernoulli(p);
    if (Xoshiro256ss::bernoulli_draws(p)) {
      EXPECT_EQ(hit, (b() >> 11) < t);
    } else {
      EXPECT_EQ(hit, t != 0);
    }
    EXPECT_EQ(a(), b());
  }
  EXPECT_TRUE(Xoshiro256ss::bernoulli_draws(
      std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(Xoshiro256ss::bernoulli_threshold(
                std::numeric_limits<double>::denorm_min()),
            1u);
  EXPECT_EQ(Xoshiro256ss::bernoulli_threshold(two_m53), 1u);
  EXPECT_EQ(Xoshiro256ss::bernoulli_threshold(std::nextafter(two_m53, 1.0)),
            2u);
  EXPECT_EQ(Xoshiro256ss::bernoulli_threshold(std::nextafter(1.0, 0.0)),
            Xoshiro256ss::kUnitThreshold - 1);
}

TEST(Rng, BelowStaysInRangeAndCoversAll) {
  Xoshiro256ss rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, JumpProducesDecorrelatedStream) {
  Xoshiro256ss a(99);
  Xoshiro256ss b(99);
  b.jump();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Stats, MeanAndVariance) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);  // classic population-variance set
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(Stats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(Stats, MergeEqualsSequential) {
  Xoshiro256ss rng(3);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 10.0;
    whole.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
}

TEST(Stats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Wilson, BracketsPointEstimate) {
  const auto ci = wilson_interval(10, 100);
  EXPECT_LT(ci.lower, 0.1);
  EXPECT_GT(ci.upper, 0.1);
  EXPECT_GT(ci.lower, 0.0);
  EXPECT_LT(ci.upper, 1.0);
}

TEST(Wilson, ZeroSuccessesHasPositiveUpper) {
  const auto ci = wilson_interval(0, 1000);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_GT(ci.upper, 0.0);
  EXPECT_LT(ci.upper, 0.01);
}

TEST(Wilson, AllSuccesses) {
  const auto ci = wilson_interval(50, 50);
  EXPECT_LT(ci.lower, 1.0);
  EXPECT_DOUBLE_EQ(ci.upper, 1.0);
}

TEST(Wilson, NoTrials) {
  const auto ci = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_DOUBLE_EQ(ci.upper, 1.0);
}

TEST(Wilson, ShrinksWithTrials) {
  const auto narrow = wilson_interval(100, 10000);
  const auto wide = wilson_interval(1, 100);
  EXPECT_LT(narrow.upper - narrow.lower, wide.upper - wide.lower);
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--d=7", "--p", "0.01", "--verbose", "file"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int_or("d", 0), 7);
  EXPECT_DOUBLE_EQ(args.get_double_or("p", 0.0), 0.01);
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_FALSE(args.get_flag("quiet"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "file");
}

TEST(Cli, MalformedNumbersReturnNullopt) {
  const char* argv[] = {"prog", "--d=abc"};
  CliArgs args(2, argv);
  EXPECT_FALSE(args.get_int("d").has_value());
  EXPECT_EQ(args.get_int_or("d", 5), 5);
}

TEST(Cli, TrialsOverridePrefersFlag) {
  const char* argv[] = {"prog", "--trials=123"};
  CliArgs args(2, argv);
  EXPECT_EQ(trials_override(args, 999), 123);
}

TEST(Cli, TrialsFallback) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  unsetenv("QECOOL_TRIALS");
  EXPECT_EQ(trials_override(args, 999), 999);
}

TEST(Table, RendersAlignedColumns) {
  TextTable table({"a", "bbbb"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("a    bbbb"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::sci(0.00123, 1), "1.2e-03");
}

}  // namespace
}  // namespace qec
