#include "harness/stats.hpp"

#include <gtest/gtest.h>

namespace aqueduct::harness {
namespace {

TEST(BinomialCiWilson, CoversPointEstimate) {
  const auto ci = binomial_ci_wilson(3, 50);
  EXPECT_DOUBLE_EQ(ci.point, 0.06);
  EXPECT_LE(ci.lower, ci.point);
  EXPECT_GE(ci.upper, ci.point);
}

TEST(BinomialCiWilson, NonDegenerateAtZeroSuccesses) {
  // Unlike the normal approximation, Wilson gives a non-zero upper bound
  // for 0 successes.
  const auto ci = binomial_ci_wilson(0, 50);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_GT(ci.upper, 0.0);
}

TEST(BinomialCiWilson, ZeroSuccessesSmallN) {
  // Closed form at p̂=0: upper = (z²/n) / (1 + z²/n).
  const auto ci = binomial_ci_wilson(0, 10);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  const double z2n = 1.96 * 1.96 / 10.0;
  EXPECT_NEAR(ci.upper, z2n / (1.0 + z2n), 1e-12);
  EXPECT_LT(ci.upper, 1.0);
}

TEST(BinomialCiWilson, AllSuccessesSmallN) {
  // Closed form at p̂=1: lower = 1 / (1 + z²/n), upper = 1.
  const auto ci = binomial_ci_wilson(10, 10);
  EXPECT_DOUBLE_EQ(ci.point, 1.0);
  const double z2n = 1.96 * 1.96 / 10.0;
  EXPECT_NEAR(ci.lower, 1.0 / (1.0 + z2n), 1e-12);
  EXPECT_NEAR(ci.upper, 1.0, 1e-12);
}

TEST(BinomialCiWilson, ZeroTrials) {
  const auto ci = binomial_ci_wilson(0, 0);
  EXPECT_DOUBLE_EQ(ci.point, 0.0);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_DOUBLE_EQ(ci.upper, 0.0);
}

TEST(Summarize, EmptyInput) {
  const auto s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summarize, BasicMoments) {
  const auto s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);
}

TEST(Summarize, SingleValueHasZeroStddev) {
  const auto s = summarize({7.0});
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
}

TEST(Percentile, EmptyIsZero) { EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0); }

TEST(Percentile, MedianAndExtremes) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(Percentile, InterpolatesBetweenPoints) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 9.9);
}

TEST(Percentile, SingleElementIsThatElementAtEveryQuantile) {
  const std::vector<double> v = {42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 42.0);
}

TEST(Percentile, UnsortedInputGivesSameResultAsSorted) {
  const std::vector<double> shuffled = {9.0, 2.0, 7.0, 1.0, 8.0,
                                        3.0, 6.0, 4.0, 5.0, 0.0};
  const std::vector<double> sorted = {0.0, 1.0, 2.0, 3.0, 4.0,
                                      5.0, 6.0, 7.0, 8.0, 9.0};
  for (const double q : {0.0, 0.1, 0.37, 0.5, 0.9, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(percentile(shuffled, q), percentile(sorted, q)) << q;
  }
}

}  // namespace
}  // namespace aqueduct::harness
