#include "core/pmf.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "sim/random.hpp"

namespace aqueduct::core {
namespace {

using std::chrono::milliseconds;

TEST(Pmf, EmptyByDefault) {
  Pmf pmf;
  EXPECT_TRUE(pmf.empty());
  EXPECT_EQ(pmf.support_size(), 0u);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(1000)), 0.0);
  EXPECT_DOUBLE_EQ(pmf.total_mass(), 0.0);
}

TEST(Pmf, PointMass) {
  const Pmf pmf = Pmf::point_mass(milliseconds(50));
  EXPECT_EQ(pmf.support_size(), 1u);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(49)), 0.0);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(50)), 1.0);
  EXPECT_EQ(pmf.mean(), milliseconds(50));
}

TEST(Pmf, FromSamplesRelativeFrequency) {
  const std::vector<sim::Duration> samples = {
      milliseconds(10), milliseconds(10), milliseconds(20), milliseconds(30)};
  const Pmf pmf = Pmf::from_samples(samples, milliseconds(1));
  EXPECT_EQ(pmf.support_size(), 3u);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(10)), 0.5);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(20)), 0.75);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(30)), 1.0);
}

TEST(Pmf, FromSamplesEmptyInput) {
  const Pmf pmf = Pmf::from_samples({}, milliseconds(1));
  EXPECT_TRUE(pmf.empty());
}

TEST(Pmf, BucketingMergesNearbySamples) {
  const std::vector<sim::Duration> samples = {
      std::chrono::microseconds(10100), std::chrono::microseconds(10900)};
  const Pmf pmf = Pmf::from_samples(samples, milliseconds(1));
  // Both land in the 10 ms bucket.
  EXPECT_EQ(pmf.support_size(), 1u);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(10)), 1.0);
}

TEST(Pmf, CdfIsMonotone) {
  const std::vector<sim::Duration> samples = {
      milliseconds(5), milliseconds(25), milliseconds(90), milliseconds(40)};
  const Pmf pmf = Pmf::from_samples(samples, milliseconds(1));
  double prev = -1.0;
  for (int d = 0; d <= 100; d += 5) {
    const double c = pmf.cdf(milliseconds(d));
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

TEST(Pmf, ConvolveWithPointMassShifts) {
  const std::vector<sim::Duration> samples = {milliseconds(10), milliseconds(20)};
  const Pmf base = Pmf::from_samples(samples, milliseconds(1));
  const Pmf shifted = base.convolve(Pmf::point_mass(milliseconds(5)));
  EXPECT_DOUBLE_EQ(shifted.cdf(milliseconds(14)), 0.0);
  EXPECT_DOUBLE_EQ(shifted.cdf(milliseconds(15)), 0.5);
  EXPECT_DOUBLE_EQ(shifted.cdf(milliseconds(25)), 1.0);
}

TEST(Pmf, ShiftMatchesPointMassConvolution) {
  const std::vector<sim::Duration> samples = {milliseconds(10), milliseconds(30)};
  const Pmf base = Pmf::from_samples(samples, milliseconds(1));
  const Pmf a = base.shift(milliseconds(7));
  const Pmf b = base.convolve(Pmf::point_mass(milliseconds(7)));
  ASSERT_EQ(a.support_size(), b.support_size());
  for (std::size_t i = 0; i < a.support_size(); ++i) {
    EXPECT_EQ(a.entries()[i].first, b.entries()[i].first);
    EXPECT_DOUBLE_EQ(a.entries()[i].second, b.entries()[i].second);
  }
}

TEST(Pmf, ConvolveEmptyYieldsEmpty) {
  const Pmf base = Pmf::point_mass(milliseconds(5));
  EXPECT_TRUE(base.convolve(Pmf{}).empty());
  EXPECT_TRUE(Pmf{}.convolve(base).empty());
}

TEST(Pmf, ConvolveTwoUniformPairs) {
  const std::vector<sim::Duration> x = {milliseconds(0), milliseconds(10)};
  const std::vector<sim::Duration> y = {milliseconds(0), milliseconds(10)};
  const Pmf conv = Pmf::from_samples(x, milliseconds(1))
                       .convolve(Pmf::from_samples(y, milliseconds(1)));
  // Sum of two fair {0,10} coins: 0 w.p. .25, 10 w.p. .5, 20 w.p. .25.
  EXPECT_DOUBLE_EQ(conv.cdf(milliseconds(0)), 0.25);
  EXPECT_DOUBLE_EQ(conv.cdf(milliseconds(10)), 0.75);
  EXPECT_DOUBLE_EQ(conv.cdf(milliseconds(20)), 1.0);
}

TEST(Pmf, QuantileInverseOfCdf) {
  const std::vector<sim::Duration> samples = {
      milliseconds(10), milliseconds(20), milliseconds(30), milliseconds(40)};
  const Pmf pmf = Pmf::from_samples(samples, milliseconds(1));
  EXPECT_EQ(pmf.quantile(0.25), milliseconds(10));
  EXPECT_EQ(pmf.quantile(0.5), milliseconds(20));
  EXPECT_EQ(pmf.quantile(1.0), milliseconds(40));
}

TEST(Pmf, MeanOfSamples) {
  const std::vector<sim::Duration> samples = {milliseconds(10), milliseconds(30)};
  const Pmf pmf = Pmf::from_samples(samples, milliseconds(1));
  EXPECT_EQ(pmf.mean(), milliseconds(20));
}

// --- property-style sweeps -------------------------------------------------

class PmfPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PmfPropertyTest, MassSumsToOne) {
  sim::Rng rng(GetParam());
  std::vector<sim::Duration> samples;
  const std::size_t n = 1 + rng.uniform_int(40);
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back(rng.normal_duration(milliseconds(100), milliseconds(50)));
  }
  const Pmf pmf = Pmf::from_samples(samples, milliseconds(1));
  EXPECT_NEAR(pmf.total_mass(), 1.0, 1e-9);
}

TEST_P(PmfPropertyTest, ConvolutionMassAndMeanAdd) {
  sim::Rng rng(GetParam() * 31 + 7);
  auto draw = [&](std::size_t n) {
    std::vector<sim::Duration> samples;
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(
          rng.normal_duration(milliseconds(80), milliseconds(40)));
    }
    return Pmf::from_samples(samples, milliseconds(1));
  };
  const Pmf a = draw(1 + rng.uniform_int(20));
  const Pmf b = draw(1 + rng.uniform_int(20));
  const Pmf conv = a.convolve(b);
  EXPECT_NEAR(conv.total_mass(), 1.0, 1e-9);
  // Means add (up to bucketing error of one resolution unit per operand).
  const double expected =
      static_cast<double>(a.mean().count() + b.mean().count());
  EXPECT_NEAR(static_cast<double>(conv.mean().count()), expected,
              2.0 * static_cast<double>(milliseconds(1).count()));
}

TEST_P(PmfPropertyTest, ConvolutionIsCommutative) {
  sim::Rng rng(GetParam() * 97 + 13);
  auto draw = [&](std::size_t n) {
    std::vector<sim::Duration> samples;
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(rng.exponential_duration(milliseconds(50)));
    }
    return Pmf::from_samples(samples, milliseconds(1));
  };
  const Pmf a = draw(5 + rng.uniform_int(15));
  const Pmf b = draw(5 + rng.uniform_int(15));
  const Pmf ab = a.convolve(b);
  const Pmf ba = b.convolve(a);
  ASSERT_EQ(ab.support_size(), ba.support_size());
  for (std::size_t i = 0; i < ab.support_size(); ++i) {
    EXPECT_EQ(ab.entries()[i].first, ba.entries()[i].first);
    EXPECT_NEAR(ab.entries()[i].second, ba.entries()[i].second, 1e-12);
  }
}

TEST_P(PmfPropertyTest, CdfBoundsRespectSupport) {
  sim::Rng rng(GetParam() * 11 + 3);
  std::vector<sim::Duration> samples;
  for (std::size_t i = 0; i < 10; ++i) {
    samples.push_back(milliseconds(10 + 10 * rng.uniform_int(10)));
  }
  const Pmf pmf = Pmf::from_samples(samples, milliseconds(1));
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(9)), 0.0);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(1000)), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmfPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- prefix-sum cdf/quantile vs the pre-prefix linear scan -----------------

/// The original cdf(): a linear scan over the sparse entries, summing
/// masses at or below the deadline.
double scan_cdf(const Pmf& pmf, sim::Duration deadline) {
  double acc = 0.0;
  for (const auto& [value, mass] : pmf.entries()) {
    if (value > deadline) break;
    acc += mass;
  }
  return acc;
}

/// The original quantile(): accumulate in ascending order until the
/// running mass crosses p (same 1e-12 slack as the member function).
sim::Duration scan_quantile(const Pmf& pmf, double p) {
  double acc = 0.0;
  const auto entries = pmf.entries();
  for (const auto& [value, mass] : entries) {
    acc += mass;
    if (acc + 1e-12 >= p) return value;
  }
  return entries.back().first;
}

TEST(Pmf, PrefixCdfMatchesLinearScanBitForBit) {
  // The prefix array must reproduce the old scan exactly — same floating
  // additions in the same (ascending, nonzero-only) order — so memoized
  // CDFs stay bit-identical across the representation change.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    sim::Rng rng(seed * 17 + 5);
    auto draw = [&](std::size_t n, sim::Duration mean) {
      std::vector<sim::Duration> samples;
      for (std::size_t i = 0; i < n; ++i) {
        samples.push_back(rng.normal_duration(mean, mean / 2));
      }
      return Pmf::from_samples(samples, milliseconds(2));
    };
    const Pmf pmf = draw(4 + rng.uniform_int(30), milliseconds(80))
                        .convolve(draw(4 + rng.uniform_int(30), milliseconds(8)));
    ASSERT_FALSE(pmf.empty());
    // Probe every support point, the off-grid gaps next to it, and both
    // far tails. EXPECT_EQ on doubles: bitwise identity, no tolerance.
    for (const auto& [value, mass] : pmf.entries()) {
      EXPECT_EQ(pmf.cdf(value), scan_cdf(pmf, value));
      EXPECT_EQ(pmf.cdf(value - sim::Duration(1)),
                scan_cdf(pmf, value - sim::Duration(1)));
      EXPECT_EQ(pmf.cdf(value + sim::Duration(1)),
                scan_cdf(pmf, value + sim::Duration(1)));
    }
    EXPECT_EQ(pmf.cdf(pmf.min_value() - milliseconds(1)), 0.0);
    EXPECT_EQ(pmf.cdf(pmf.entries().back().first + milliseconds(1)),
              scan_cdf(pmf, pmf.entries().back().first + milliseconds(1)));
    for (const double p : {0.001, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(pmf.quantile(p), scan_quantile(pmf, p)) << "p=" << p;
    }
  }
}

}  // namespace
}  // namespace aqueduct::core
