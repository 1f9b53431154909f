// Pmf, the dense-grid pmf that ResponseState materializes, and the
// properties of the response-time model's one convolution (Eq. 5's
// S (*) W, shifted by G) that the uncached ResponseTimeModel builds it with.
#include "core/pmf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "core/response_model.hpp"
#include "sim/random.hpp"

namespace aqueduct::core {
namespace {

using std::chrono::milliseconds;

/// The Eq. 5 pmf of S + W (+ G) for the given service and queueing
/// samples, built from scratch by the uncached model.
Pmf convolved(const std::vector<sim::Duration>& service,
              const std::vector<sim::Duration>& queueing,
              std::optional<sim::Duration> gateway = {},
              sim::Duration resolution = milliseconds(1)) {
  PerfHistory h(std::max<std::size_t>({service.size(), queueing.size(), 1}));
  for (const sim::Duration v : service) h.service.push(v);
  for (const sim::Duration v : queueing) h.queueing.push(v);
  if (gateway) h.set_gateway_delay(*gateway);
  return ResponseTimeModel(resolution).immediate_pmf(h);
}

/// Relative-frequency pmf of the samples: Eq. 5 with an empty queueing
/// window is S alone.
Pmf of_samples(const std::vector<sim::Duration>& samples,
               sim::Duration resolution = milliseconds(1)) {
  return convolved(samples, {}, {}, resolution);
}

double total_mass(const Pmf& pmf) {
  double acc = 0.0;
  for (const auto& [value, mass] : pmf.entries()) acc += mass;
  return acc;
}

TEST(Pmf, EmptyByDefault) {
  Pmf pmf;
  EXPECT_TRUE(pmf.empty());
  EXPECT_EQ(pmf.support_size(), 0u);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(1000)), 0.0);
}

TEST(Pmf, PointMass) {
  const Pmf pmf = Pmf::from_grid(milliseconds(50), milliseconds(1), {1.0});
  EXPECT_EQ(pmf.support_size(), 1u);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(49)), 0.0);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(50)), 1.0);
  EXPECT_EQ(pmf.mean(), milliseconds(50));
}

TEST(Pmf, FromGridCdfSteps) {
  const Pmf pmf =
      Pmf::from_grid(milliseconds(10), milliseconds(10), {0.5, 0.25, 0.25});
  EXPECT_EQ(pmf.support_size(), 3u);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(10) - sim::Duration(1)), 0.0);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(10)), 0.5);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(20) - sim::Duration(1)), 0.5);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(20)), 0.75);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(30)), 1.0);
}

TEST(Pmf, FromGridTrimsZeroEdges) {
  const Pmf pmf = Pmf::from_grid(sim::Duration::zero(), milliseconds(1),
                                 {0.0, 0.0, 0.5, 0.0, 0.5, 0.0});
  EXPECT_EQ(pmf.min_value(), milliseconds(2));
  EXPECT_EQ(pmf.support_size(), 2u);
  const auto entries = pmf.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].first, milliseconds(2));
  EXPECT_EQ(entries[1].first, milliseconds(4));
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(1)), 0.0);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(3)), 0.5);
  EXPECT_TRUE(Pmf::from_grid(milliseconds(5), milliseconds(1), {0.0, 0.0})
                  .empty());
  EXPECT_TRUE(Pmf::from_grid(milliseconds(5), milliseconds(1), {}).empty());
}

TEST(Pmf, BucketingMergesNearbySamples) {
  const Pmf pmf = of_samples(
      {std::chrono::microseconds(10100), std::chrono::microseconds(10900)});
  // Both land in the 10 ms bucket.
  EXPECT_EQ(pmf.support_size(), 1u);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(10)), 1.0);
}

TEST(Pmf, CdfIsMonotone) {
  const Pmf pmf = of_samples(
      {milliseconds(5), milliseconds(25), milliseconds(90), milliseconds(40)});
  double prev = -1.0;
  for (int d = 0; d <= 100; d += 5) {
    const double c = pmf.cdf(milliseconds(d));
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

TEST(Pmf, ConvolveWithPointMassShifts) {
  const Pmf shifted =
      convolved({milliseconds(10), milliseconds(20)}, {milliseconds(5)});
  EXPECT_DOUBLE_EQ(shifted.cdf(milliseconds(14)), 0.0);
  EXPECT_DOUBLE_EQ(shifted.cdf(milliseconds(15)), 0.5);
  EXPECT_DOUBLE_EQ(shifted.cdf(milliseconds(25)), 1.0);
}

TEST(Pmf, ShiftMatchesPointMassConvolution) {
  // The gateway delay G shifts the grid; a queueing window holding only G
  // convolves with a point mass at G. Both must land on the same pmf.
  const std::vector<sim::Duration> service = {milliseconds(10),
                                              milliseconds(30)};
  const Pmf a = convolved(service, {}, milliseconds(7));
  const Pmf b = convolved(service, {milliseconds(7)});
  ASSERT_EQ(a.support_size(), b.support_size());
  for (std::size_t i = 0; i < a.support_size(); ++i) {
    EXPECT_EQ(a.entries()[i].first, b.entries()[i].first);
    EXPECT_DOUBLE_EQ(a.entries()[i].second, b.entries()[i].second);
  }
}

TEST(Pmf, ConvolveEmptyYieldsEmpty) {
  // No service samples: Eq. 5 has nothing to convolve.
  EXPECT_TRUE(convolved({}, {milliseconds(5)}).empty());
  // No lazy-wait samples and no fallback: Eq. 6 has no U to convolve with.
  PerfHistory h(2);
  h.service.push(milliseconds(5));
  h.queueing.push(milliseconds(1));
  EXPECT_TRUE(ResponseTimeModel().deferred_pmf(h).empty());
}

TEST(Pmf, ConvolveTwoUniformPairs) {
  const Pmf conv = convolved({milliseconds(0), milliseconds(10)},
                             {milliseconds(0), milliseconds(10)});
  // Sum of two fair {0,10} coins: 0 w.p. .25, 10 w.p. .5, 20 w.p. .25.
  EXPECT_DOUBLE_EQ(conv.cdf(milliseconds(0)), 0.25);
  EXPECT_DOUBLE_EQ(conv.cdf(milliseconds(10)), 0.75);
  EXPECT_DOUBLE_EQ(conv.cdf(milliseconds(20)), 1.0);
}

TEST(Pmf, MeanOfSamples) {
  const Pmf pmf = of_samples({milliseconds(10), milliseconds(30)});
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
  const Pmf pmf = of_samples(samples);
  EXPECT_NEAR(total_mass(pmf), 1.0, 1e-9);
  EXPECT_NEAR(pmf.cdf(pmf.entries().back().first), 1.0, 1e-9);
}

TEST_P(PmfPropertyTest, FromGridTrimsZeroPadding) {
  sim::Rng rng(GetParam() * 53 + 1);
  const std::size_t lead = rng.uniform_int(6);
  const std::size_t tail = rng.uniform_int(6);
  const std::size_t body = 1 + rng.uniform_int(30);
  std::vector<double> mass(lead + body + tail, 0.0);
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < body; ++i) {
    // The body's ends always carry mass; interior buckets may be empty.
    const bool edge = i == 0 || i + 1 == body;
    if (edge || rng.uniform() < 0.6) {
      mass[lead + i] = 0.01 + rng.uniform();
      ++nonzero;
    }
  }
  const sim::Duration origin = milliseconds(rng.uniform_int(100));
  const sim::Duration resolution = milliseconds(1 + rng.uniform_int(4));
  const Pmf pmf = Pmf::from_grid(origin, resolution, mass);
  EXPECT_EQ(pmf.min_value(),
            origin + static_cast<std::int64_t>(lead) * resolution);
  EXPECT_EQ(pmf.support_size(), nonzero);
  const auto entries = pmf.entries();
  ASSERT_EQ(entries.size(), nonzero);
  EXPECT_EQ(entries.back().first,
            origin + static_cast<std::int64_t>(lead + body - 1) * resolution);
  EXPECT_EQ(pmf.cdf(pmf.min_value() - sim::Duration(1)), 0.0);
}

TEST_P(PmfPropertyTest, ConvolutionMassAndMeanAdd) {
  sim::Rng rng(GetParam() * 31 + 7);
  auto draw = [&](std::size_t n) {
    std::vector<sim::Duration> samples;
    for (std::size_t i = 0; i < n; ++i) {
      samples.push_back(
          rng.normal_duration(milliseconds(80), milliseconds(40)));
    }
    return samples;
  };
  const auto a = draw(1 + rng.uniform_int(20));
  const auto b = draw(1 + rng.uniform_int(20));
  const Pmf conv = convolved(a, b);
  EXPECT_NEAR(total_mass(conv), 1.0, 1e-9);
  // Means add (up to bucketing error of one resolution unit per operand).
  const double expected = static_cast<double>(of_samples(a).mean().count() +
                                              of_samples(b).mean().count());
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
    return samples;
  };
  const auto a = draw(5 + rng.uniform_int(15));
  const auto b = draw(5 + rng.uniform_int(15));
  const Pmf ab = convolved(a, b);
  const Pmf ba = convolved(b, a);
  ASSERT_EQ(ab.support_size(), ba.support_size());
  // Integer counts times one inverse: the two orders agree exactly.
  EXPECT_EQ(ab.entries(), ba.entries());
}

TEST_P(PmfPropertyTest, CdfBoundsRespectSupport) {
  sim::Rng rng(GetParam() * 11 + 3);
  std::vector<sim::Duration> samples;
  for (std::size_t i = 0; i < 10; ++i) {
    samples.push_back(milliseconds(10 + 10 * rng.uniform_int(10)));
  }
  const Pmf pmf = of_samples(samples);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(9)), 0.0);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(1000)), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmfPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- prefix-sum cdf vs the pre-prefix linear scan --------------------------

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

TEST(Pmf, PrefixCdfMatchesLinearScanBitForBit) {
  // The prefix array must reproduce the old scan exactly — same floating
  // additions in the same (ascending, nonzero-only) order — so memoized
  // CDFs stay bit-identical across the representation change.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed * 17 + 5);
    auto draw = [&](std::size_t n, sim::Duration mean) {
      std::vector<sim::Duration> samples;
      for (std::size_t i = 0; i < n; ++i) {
        samples.push_back(rng.normal_duration(mean, mean / 2));
      }
      return samples;
    };
    const auto s = draw(4 + rng.uniform_int(30), milliseconds(80));
    const auto w = draw(4 + rng.uniform_int(30), milliseconds(8));
    const Pmf pmf = convolved(s, w, {}, milliseconds(2));
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
  }
}

}  // namespace
}  // namespace aqueduct::core
