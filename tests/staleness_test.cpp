#include "core/staleness.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "sim/random.hpp"

namespace aqueduct::core {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

// --- poisson_cdf -----------------------------------------------------------

TEST(PoissonCdf, ZeroMeanIsCertain) {
  EXPECT_DOUBLE_EQ(poisson_cdf(0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_cdf(0.0, 5), 1.0);
}

TEST(PoissonCdf, MatchesClosedFormSmallCases) {
  // P(N <= 0) = e^-m.
  EXPECT_NEAR(poisson_cdf(1.0, 0), std::exp(-1.0), 1e-12);
  // P(N <= 1) = e^-m (1 + m).
  EXPECT_NEAR(poisson_cdf(2.0, 1), std::exp(-2.0) * 3.0, 1e-12);
  // P(N <= 2) = e^-m (1 + m + m^2/2).
  EXPECT_NEAR(poisson_cdf(0.5, 2), std::exp(-0.5) * (1 + 0.5 + 0.125), 1e-12);
}

TEST(PoissonCdf, MonotoneInThreshold) {
  double prev = 0.0;
  for (std::uint64_t a = 0; a < 20; ++a) {
    const double c = poisson_cdf(5.0, a);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-6);
}

TEST(PoissonCdf, DecreasingInMean) {
  double prev = 1.0;
  for (double mean = 0.5; mean < 10.0; mean += 0.5) {
    const double c = poisson_cdf(mean, 3);
    EXPECT_LE(c, prev + 1e-12);
    prev = c;
  }
}

TEST(PoissonCdf, ConcurrentCallersAgree) {
  // Sweep workers evaluate the staleness factor on several threads at
  // once. The log-gamma terms must not share hidden state (std::lgamma
  // writes the global signgam), so two threads computing the same table
  // get the single-threaded values bit for bit; under ThreadSanitizer this
  // test fails on any such write.
  auto table = [] {
    std::vector<double> out;
    for (int m = 1; m <= 40; ++m) {
      for (std::uint64_t a = 0; a <= 60; a += 3) {
        out.push_back(poisson_cdf(0.5 * m, a));
      }
    }
    return out;
  };
  const std::vector<double> expected = table();
  std::vector<double> first, second;
  std::thread t1([&] { first = table(); });
  std::thread t2([&] { second = table(); });
  t1.join();
  t2.join();
  EXPECT_EQ(first, expected);
  EXPECT_EQ(second, expected);
}

TEST(PoissonCdf, StableForLargeMeans) {
  // Direct summation of (m^n / n!) e^-m overflows/underflows naively;
  // the log-space implementation must survive.
  const double c = poisson_cdf(2000.0, 1900);
  EXPECT_GE(c, 0.0);
  EXPECT_LE(c, 0.5);  // 1900 < mean, so below the median
  const double c2 = poisson_cdf(2000.0, 2100);
  EXPECT_GT(c2, 0.5);
  EXPECT_LE(c2, 1.0);
}

TEST(PoissonCdf, AgreesWithMonteCarlo) {
  sim::Rng rng(99);
  const double mean = 3.0;
  const std::uint64_t a = 2;
  int within = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    if (static_cast<std::uint64_t>(rng.poisson(mean)) <= a) ++within;
  }
  const double empirical = static_cast<double>(within) / trials;
  EXPECT_NEAR(poisson_cdf(mean, a), empirical, 0.01);
}

// --- ArrivalRateEstimator ---------------------------------------------------

TEST(ArrivalRateEstimator, NoDataIsZero) {
  ArrivalRateEstimator est(10);
  EXPECT_FALSE(est.has_data());
  EXPECT_DOUBLE_EQ(est.rate_per_second(), 0.0);
}

TEST(ArrivalRateEstimator, SumsOverWindow) {
  ArrivalRateEstimator est(10);
  est.record(5, seconds(1));
  est.record(15, seconds(3));
  // 20 updates over 4 seconds.
  EXPECT_NEAR(est.rate_per_second(), 5.0, 1e-9);
}

TEST(ArrivalRateEstimator, WindowEvictsOldSamples) {
  ArrivalRateEstimator est(2);
  est.record(100, seconds(1));  // will be evicted
  est.record(2, seconds(1));
  est.record(2, seconds(1));
  EXPECT_NEAR(est.rate_per_second(), 2.0, 1e-9);
}

TEST(ArrivalRateEstimator, ZeroElapsedGuard) {
  ArrivalRateEstimator est(4);
  est.record(3, seconds(0));
  EXPECT_DOUBLE_EQ(est.rate_per_second(), 0.0);
}

// --- LazyIntervalTracker -----------------------------------------------------

TEST(LazyIntervalTracker, NoDataYieldsZero) {
  LazyIntervalTracker tracker;
  EXPECT_FALSE(tracker.has_data());
  EXPECT_EQ(tracker.elapsed_since_lazy_update(sim::kEpoch + seconds(5)),
            sim::Duration::zero());
}

TEST(LazyIntervalTracker, TracksElapsedSincePublication) {
  LazyIntervalTracker tracker;
  const sim::TimePoint received = sim::kEpoch + seconds(10);
  tracker.record(/*t_l_at_publish=*/seconds(1), /*period=*/seconds(4), received);
  // 0.5s after the broadcast: t_l = 1 + 0.5 = 1.5s.
  EXPECT_EQ(tracker.elapsed_since_lazy_update(received + milliseconds(500)),
            milliseconds(1500));
}

TEST(LazyIntervalTracker, WrapsModuloPeriod) {
  LazyIntervalTracker tracker;
  const sim::TimePoint received = sim::kEpoch + seconds(10);
  tracker.record(seconds(3), seconds(4), received);
  // 2s later: (3 + 2) mod 4 = 1s — a lazy update happened in between.
  EXPECT_EQ(tracker.elapsed_since_lazy_update(received + seconds(2)), seconds(1));
}

TEST(LazyIntervalTracker, FreshBroadcastResets) {
  LazyIntervalTracker tracker;
  tracker.record(seconds(3), seconds(4), sim::kEpoch + seconds(10));
  tracker.record(seconds(0), seconds(4), sim::kEpoch + seconds(12));
  EXPECT_EQ(tracker.elapsed_since_lazy_update(sim::kEpoch + seconds(13)),
            seconds(1));
}

// --- staleness models --------------------------------------------------------

TEST(PoissonStalenessModel, FreshStateIsCertain) {
  const PoissonStalenessModel model(1.0);
  EXPECT_DOUBLE_EQ(model.staleness_factor(2, sim::Duration::zero()), 1.0);
}

TEST(PoissonStalenessModel, DecaysWithElapsedTime) {
  const PoissonStalenessModel model(1.0);
  double prev = 1.0;
  for (int s = 1; s <= 10; ++s) {
    const double f = model.staleness_factor(2, seconds(s));
    EXPECT_LT(f, prev);
    prev = f;
  }
}

TEST(PoissonStalenessModel, HigherThresholdHigherFactor) {
  const PoissonStalenessModel model(2.0);
  EXPECT_LT(model.staleness_factor(1, seconds(2)),
            model.staleness_factor(4, seconds(2)));
}

TEST(EmpiricalStalenessModel, NoGapsMeansNoStaleness) {
  const EmpiricalStalenessModel model({}, 1);
  EXPECT_DOUBLE_EQ(model.staleness_factor(2, seconds(10)), 1.0);
}

TEST(EmpiricalStalenessModel, AgreesWithPoissonOnExponentialGaps) {
  // Feed the empirical model exponential inter-arrival gaps; it should
  // approximate the Poisson model built from the same rate.
  sim::Rng rng(4242);
  const double rate = 1.5;  // per second
  std::vector<sim::Duration> gaps;
  for (int i = 0; i < 500; ++i) {
    gaps.push_back(sim::from_sec(rng.exponential(rate)));
  }
  const EmpiricalStalenessModel empirical(gaps, 7, 5000);
  const PoissonStalenessModel poisson(rate);
  for (const double t : {0.5, 1.0, 2.0, 4.0}) {
    EXPECT_NEAR(empirical.staleness_factor(2, sim::from_sec(t)),
                poisson.staleness_factor(2, sim::from_sec(t)), 0.05)
        << "t_l = " << t;
  }
}

class StalenessFactorSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(StalenessFactorSweep, FactorIsAProbability) {
  const auto [rate, elapsed_s] = GetParam();
  const PoissonStalenessModel model(rate);
  const double f = model.staleness_factor(3, seconds(elapsed_s));
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndTimes, StalenessFactorSweep,
    ::testing::Combine(::testing::Values(0.1, 0.5, 1.0, 5.0, 20.0),
                       ::testing::Values(0, 1, 2, 8, 60)));

}  // namespace
}  // namespace aqueduct::core
