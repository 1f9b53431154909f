#include "core/response_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "sim/random.hpp"

namespace aqueduct::core {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

PerfHistory filled_history(std::size_t window = 20) {
  PerfHistory h(window);
  // Service ~ {90, 100, 110} ms, queueing ~ {0, 10} ms, gateway 2 ms.
  for (std::size_t i = 0; i < window; ++i) {
    h.service.push(milliseconds(90 + 10 * (i % 3)));
    h.queueing.push(milliseconds(10 * (i % 2)));
    h.lazy_wait.push(milliseconds(500 + 100 * (i % 4)));
  }
  h.set_gateway_delay(milliseconds(2));
  h.last_reply_at = sim::kEpoch + std::chrono::seconds(1);
  return h;
}

TEST(ResponseTimeModel, EmptyHistoryGivesZeroCdf) {
  const ResponseTimeModel model;
  const PerfHistory h(10);
  EXPECT_DOUBLE_EQ(model.immediate_cdf(h, milliseconds(1000)), 0.0);
  EXPECT_DOUBLE_EQ(model.deferred_cdf(h, milliseconds(1000)), 0.0);
  EXPECT_TRUE(model.immediate_pmf(h).empty());
}

TEST(ResponseTimeModel, ImmediatePmfConvolvesServiceQueueGateway) {
  const ResponseTimeModel model;
  const PerfHistory h = filled_history();
  const Pmf pmf = model.immediate_pmf(h);
  ASSERT_FALSE(pmf.empty());
  // Min possible: 90 + 0 + 2 = 92 ms; max: 110 + 10 + 2 = 122 ms.
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(91)), 0.0);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(122)), 1.0);
  EXPECT_NEAR(sim::to_ms(pmf.mean()), 100.0 + 5.0 + 2.0, 1.5);
}

TEST(ResponseTimeModel, ImmediateCdfMonotoneInDeadline) {
  const ResponseTimeModel model;
  const PerfHistory h = filled_history();
  double prev = -1.0;
  for (int d = 80; d <= 130; d += 5) {
    const double c = model.immediate_cdf(h, milliseconds(d));
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(ResponseTimeModel, DeferredAddsLazyWait) {
  const ResponseTimeModel model;
  const PerfHistory h = filled_history();
  // Deferred responses include U >= 500 ms, so nothing lands before ~592 ms.
  EXPECT_DOUBLE_EQ(model.deferred_cdf(h, milliseconds(200)), 0.0);
  EXPECT_DOUBLE_EQ(model.deferred_cdf(h, milliseconds(2000)), 1.0);
  EXPECT_LE(model.deferred_cdf(h, milliseconds(700)),
            model.immediate_cdf(h, milliseconds(700)));
}

TEST(ResponseTimeModel, GatewayDelayUsesLatestValueOnly) {
  const ResponseTimeModel model;
  PerfHistory h = filled_history();
  const double before = model.immediate_cdf(h, milliseconds(105));
  h.set_gateway_delay(milliseconds(50));  // gateway got slower
  const double after = model.immediate_cdf(h, milliseconds(105));
  EXPECT_LT(after, before);
}

TEST(ResponseTimeModel, NoGatewaySampleStillWorks) {
  const ResponseTimeModel model;
  PerfHistory h(10);
  h.service.push(milliseconds(100));
  // No queueing or gateway data yet: pmf is just the service pmf.
  const Pmf pmf = model.immediate_pmf(h);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(100)), 1.0);
  EXPECT_DOUBLE_EQ(pmf.cdf(milliseconds(99)), 0.0);
}

TEST(ResponseTimeModel, DeferredFallbackUsedWithoutLazySamples) {
  const ResponseTimeModel model;
  PerfHistory h(10);
  h.service.push(milliseconds(100));
  EXPECT_DOUBLE_EQ(model.deferred_cdf(h, milliseconds(5000)), 0.0)
      << "no U samples and no fallback -> empty";
  const double with_fallback =
      model.deferred_cdf(h, milliseconds(5000), milliseconds(2000));
  EXPECT_DOUBLE_EQ(with_fallback, 1.0);
  EXPECT_DOUBLE_EQ(model.deferred_cdf(h, milliseconds(2000), milliseconds(2000)),
                   0.0)
      << "100ms service + 2000ms fallback exceeds the 2000ms deadline";
}

TEST(ResponseTimeModel, ResolutionControlsBucketing) {
  PerfHistory h(4);
  h.service.push(std::chrono::microseconds(100100));
  h.service.push(std::chrono::microseconds(100900));
  const ResponseTimeModel coarse(milliseconds(1));
  const ResponseTimeModel fine(std::chrono::microseconds(100));
  EXPECT_EQ(coarse.immediate_pmf(h).support_size(), 1u);
  EXPECT_EQ(fine.immediate_pmf(h).support_size(), 2u);
}

TEST(PerfHistoryTest, HasSamplesTracksServiceWindow) {
  PerfHistory h(5);
  EXPECT_FALSE(h.has_samples());
  h.service.push(milliseconds(10));
  EXPECT_TRUE(h.has_samples());
}

TEST(PerfHistoryTest, VersionCoversEveryDistributionInput) {
  // Equal versions must imply identical Eq. 5/6 distributions, so every
  // mutation that can change them bumps version(); last_reply_at (which
  // only feeds the ert sort) does not.
  PerfHistory h(5);
  const auto v0 = h.version();
  h.service.push(milliseconds(10));
  EXPECT_GT(h.version(), v0);
  const auto v1 = h.version();
  h.queueing.push(milliseconds(1));
  EXPECT_GT(h.version(), v1);
  const auto v2 = h.version();
  h.lazy_wait.push(milliseconds(500));
  EXPECT_GT(h.version(), v2);
  const auto v3 = h.version();
  h.set_gateway_delay(milliseconds(2));
  EXPECT_GT(h.version(), v3);
  const auto v4 = h.version();
  // Same value again still counts as a mutation event.
  h.set_gateway_delay(milliseconds(2));
  EXPECT_GT(h.version(), v4);
  const auto v5 = h.version();
  h.last_reply_at = sim::kEpoch + milliseconds(7);
  EXPECT_EQ(h.version(), v5);
}

// --- property: CDFs read off the counts equal the materialized pmfs' ------

/// A duration in [lo, lo + span) at nanosecond precision, so samples,
/// gateway delays and deadlines fall off every resolution's grid.
sim::Duration off_grid(sim::Rng& rng, sim::Duration lo, sim::Duration span) {
  return lo + sim::Duration(static_cast<std::int64_t>(
                  rng.uniform_int(static_cast<std::uint64_t>(span.count()))));
}

/// Deadlines below, inside and above the pmfs' supports: a stride of
/// bucket values one nanosecond either side, both tails, and a negative
/// deadline.
std::vector<sim::Duration> probe_deadlines(const std::vector<Pmf>& pmfs) {
  std::vector<sim::Duration> out = {sim::Duration(-1), sim::Duration::zero(),
                                    milliseconds(50), milliseconds(700)};
  for (const Pmf& pmf : pmfs) {
    if (pmf.empty()) continue;
    const auto entries = pmf.entries();
    const std::size_t stride = std::max<std::size_t>(1, entries.size() / 25);
    for (std::size_t i = 0; i < entries.size(); i += stride) {
      for (const auto dt : {-1, 0, 1}) {
        out.push_back(entries[i].first + sim::Duration(dt));
      }
    }
    out.push_back(pmf.min_value() - milliseconds(1));
    out.push_back(entries.back().first);
    out.push_back(entries.back().first + seconds(1));
  }
  return out;
}

/// EXPECT_EQ on doubles: ResponseState's CDFs must be bitwise equal to
/// cdf(d) of the pmfs the same state materializes.
void expect_cdfs_match_pmfs(const ResponseState& state,
                            const std::optional<sim::Duration>& gateway,
                            const std::optional<sim::Duration>& fallback) {
  const Pmf immediate = state.immediate(gateway);
  const Pmf deferred = state.deferred(gateway, fallback);
  for (const sim::Duration d : probe_deadlines({immediate, deferred})) {
    EXPECT_EQ(state.immediate_cdf(gateway, d), immediate.cdf(d))
        << "deadline " << d.count();
    EXPECT_EQ(state.deferred_cdf(gateway, fallback, d), deferred.cdf(d))
        << "deadline " << d.count();
  }
}

struct CdfCase {
  const char* name;
  bool queueing = true;  // false: the S-only branch
  bool lazy = true;      // false: an empty lazy window
};

class ResponseStateCdfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResponseStateCdfProperty, CountSumsEqualPmfCdfsBitwise) {
  sim::Rng rng(GetParam());
  for (const sim::Duration resolution :
       {sim::Duration(std::chrono::microseconds(100)),
        sim::Duration(milliseconds(1)), sim::Duration(milliseconds(3))}) {
    for (const CdfCase c : {CdfCase{"full"}, CdfCase{"no-lazy", true, false},
                            CdfCase{"service-only", false, true},
                            CdfCase{"service-only-no-lazy", false, false}}) {
      SCOPED_TRACE(testing::Message()
                   << c.name << " resolution " << resolution.count());
      const std::size_t window = 4 + rng.uniform_int(17);
      PerfHistory h(window);
      // Fill part of the windows, build, then fold further publications in
      // (past the window, so evictions fire) while a twin is rebuilt.
      const std::size_t initial = 1 + rng.uniform_int(window);
      for (std::size_t i = 0; i < initial; ++i) {
        h.service.push(off_grid(rng, milliseconds(20), milliseconds(130)));
        if (c.queueing) {
          h.queueing.push(off_grid(rng, sim::Duration::zero(), milliseconds(30)));
        }
        if (c.lazy) {
          h.lazy_wait.push(off_grid(rng, milliseconds(100), milliseconds(500)));
        }
      }
      ResponseState folded;
      folded.rebuild(h, resolution);
      // A fold pushes both windows, so the S-only branch stays rebuilt-only.
      const std::size_t folds = c.queueing ? rng.uniform_int(2 * window + 1) : 0;
      for (std::size_t i = 0; i < folds; ++i) {
        ResponseState::Delta delta;
        delta.ts = off_grid(rng, milliseconds(20), milliseconds(130));
        delta.evicted_ts = h.service.push(delta.ts);
        delta.tq = off_grid(rng, sim::Duration::zero(), milliseconds(30));
        delta.evicted_tq = h.queueing.push(delta.tq);
        if (c.lazy && rng.bernoulli(0.5)) {
          delta.tb = off_grid(rng, milliseconds(100), milliseconds(500));
          delta.evicted_tb = h.lazy_wait.push(*delta.tb);
        }
        folded.apply_publication(delta);
      }
      ResponseState rebuilt;
      rebuilt.rebuild(h, resolution);

      const std::optional<sim::Duration> gateway =
          rng.bernoulli(0.8)
              ? std::optional(off_grid(rng, sim::Duration(1), milliseconds(7)))
              : std::nullopt;
      // No fallback, one inside the deferred support, and one larger than
      // every probed deadline below a second.
      for (const std::optional<sim::Duration> fallback :
           {std::optional<sim::Duration>{},
            std::optional(off_grid(rng, milliseconds(50), milliseconds(400))),
            std::optional(off_grid(rng, seconds(1), seconds(2)))}) {
        expect_cdfs_match_pmfs(rebuilt, gateway, fallback);
        expect_cdfs_match_pmfs(folded, gateway, fallback);
        // Folding is exact, so both routes read identical counts.
        for (const sim::Duration d :
             probe_deadlines({rebuilt.immediate(gateway),
                              rebuilt.deferred(gateway, fallback)})) {
          EXPECT_EQ(folded.immediate_cdf(gateway, d),
                    rebuilt.immediate_cdf(gateway, d));
          EXPECT_EQ(folded.deferred_cdf(gateway, fallback, d),
                    rebuilt.deferred_cdf(gateway, fallback, d));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseStateCdfProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(ResponseStateCdf, FoldFromServiceOnlyBuildMatchesPmf) {
  // Built before any queueing sample, then folded: apply_publication's
  // refresh-C-wholesale branch.
  PerfHistory h(4);
  h.service.push(std::chrono::microseconds(40'300));
  h.lazy_wait.push(std::chrono::microseconds(200'700));
  ResponseState state;
  state.rebuild(h, milliseconds(1));
  ResponseState::Delta delta;
  delta.ts = std::chrono::microseconds(55'900);
  delta.evicted_ts = h.service.push(delta.ts);
  delta.tq = std::chrono::microseconds(3'100);
  delta.evicted_tq = h.queueing.push(delta.tq);
  state.apply_publication(delta);
  const std::optional<sim::Duration> gateway = std::chrono::microseconds(1'500);
  expect_cdfs_match_pmfs(state, gateway, std::nullopt);
  const ResponseTimeModel model(milliseconds(1));
  h.set_gateway_delay(*gateway);
  for (const auto d : {milliseconds(45), milliseconds(60), milliseconds(250),
                       milliseconds(262)}) {
    EXPECT_EQ(state.immediate_cdf(gateway, d), model.immediate_cdf(h, d));
    EXPECT_EQ(state.deferred_cdf(gateway, std::nullopt, d),
              model.deferred_cdf(h, d));
  }
}

TEST(ResponseStateCdf, DeadlineBelowFallbackFloorsToNoBucket) {
  // A service sample in bucket 0: d - fallback - G in (-r, 0) must select
  // no bucket (floor division), not bucket 0 (truncation toward zero).
  PerfHistory h(2);
  h.service.push(std::chrono::microseconds(500));
  ResponseState state;
  state.rebuild(h, milliseconds(1));
  const std::optional<sim::Duration> gateway = std::chrono::microseconds(200);
  const std::optional<sim::Duration> fallback = milliseconds(10);
  const Pmf deferred = state.deferred(gateway, fallback);
  for (const auto d : {std::chrono::microseconds(9'900),
                       std::chrono::microseconds(10'500)}) {
    EXPECT_EQ(state.deferred_cdf(gateway, fallback, d), deferred.cdf(d));
  }
  EXPECT_EQ(state.deferred_cdf(gateway, fallback, std::chrono::microseconds(9'900)),
            0.0);
}

TEST(ResponseStateCdf, UnbuiltStateIsZero) {
  const ResponseState state;
  EXPECT_EQ(state.immediate_cdf(milliseconds(1), seconds(10)), 0.0);
  EXPECT_EQ(state.deferred_cdf(milliseconds(1), milliseconds(5), seconds(10)),
            0.0);
}

// Statistical property: the model's CDF at d approximates the true
// probability P(S + W + G <= d) when the windows hold samples from the
// true distributions.
class ResponseModelAccuracy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResponseModelAccuracy, TracksTrueDistribution) {
  sim::Rng rng(GetParam());
  PerfHistory h(20);
  for (int i = 0; i < 20; ++i) {
    h.service.push(rng.normal_duration(milliseconds(100), milliseconds(50)));
    h.queueing.push(rng.exponential_duration(milliseconds(5)));
  }
  h.set_gateway_delay(milliseconds(1));
  const ResponseTimeModel model;
  const double predicted = model.immediate_cdf(h, milliseconds(140));

  // Monte-Carlo truth with fresh draws from the same distributions.
  int within = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const auto r = rng.normal_duration(milliseconds(100), milliseconds(50)) +
                   rng.exponential_duration(milliseconds(5)) + milliseconds(1);
    if (r <= milliseconds(140)) ++within;
  }
  const double truth = static_cast<double>(within) / trials;
  // A 20-sample window is noisy; allow a generous band.
  EXPECT_NEAR(predicted, truth, 0.25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResponseModelAccuracy,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace aqueduct::core
