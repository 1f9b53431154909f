// Coherence and effectiveness of the InfoRepository response-time memo:
// cached CDFs must be bit-identical to a fresh uncached ResponseTimeModel
// under any interleaving of publications, replies, and deadline changes,
// and unchanged replicas must not pay for convolutions.
#include "client/repository.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "core/pmf.hpp"
#include "core/response_model.hpp"
#include "sim/random.hpp"

namespace aqueduct::client {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

replication::PerfPublication sample(std::uint32_t replica, int ts_ms,
                                    int tq_ms = 0, int tb_ms = 0,
                                    bool deferred = false) {
  replication::PerfPublication p;
  p.replica = net::NodeId{replica};
  p.has_sample = true;
  p.ts = milliseconds(ts_ms);
  p.tq = milliseconds(tq_ms);
  p.tb = milliseconds(tb_ms);
  p.deferred = deferred;
  return p;
}

/// Role map with primaries {2..1+np} and secondaries {2+np..1+np+ns};
/// node 1 is the sequencer.
replication::GroupInfo roles(std::size_t np, std::size_t ns) {
  replication::GroupInfo info;
  info.epoch = 1;
  info.sequencer = net::NodeId{1};
  for (std::uint32_t i = 0; i < np; ++i) {
    info.primaries.push_back(net::NodeId{2 + i});
  }
  for (std::uint32_t i = 0; i < ns; ++i) {
    info.secondaries.push_back(net::NodeId{2 + static_cast<std::uint32_t>(np) + i});
  }
  info.lazy_publisher = info.primaries.front();
  return info;
}

core::QoSSpec qos(int deadline_ms) {
  return {.staleness_threshold = 2,
          .deadline = milliseconds(deadline_ms),
          .min_probability = 0.9};
}

TEST(RepositoryCache, SteadyStateQueriesAreAllHits) {
  InfoRepository repo(10, milliseconds(1));
  repo.record_group_info(roles(2, 2));
  for (std::uint32_t id = 2; id <= 5; ++id) {
    for (int i = 0; i < 10; ++i) {
      repo.record_publication(sample(id, 40 + i, 5), sim::kEpoch);
    }
    repo.record_reply(net::NodeId{id}, milliseconds(1), sim::kEpoch);
  }
  const sim::TimePoint now = sim::kEpoch + seconds(1);
  (void)repo.candidates(qos(100), now);  // warm the memo
  repo.reset_cache_stats();
  core::Pmf::reset_convolution_counter();
  const auto first = repo.candidates(qos(100), now);
  const auto second = repo.candidates(qos(100), now + seconds(1));
  EXPECT_EQ(repo.cache_stats().hits, 8u);  // 4 replicas x 2 queries
  EXPECT_EQ(repo.cache_stats().rebuilds, 0u);
  EXPECT_EQ(core::Pmf::convolutions_performed(), 0u);
  // Only ert (a function of `now`) may differ between the queries.
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].immediate_cdf, second[i].immediate_cdf);
    EXPECT_EQ(first[i].deferred_cdf, second[i].deferred_cdf);
  }
}

TEST(RepositoryCache, PublicationInvalidatesOnlyThatReplica) {
  InfoRepository repo(10, milliseconds(1));
  repo.record_group_info(roles(2, 2));
  for (std::uint32_t id = 2; id <= 5; ++id) {
    repo.record_publication(sample(id, 50, 5), sim::kEpoch);
  }
  (void)repo.candidates(qos(100), sim::kEpoch);
  repo.reset_cache_stats();
  core::Pmf::reset_convolution_counter();
  repo.record_publication(sample(3, 60, 5), sim::kEpoch + seconds(1));
  (void)repo.candidates(qos(100), sim::kEpoch + seconds(1));
  // The push was folded into replica 3's integer state in place, so its
  // next query rematerializes the pmfs without any convolution — and the
  // other three replicas are pure hits.
  EXPECT_EQ(repo.cache_stats().incremental_updates, 1u);
  EXPECT_EQ(repo.cache_stats().incremental_refreshes, 1u);  // replica 3 only
  EXPECT_EQ(repo.cache_stats().rebuilds, 0u);
  EXPECT_EQ(repo.cache_stats().hits, 3u);
  EXPECT_EQ(core::Pmf::convolutions_performed(), 0u);
}

TEST(RepositoryCache, GatewayUpdateInvalidates) {
  InfoRepository repo(10, milliseconds(1));
  repo.record_group_info(roles(1, 1));
  repo.record_publication(sample(2, 50), sim::kEpoch);
  repo.record_publication(sample(3, 50), sim::kEpoch);
  (void)repo.candidates(qos(100), sim::kEpoch);
  repo.reset_cache_stats();
  core::Pmf::reset_convolution_counter();
  repo.record_reply(net::NodeId{2}, milliseconds(3), sim::kEpoch + seconds(1));
  const auto candidates = repo.candidates(qos(52), sim::kEpoch + seconds(1));
  // A gateway change only shifts replica 2's materialized grid (the
  // integer state is untouched): no rebuild, no convolution. Replica 3
  // merely sees the new deadline.
  EXPECT_EQ(repo.cache_stats().incremental_refreshes, 1u);
  EXPECT_EQ(repo.cache_stats().rebuilds, 0u);
  EXPECT_EQ(repo.cache_stats().cdf_refreshes, 1u);
  EXPECT_EQ(core::Pmf::convolutions_performed(), 0u);
  // 50ms service + 3ms gateway > 52ms: the new gateway delay is visible.
  const auto it = std::find_if(candidates.begin(), candidates.end(),
                               [](const auto& c) { return c.id == net::NodeId{2}; });
  ASSERT_NE(it, candidates.end());
  EXPECT_DOUBLE_EQ(it->immediate_cdf, 0.0);
}

TEST(RepositoryCache, DeadlineChangeRefreshesCdfsWithoutConvolving) {
  InfoRepository repo(10, milliseconds(1));
  repo.record_group_info(roles(2, 2));
  for (std::uint32_t id = 2; id <= 5; ++id) {
    for (int i = 0; i < 10; ++i) {
      repo.record_publication(sample(id, 40 + 2 * i, 5), sim::kEpoch);
    }
  }
  (void)repo.candidates(qos(100), sim::kEpoch);
  repo.reset_cache_stats();
  core::Pmf::reset_convolution_counter();
  const auto tighter = repo.candidates(qos(50), sim::kEpoch);
  EXPECT_EQ(repo.cache_stats().cdf_refreshes, 4u);
  EXPECT_EQ(repo.cache_stats().rebuilds, 0u);
  EXPECT_EQ(core::Pmf::convolutions_performed(), 0u);
  // The refreshed CDFs match a fresh model exactly.
  const core::ResponseTimeModel model(milliseconds(1));
  for (const auto& c : tighter) {
    const core::PerfHistory* h = repo.find_history(c.id);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(c.immediate_cdf, model.immediate_cdf(*h, milliseconds(50)));
  }
}

TEST(RepositoryCache, DisabledCacheBypassesMemo) {
  InfoRepository repo(10, milliseconds(1));
  repo.set_cache_enabled(false);
  repo.record_group_info(roles(1, 1));
  repo.record_publication(sample(2, 50, 5), sim::kEpoch);
  repo.record_publication(sample(3, 50, 5), sim::kEpoch);
  core::Pmf::reset_convolution_counter();
  (void)repo.candidates(qos(100), sim::kEpoch);
  const auto after_first = core::Pmf::convolutions_performed();
  (void)repo.candidates(qos(100), sim::kEpoch);
  EXPECT_EQ(core::Pmf::convolutions_performed(), 2 * after_first)
      << "disabled cache must redo the convolutions every query";
  EXPECT_EQ(repo.cache_stats().lookups(), 0u);
}

// --- property: cached CDFs bit-identical to a fresh uncached model ---------

class CacheCoherenceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheCoherenceProperty, MatchesFreshModelUnderRandomWorkload) {
  sim::Rng rng(GetParam());
  const std::size_t window = 4 + rng.uniform_int(8);
  const std::size_t np = 1 + rng.uniform_int(3);
  const std::size_t ns = 1 + rng.uniform_int(4);
  const std::uint32_t pool = static_cast<std::uint32_t>(np + ns);

  // Two repositories fed the identical event sequence: the subject (memo
  // on) and a control with the memo disabled.
  InfoRepository repo(window, milliseconds(1));
  InfoRepository control(window, milliseconds(1));
  control.set_cache_enabled(false);
  repo.record_group_info(roles(np, ns));
  control.record_group_info(roles(np, ns));

  const core::ResponseTimeModel fresh(milliseconds(1));
  sim::TimePoint now = sim::kEpoch;
  const int deadlines[] = {60, 100, 140, 200};

  for (int step = 0; step < 300; ++step) {
    now += milliseconds(1 + static_cast<int>(rng.uniform_int(50)));
    const std::uint32_t id = 2 + static_cast<std::uint32_t>(rng.uniform_int(pool));
    const double dice = rng.uniform();
    if (dice < 0.35) {
      const bool deferred = rng.bernoulli(0.4);
      const auto p = sample(id, 30 + static_cast<int>(rng.uniform_int(100)),
                            static_cast<int>(rng.uniform_int(20)),
                            deferred ? 300 + static_cast<int>(rng.uniform_int(700)) : 0,
                            deferred);
      repo.record_publication(p, now);
      control.record_publication(p, now);
    } else if (dice < 0.5) {
      const auto tg = milliseconds(1 + static_cast<int>(rng.uniform_int(10)));
      repo.record_reply(net::NodeId{id}, tg, now);
      control.record_reply(net::NodeId{id}, tg, now);
    } else if (dice < 0.6) {
      replication::PerfPublication p;
      p.replica = net::NodeId{2};
      p.lazy = replication::LazyInfo{
          .n_u = static_cast<std::uint32_t>(1 + rng.uniform_int(5)),
          .t_u = seconds(1 + static_cast<int>(rng.uniform_int(3))),
          .n_l = 1,
          .t_l = seconds(1),
          .period = seconds(2 + static_cast<int>(rng.uniform_int(4)))};
      repo.record_publication(p, now);
      control.record_publication(p, now);
    } else {
      const auto spec = qos(deadlines[rng.uniform_int(4)]);
      const auto cached = repo.candidates(spec, now);
      const auto uncached = control.candidates(spec, now);

      // Cached vs memo-disabled control: byte-identical rows.
      ASSERT_EQ(cached.size(), uncached.size());
      for (std::size_t i = 0; i < cached.size(); ++i) {
        EXPECT_EQ(cached[i].id, uncached[i].id);
        EXPECT_EQ(cached[i].immediate_cdf, uncached[i].immediate_cdf);
        EXPECT_EQ(cached[i].deferred_cdf, uncached[i].deferred_cdf);
        EXPECT_EQ(cached[i].ert, uncached[i].ert);
      }

      // Cached vs a from-scratch ResponseTimeModel over the live windows,
      // replicating candidates()' deferred-fallback rule.
      std::optional<sim::Duration> fallback_u;
      if (repo.lazy_period() > sim::Duration::zero()) {
        fallback_u = repo.lazy_period() / 2;
      }
      for (const auto& c : cached) {
        const core::PerfHistory* h = repo.find_history(c.id);
        if (h == nullptr) {
          EXPECT_EQ(c.immediate_cdf, 0.0);
          continue;
        }
        EXPECT_EQ(c.immediate_cdf, fresh.immediate_cdf(*h, spec.deadline));
        if (!c.is_primary) {
          EXPECT_EQ(c.deferred_cdf,
                    fresh.deferred_cdf(*h, spec.deadline, fallback_u));
        }
      }
    }
  }
  // The workload must actually have exercised the memo.
  EXPECT_GT(repo.cache_stats().lookups(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheCoherenceProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- property: publications queued between reads fold on demand ------------

/// Bursts of 0..3x window publications per replica between reads: short
/// queues fold in place, long ones rebuild (by the cost rule, or because
/// the queue reached a window's length) — and every CDF stays bitwise equal
/// to the memo-disabled control.
TEST(RepositoryCache, QueuedPublicationsFoldOrRebuildBitIdentically) {
  RepositoryCacheStats totals;
  for (const std::size_t window : {std::size_t{10}, std::size_t{20}}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(testing::Message() << "window " << window << " seed " << seed);
      sim::Rng rng(seed);
      InfoRepository repo(window, milliseconds(1));
      InfoRepository control(window, milliseconds(1));
      control.set_cache_enabled(false);
      const std::size_t np = 2, ns = 3;
      repo.record_group_info(roles(np, ns));
      control.record_group_info(roles(np, ns));
      replication::PerfPublication lazy;
      lazy.replica = net::NodeId{2};
      lazy.lazy = replication::LazyInfo{
          .n_u = 3, .t_u = seconds(1), .n_l = 1, .t_l = seconds(1),
          .period = seconds(4)};
      repo.record_publication(lazy, sim::kEpoch);
      control.record_publication(lazy, sim::kEpoch);

      sim::TimePoint now = sim::kEpoch;
      for (int read = 0; read < 12; ++read) {
        for (std::uint32_t id = 2; id < 2 + np + ns; ++id) {
          const std::size_t burst = rng.uniform_int(3 * window + 1);
          for (std::size_t k = 0; k < burst; ++k) {
            const bool deferred = rng.bernoulli(0.5);
            const auto p = sample(
                id, 30 + static_cast<int>(rng.uniform_int(200)),
                static_cast<int>(rng.uniform_int(400)),
                deferred ? 100 + static_cast<int>(rng.uniform_int(900)) : 0,
                deferred);
            repo.record_publication(p, now);
            control.record_publication(p, now);
          }
          if (rng.bernoulli(0.3)) {
            const auto tg = milliseconds(1 + static_cast<int>(rng.uniform_int(10)));
            repo.record_reply(net::NodeId{id}, tg, now);
            control.record_reply(net::NodeId{id}, tg, now);
          }
        }
        now += seconds(1);
        const auto spec = qos(100 + 50 * static_cast<int>(rng.uniform_int(8)));
        const auto cached = repo.candidates(spec, now);
        const auto uncached = control.candidates(spec, now);
        ASSERT_EQ(cached.size(), uncached.size());
        for (std::size_t i = 0; i < cached.size(); ++i) {
          EXPECT_EQ(cached[i].immediate_cdf, uncached[i].immediate_cdf);
          EXPECT_EQ(cached[i].deferred_cdf, uncached[i].deferred_cdf);
        }
      }
      totals.queue_folds += repo.cache_stats().queue_folds;
      totals.queue_rebuilds += repo.cache_stats().queue_rebuilds;
      totals.rebuilds += repo.cache_stats().rebuilds;
    }
  }
  // Both branches of the cost rule fired, and so did the window cap (a
  // rebuild with no queue left to weigh).
  EXPECT_GT(totals.queue_folds, 0u);
  EXPECT_GT(totals.queue_rebuilds, 0u);
  EXPECT_GT(totals.rebuilds, totals.queue_rebuilds);
}

}  // namespace
}  // namespace aqueduct::client
