// Server-side sequential-consistency protocol (paper Section 4).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "client/handler.hpp"
#include "harness/testbed.hpp"
#include "replication/objects.hpp"

namespace aqueduct::replication {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

/// Bare testbed: sequencer + primaries + secondaries + direct client
/// handlers (no workload driver), with fast deterministic service times.
struct Fixture {
  explicit Fixture(std::size_t primaries, std::size_t secondaries,
                   std::uint64_t seed = 1,
                   sim::Duration lazy_interval = seconds(2),
                   sim::Duration service = milliseconds(10))
      : bed(seed,
            std::make_unique<sim::NormalDuration>(
                milliseconds(1), std::chrono::microseconds(300)),
            runtime::Kind::kSim, /*chaos=*/true) {
    auto add_replica = [&](bool primary) {
      ReplicaConfig config;
      config.service_time = std::make_shared<sim::FixedDuration>(service);
      config.lazy_update_interval = lazy_interval;
      bed.add_replica(groups, primary, std::move(config),
                      [] { return std::make_unique<VersionedRegister>(); });
    };
    add_replica(true);  // sequencer (first primary-group joiner)
    for (std::size_t i = 0; i < primaries; ++i) add_replica(true);
    for (std::size_t i = 0; i < secondaries; ++i) add_replica(false);
    bed.start_replicas(milliseconds(10));
  }

  client::ClientHandler& add_client() { return bed.add_client(groups); }

  void settle(sim::Duration d = seconds(2)) { sim.run_for(d); }

  ReplicaServer& sequencer() { return bed.replica(0); }

  harness::Testbed bed;
  runtime::Executor& sim = bed.executor();
  net::FaultInjection& network = *bed.transport().fault_injection();
  ServiceGroups groups = ServiceGroups::for_service(1);
};

core::QoSSpec loose_qos(core::Staleness a = 100) {
  return {.staleness_threshold = a,
          .deadline = seconds(1),
          .min_probability = 0.5};
}

TEST(Roles, SequencerIsFirstPrimaryJoiner) {
  Fixture f(2, 2);
  f.settle();
  EXPECT_TRUE(f.sequencer().is_sequencer());
  EXPECT_FALSE(f.bed.replica(1).is_sequencer());
  EXPECT_TRUE(f.bed.replica(1).is_primary());
  EXPECT_FALSE(f.bed.replica(3).is_primary());
}

TEST(Roles, LazyPublisherIsLastPrimaryMember) {
  Fixture f(2, 2);
  f.settle();
  EXPECT_FALSE(f.sequencer().is_lazy_publisher());
  EXPECT_FALSE(f.bed.replica(1).is_lazy_publisher());
  EXPECT_TRUE(f.bed.replica(2).is_lazy_publisher());
}

TEST(Updates, CommittedByAllPrimariesInOrder) {
  Fixture f(3, 2);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    client.update(std::make_shared<RegisterBump>(),
                  [&](const client::UpdateOutcome&) { ++done; });
  }
  f.settle(seconds(5));
  EXPECT_EQ(done, 10);
  for (std::size_t i = 0; i <= 3; ++i) {
    EXPECT_EQ(f.bed.replica(i).csn(), 10u) << "primary " << i;
    EXPECT_EQ(f.bed.replica(i).gsn(), 10u);
    EXPECT_EQ(f.bed.replica(i).stats().gsn_conflicts, 0u);
  }
}

TEST(Updates, SequencerAssignsMonotoneGsns) {
  Fixture f(2, 1);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  for (int i = 0; i < 5; ++i) {
    client.update(std::make_shared<RegisterBump>(), {});
  }
  f.settle(seconds(3));
  EXPECT_EQ(f.sequencer().stats().gsn_assigned, 5u);
  EXPECT_EQ(f.sequencer().gsn(), 5u);
}

TEST(Updates, SecondariesDoNotCommitDirectly) {
  Fixture f(2, 2, 1, /*lazy_interval=*/std::chrono::hours(1));
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  for (int i = 0; i < 4; ++i) client.update(std::make_shared<RegisterBump>(), {});
  f.settle(seconds(3));
  // With lazy updates effectively disabled, secondaries stay at csn 0 even
  // though they saw the GSN broadcasts.
  EXPECT_EQ(f.bed.replica(3).csn(), 0u);
  EXPECT_EQ(f.bed.replica(3).stats().updates_committed, 0u);
  EXPECT_EQ(f.bed.replica(3).gsn(), 4u);
}

TEST(Reads, GsnBroadcastDoesNotAdvanceGsn) {
  Fixture f(2, 1);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  int replies = 0;
  for (int i = 0; i < 5; ++i) {
    client.read(std::make_shared<RegisterRead>(), loose_qos(),
                [&](const client::ReadOutcome&) { ++replies; });
  }
  f.settle(seconds(3));
  EXPECT_EQ(replies, 5);
  EXPECT_EQ(f.sequencer().gsn(), 0u);  // reads never advance the GSN
}

TEST(Reads, SequencerNeverServicesReads) {
  Fixture f(2, 2);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  for (int i = 0; i < 10; ++i) {
    client.read(std::make_shared<RegisterRead>(), loose_qos(), {});
  }
  f.settle(seconds(3));
  EXPECT_EQ(f.sequencer().stats().reads_served, 0u);
}

TEST(Reads, FreshSecondaryServesWithinThreshold) {
  Fixture f(1, 3, 1, /*lazy=*/milliseconds(500));
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  // One update, give the lazy publisher time to propagate.
  client.update(std::make_shared<RegisterBump>(), {});
  f.settle(seconds(2));
  int served_stale = 0;
  client.read(std::make_shared<RegisterRead>(),
              loose_qos(/*a=*/0),  // must be fully fresh
              [&](const client::ReadOutcome& o) {
                served_stale = static_cast<int>(o.staleness);
              });
  f.settle(seconds(2));
  std::uint64_t secondary_reads = 0;
  for (std::size_t i = 2; i < f.bed.num_replicas(); ++i) {
    secondary_reads += f.bed.replica(i).stats().reads_served;
  }
  EXPECT_GT(secondary_reads, 0u);
  EXPECT_EQ(served_stale, 0);
}

TEST(Reads, DeferredReadWaitsForLazyUpdate) {
  // Long lazy interval + strict threshold: a secondary must defer.
  Fixture f(0, 2, 1, /*lazy=*/seconds(2));
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  // Updates make the secondaries stale (only the sequencer is primary, so
  // reads can only be served by secondaries).
  for (int i = 0; i < 3; ++i) client.update(std::make_shared<RegisterBump>(), {});
  f.settle(milliseconds(300));
  bool deferred = false;
  core::Staleness staleness = 999;
  client.read(std::make_shared<RegisterRead>(), loose_qos(/*a=*/0),
              [&](const client::ReadOutcome& o) {
                deferred = o.deferred;
                staleness = o.staleness;
              });
  f.settle(seconds(5));
  EXPECT_TRUE(deferred);
  EXPECT_EQ(staleness, 0u);
  std::uint64_t deferred_count = f.bed.replica(1).stats().deferred_reads +
                                 f.bed.replica(2).stats().deferred_reads;
  EXPECT_GT(deferred_count, 0u);
}

TEST(Reads, ReplyStalenessNeverExceedsThreshold) {
  Fixture f(2, 3, 3, /*lazy=*/seconds(1));
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  std::vector<core::Staleness> observed;
  int pending = 0;
  for (int i = 0; i < 20; ++i) {
    ++pending;
    client.update(std::make_shared<RegisterBump>(), {});
    client.read(std::make_shared<RegisterRead>(),
                loose_qos(/*a=*/2),
                [&](const client::ReadOutcome& o) {
                  observed.push_back(o.staleness);
                  --pending;
                });
  }
  f.settle(seconds(20));
  EXPECT_EQ(pending, 0);
  for (const auto s : observed) EXPECT_LE(s, 2u);
}

TEST(LazyPropagation, SecondariesCatchUpPeriodically) {
  Fixture f(1, 2, 1, /*lazy=*/milliseconds(500));
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  for (int i = 0; i < 6; ++i) client.update(std::make_shared<RegisterBump>(), {});
  f.settle(seconds(3));
  for (std::size_t i = 2; i < f.bed.num_replicas(); ++i) {
    EXPECT_EQ(f.bed.replica(i).csn(), 6u) << "secondary " << i;
    EXPECT_GT(f.bed.replica(i).stats().lazy_updates_installed, 0u);
  }
}

TEST(LazyPropagation, IntervalTunableAtRuntime) {
  Fixture f(1, 1, 1, /*lazy=*/std::chrono::hours(1));
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  client.update(std::make_shared<RegisterBump>(), {});
  f.settle(seconds(2));
  EXPECT_EQ(f.bed.replica(2).csn(), 0u);  // nothing propagated yet
  // The lazy publisher is the last primary member (index 1).
  f.bed.replica(1).set_lazy_update_interval(milliseconds(200));
  f.settle(seconds(2));
  EXPECT_EQ(f.bed.replica(2).csn(), 1u);
}

TEST(Dedup, ClientRetryDoesNotDoubleCommit) {
  // Drop some messages so the client retries; every retry must be
  // deduplicated by RequestId.
  Fixture f(2, 1, 5);
  f.settle();
  f.network.set_loss_probability(0.25);
  auto& client = f.add_client();
  f.settle(seconds(2));
  int done = 0;
  for (int i = 0; i < 10; ++i) {
    client.update(std::make_shared<RegisterBump>(),
                  [&](const client::UpdateOutcome&) { ++done; });
  }
  f.settle(seconds(30));
  f.network.set_loss_probability(0.0);
  f.settle(seconds(10));
  EXPECT_EQ(done, 10);
  for (std::size_t i = 0; i <= 2; ++i) {
    EXPECT_EQ(f.bed.replica(i).csn(), 10u) << "primary " << i;
    EXPECT_EQ(f.bed.replica(i).stats().gsn_conflicts, 0u);
    // The register counts every applied update: double-commit would show.
    if (i > 0) {
      const auto& reg =
          dynamic_cast<const VersionedRegister&>(f.bed.replica(i).object());
      EXPECT_EQ(reg.value(), 10u);
    }
  }
}

TEST(PerfPublication, ClientsLearnServiceTimes) {
  Fixture f(2, 2);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  for (int i = 0; i < 10; ++i) {
    client.read(std::make_shared<RegisterRead>(), loose_qos(), {});
  }
  f.settle(seconds(5));
  // Histories exist for the replicas that served reads.
  std::size_t with_history = 0;
  for (std::size_t i = 1; i < f.bed.num_replicas(); ++i) {
    const auto* h = client.repository().find_history(f.bed.replica(i).id());
    if (h != nullptr && h->has_samples()) ++with_history;
  }
  EXPECT_GT(with_history, 0u);
}

TEST(PerfPublication, LazyInfoReachesStalenessEstimator) {
  Fixture f(1, 1, 1, /*lazy=*/milliseconds(500));
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  for (int i = 0; i < 4; ++i) client.update(std::make_shared<RegisterBump>(), {});
  f.settle(seconds(3));
  EXPECT_GT(client.repository().arrival_rate(), 0.0);
  EXPECT_EQ(client.repository().lazy_period(), milliseconds(500));
}

TEST(GroupInfo, ClientLearnsRoles) {
  Fixture f(2, 3);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  ASSERT_TRUE(client.ready());
  const auto& roles = client.repository().roles();
  EXPECT_EQ(roles.sequencer, f.sequencer().id());
  EXPECT_EQ(roles.primaries.size(), 2u);
  EXPECT_EQ(roles.secondaries.size(), 3u);
  EXPECT_EQ(roles.lazy_publisher, f.bed.replica(2).id());
}

// Sequential consistency property: with several concurrent clients, every
// primary applies exactly the same number of updates, and the replicated
// register (which counts applications) agrees everywhere.
class SequentialConsistencyProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SequentialConsistencyProperty, PrimariesAgree) {
  Fixture f(3, 2, GetParam());
  f.settle();
  std::vector<client::ClientHandler*> clients;
  for (int c = 0; c < 3; ++c) clients.push_back(&f.add_client());
  f.settle(seconds(1));
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    for (auto* c : clients) {
      c->update(std::make_shared<RegisterBump>(),
                [&](const client::UpdateOutcome&) { ++done; });
    }
  }
  f.settle(seconds(10));
  EXPECT_EQ(done, 24);
  for (std::size_t i = 0; i <= 3; ++i) {
    EXPECT_EQ(f.bed.replica(i).csn(), 24u) << "primary " << i;
    const auto& reg =
        dynamic_cast<const VersionedRegister&>(f.bed.replica(i).object());
    EXPECT_EQ(reg.value(), 24u) << "primary " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequentialConsistencyProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace aqueduct::replication
