// Client-side gateway handler: timing-failure detection, QoS alarm,
// retries, abandonment, measurement bookkeeping (paper Section 5.4).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "client/handler.hpp"
#include "harness/testbed.hpp"
#include "replication/objects.hpp"

namespace aqueduct::client {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

struct Fixture {
  explicit Fixture(std::uint64_t seed = 1,
                   sim::Duration service = milliseconds(50))
      : bed(seed, std::make_unique<sim::NormalDuration>(
                      milliseconds(1), std::chrono::microseconds(200))) {
    auto add_replica = [&](bool primary) {
      replication::ReplicaConfig config;
      config.service_time = std::make_shared<sim::FixedDuration>(service);
      config.lazy_update_interval = seconds(1);
      bed.add_replica(groups, primary, std::move(config), [] {
        return std::make_unique<replication::VersionedRegister>();
      });
    };
    add_replica(true);   // sequencer
    add_replica(true);   // primary
    add_replica(true);   // primary
    add_replica(false);  // secondary
    add_replica(false);  // secondary
    bed.start_replicas(milliseconds(10));
  }

  ClientHandler& add_client(ClientConfig config = {}) {
    return bed.add_client(groups, std::move(config));
  }

  void settle(sim::Duration d = seconds(2)) { sim.run_for(d); }

  harness::Testbed bed;
  runtime::Executor& sim = bed.executor();
  replication::ServiceGroups groups = replication::ServiceGroups::for_service(1);
};

core::QoSSpec qos(int deadline_ms, double pc = 0.5, core::Staleness a = 10) {
  return {.staleness_threshold = a,
          .deadline = milliseconds(deadline_ms),
          .min_probability = pc};
}

TEST(ClientHandler, RequestsQueueUntilRolesArrive) {
  Fixture f;
  auto& client = f.add_client();
  EXPECT_FALSE(client.ready());
  int replies = 0;
  client.read(std::make_shared<replication::RegisterRead>(), qos(500),
              [&](const ReadOutcome&) { ++replies; });
  f.settle(seconds(3));
  EXPECT_TRUE(client.ready());
  EXPECT_EQ(replies, 1);
}

TEST(ClientHandler, UpdateCommittedByTheSoleSequencerIsAnswered) {
  // Issued before the role map arrives, the update goes out with the first
  // GroupInfo, which lists the sequencer alone: it commits there, and the
  // other primaries join later and learn it from a StateSnapshot. Only the
  // sequencer's cached reply can answer the client's retry.
  Fixture f;
  auto& client = f.add_client();
  int called = 0;
  UpdateOutcome outcome;
  client.update(std::make_shared<replication::RegisterBump>(),
                [&](const UpdateOutcome& o) {
                  outcome = o;
                  ++called;
                });
  f.settle(seconds(30));
  EXPECT_EQ(called, 1);
  EXPECT_NE(outcome.result, nullptr);
  EXPECT_EQ(client.stats().updates_completed, 1u);
}

TEST(ClientHandler, ReadDeliversFirstReplyResult) {
  Fixture f;
  auto& client = f.add_client();
  f.settle();
  client.update(std::make_shared<replication::RegisterBump>(), {});
  f.settle(seconds(1));
  std::uint64_t value = 0;
  client.read(std::make_shared<replication::RegisterRead>(), qos(500),
              [&](const ReadOutcome& o) {
                auto v = net::message_cast<replication::RegisterValue>(o.result);
                ASSERT_NE(v, nullptr);
                value = v->value;
              });
  f.settle(seconds(1));
  EXPECT_EQ(value, 1u);
}

TEST(ClientHandler, TimingFailureWhenDeadlineTooTight) {
  // Service takes 50ms; a 10ms deadline cannot be met.
  Fixture f;
  auto& client = f.add_client();
  f.settle();
  ReadOutcome outcome;
  client.read(std::make_shared<replication::RegisterRead>(), qos(10),
              [&](const ReadOutcome& o) { outcome = o; });
  f.settle(seconds(2));
  EXPECT_TRUE(outcome.timing_failure);
  EXPECT_GT(outcome.response_time, milliseconds(10));
  EXPECT_EQ(client.stats().timing_failures, 1u);
}

TEST(ClientHandler, NoTimingFailureWithGenerousDeadline) {
  Fixture f;
  auto& client = f.add_client();
  f.settle();
  ReadOutcome outcome;
  outcome.timing_failure = true;
  client.read(std::make_shared<replication::RegisterRead>(), qos(1000),
              [&](const ReadOutcome& o) { outcome = o; });
  f.settle(seconds(2));
  EXPECT_FALSE(outcome.timing_failure);
  EXPECT_EQ(client.stats().timing_failures, 0u);
}

TEST(ClientHandler, QoSAlarmFiresWhenObservedRateTooLow) {
  Fixture f;
  auto& client = f.add_client();
  f.settle();
  double reported = -1.0;
  client.set_qos_alarm([&](double failure_rate) { reported = failure_rate; });
  // Pc = 0.9 but an impossible 10ms deadline: every read fails.
  for (int i = 0; i < 5; ++i) {
    client.read(std::make_shared<replication::RegisterRead>(), qos(10, 0.9), {});
  }
  f.settle(seconds(3));
  EXPECT_GT(reported, 0.9);
}

TEST(ClientHandler, AlarmSilentWhenQoSMet) {
  Fixture f;
  auto& client = f.add_client();
  f.settle();
  bool fired = false;
  client.set_qos_alarm([&](double) { fired = true; });
  for (int i = 0; i < 5; ++i) {
    client.read(std::make_shared<replication::RegisterRead>(), qos(1000, 0.5), {});
  }
  f.settle(seconds(3));
  EXPECT_FALSE(fired);
}

TEST(ClientHandler, StatsAggregateCorrectly) {
  Fixture f;
  auto& client = f.add_client();
  f.settle();
  for (int i = 0; i < 4; ++i) {
    client.update(std::make_shared<replication::RegisterBump>(), {});
    client.read(std::make_shared<replication::RegisterRead>(), qos(1000), {});
  }
  f.settle(seconds(3));
  const auto& stats = client.stats();
  EXPECT_EQ(stats.reads_issued, 4u);
  EXPECT_EQ(stats.reads_completed, 4u);
  EXPECT_EQ(stats.updates_issued, 4u);
  EXPECT_EQ(stats.updates_completed, 4u);
  EXPECT_GT(stats.avg_replicas_selected(), 0.0);
  EXPECT_GT(stats.avg_response_time(), sim::Duration::zero());
}

TEST(ClientHandler, RetriesWhenAllSelectedReplicasCrash) {
  Fixture f;
  ClientConfig config;
  config.retry_timeout = milliseconds(500);
  auto& client = f.add_client(std::move(config));
  f.settle();
  // Warm up histories so selection picks few replicas.
  for (int i = 0; i < 6; ++i) {
    client.read(std::make_shared<replication::RegisterRead>(), qos(1000), {});
  }
  f.settle(seconds(5));
  // Crash every non-sequencer replica except one primary: any read that
  // selected a crashed replica must be retried and still complete.
  f.bed.replica(2).crash();
  f.bed.replica(3).crash();
  f.bed.replica(4).crash();
  f.sim.run_for(seconds(8));  // failure detection + reconfiguration
  int replies = 0;
  for (int i = 0; i < 5; ++i) {
    client.read(std::make_shared<replication::RegisterRead>(), qos(1000), [&](const ReadOutcome&) { ++replies; });
  }
  f.settle(seconds(20));
  EXPECT_EQ(replies, 5);
}

TEST(ClientHandler, AbandonsAfterMaxRetries) {
  Fixture f;
  ClientConfig config;
  config.retry_timeout = milliseconds(300);
  config.max_retries = 2;
  auto& client = f.add_client(std::move(config));
  f.settle();
  // Crash everything that could answer reads (all but the sequencer).
  for (std::size_t i = 1; i < f.bed.num_replicas(); ++i) f.bed.replica(i).crash();
  ReadOutcome outcome;
  int called = 0;
  client.read(std::make_shared<replication::RegisterRead>(), qos(200),
              [&](const ReadOutcome& o) {
                outcome = o;
                ++called;
              });
  f.settle(seconds(20));
  EXPECT_EQ(called, 1);
  EXPECT_EQ(outcome.result, nullptr);
  EXPECT_TRUE(outcome.timing_failure);
  EXPECT_EQ(client.stats().reads_abandoned, 1u);
}

TEST(ClientHandler, AbandonedUpdateReportsOnceWithoutCompleting) {
  Fixture f;
  ClientConfig config;
  config.retry_timeout = milliseconds(300);
  config.max_retries = 2;
  auto& client = f.add_client(std::move(config));
  f.settle();
  // Crash every primary, the sequencer included: nobody commits updates.
  for (std::size_t i = 0; i < 3; ++i) f.bed.replica(i).crash();
  UpdateOutcome outcome;
  outcome.result = std::make_shared<replication::RegisterBump>();
  int called = 0;
  client.update(std::make_shared<replication::RegisterBump>(),
                [&](const UpdateOutcome& o) {
                  outcome = o;
                  ++called;
                });
  f.settle(seconds(20));
  EXPECT_EQ(called, 1);
  EXPECT_EQ(outcome.result, nullptr);
  EXPECT_GT(outcome.response_time, sim::Duration::zero());
  const auto& stats = client.stats();
  EXPECT_EQ(stats.updates_issued, 1u);
  EXPECT_EQ(stats.updates_completed, 0u);
  EXPECT_EQ(stats.updates_abandoned, 1u);
  EXPECT_EQ(stats.retries, 2u);
}

TEST(ClientHandler, AbandonedReadIsAnSlaFailureButNotAReply) {
  Fixture f;
  ClientConfig config;
  config.retry_timeout = milliseconds(300);
  config.max_retries = 2;
  auto& client = f.add_client(std::move(config));
  f.settle();
  bool fired = false;
  client.set_qos_alarm([&](double) { fired = true; });
  // One timely read, then one that nobody can answer. Counted as a reply,
  // the abandoned read would halve the timely rate below Pc = 0.9.
  client.read(std::make_shared<replication::RegisterRead>(), qos(1000, 0.9),
              {});
  f.settle(seconds(2));
  for (std::size_t i = 1; i < f.bed.num_replicas(); ++i) f.bed.replica(i).crash();
  client.read(std::make_shared<replication::RegisterRead>(), qos(1000, 0.9),
              {});
  f.settle(seconds(20));
  const auto& stats = client.stats();
  EXPECT_EQ(stats.reads_completed, 1u);
  EXPECT_EQ(stats.reads_abandoned, 1u);
  EXPECT_EQ(stats.timing_failures, 0u);
  EXPECT_FALSE(fired);
  // The SLA monitor records both reads, the abandoned one as a failure.
  const auto statuses =
      f.bed.transport().observability().sla.statuses(f.sim.now());
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].client, client.id());
  EXPECT_EQ(statuses[0].total_reads, 2u);
  EXPECT_EQ(statuses[0].window_failures, 1u);
}

TEST(ClientHandler, RetriesCountedInSelectionAccounting) {
  // Every retry runs Algorithm 1 afresh, so replicas_selected_total and
  // selection_attempts must grow on each attempt, not just attempt 0.
  Fixture f;
  ClientConfig config;
  config.retry_timeout = milliseconds(300);
  config.max_retries = 2;
  auto& client = f.add_client(std::move(config));
  f.settle();
  // Crash everything that could answer reads: the single read below then
  // exercises the initial transmission plus both retries.
  for (std::size_t i = 1; i < f.bed.num_replicas(); ++i) f.bed.replica(i).crash();
  client.read(std::make_shared<replication::RegisterRead>(), qos(200), {});
  f.settle(seconds(20));
  const auto& stats = client.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.selection_attempts, 3u);  // initial + 2 retries
  // Each attempt selected at least one replica, and the average is over
  // attempts, not reads.
  EXPECT_GE(stats.replicas_selected_total, 3u);
  EXPECT_DOUBLE_EQ(stats.avg_replicas_selected(),
                   static_cast<double>(stats.replicas_selected_total) / 3.0);
}

TEST(ClientHandler, ErtUpdatedOnReplies) {
  Fixture f;
  auto& client = f.add_client();
  f.settle();
  client.read(std::make_shared<replication::RegisterRead>(), qos(1000), {});
  f.settle(seconds(2));
  // Some replica has a recent last_reply_at.
  bool any_recent = false;
  for (std::size_t i = 1; i < f.bed.num_replicas(); ++i) {
    const auto* h = client.repository().find_history(f.bed.replica(i).id());
    if (h && h->last_reply_at > sim::kEpoch) any_recent = true;
  }
  EXPECT_TRUE(any_recent);
}

TEST(ClientHandler, GatewayDelayMeasuredPositiveAndSmall) {
  Fixture f;
  auto& client = f.add_client();
  f.settle();
  for (int i = 0; i < 5; ++i) {
    client.read(std::make_shared<replication::RegisterRead>(), qos(1000), {});
  }
  f.settle(seconds(3));
  for (std::size_t i = 1; i < f.bed.num_replicas(); ++i) {
    const auto* h = client.repository().find_history(f.bed.replica(i).id());
    if (h == nullptr || !h->gateway_delay()) continue;
    // Two-way gateway delay ~ 2 x 1ms network latency; must not include
    // the 50ms service time (that is what the t1 piggyback removes).
    EXPECT_LT(*h->gateway_delay(), milliseconds(20));
  }
}

// A QoS member may publish only its own samples: one naming another
// replica would skew the client's model of that replica.
TEST(ClientHandler, PublicationUnderAnotherReplicasIdIsDropped) {
  Fixture f;
  auto& client = f.add_client();
  gcs::Member& rogue = f.bed.add_client_endpoint().member(f.groups.qos);
  rogue.join(gcs::Role::kMember);
  f.settle();
  const net::NodeId victim = f.bed.replica(3).id();
  for (const net::NodeId named : {victim, rogue.self()}) {
    auto perf = std::make_shared<replication::PerfPublication>();
    perf->replica = named;
    perf->has_sample = true;
    perf->ts = milliseconds(400);
    rogue.multicast(perf);
  }
  f.settle(seconds(1));
  const auto* forged = client.repository().find_history(victim);
  EXPECT_TRUE(forged == nullptr || forged->service.size() == 0);
  const auto* own = client.repository().find_history(rogue.self());
  ASSERT_NE(own, nullptr);
  EXPECT_EQ(own->service.size(), 1u);
}

TEST(ClientHandler, SelectionMetadataReported) {
  Fixture f;
  auto& client = f.add_client();
  f.settle();
  // Warm up.
  for (int i = 0; i < 8; ++i) {
    client.read(std::make_shared<replication::RegisterRead>(), qos(1000), {});
  }
  f.settle(seconds(5));
  ReadOutcome outcome;
  client.read(std::make_shared<replication::RegisterRead>(), qos(300, 0.8),
              [&](const ReadOutcome& o) { outcome = o; });
  f.settle(seconds(2));
  EXPECT_GT(outcome.replicas_selected, 0u);
  EXPECT_TRUE(outcome.selection_satisfied);
  EXPECT_GE(outcome.predicted_probability, 0.8);
}

}  // namespace
}  // namespace aqueduct::client
