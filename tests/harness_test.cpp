// Harness-level behaviours: heterogeneous speed factors, open-loop
// arrivals, workload accounting, the testbed's restart directory rule.
#include <gtest/gtest.h>

#include <chrono>

#include "harness/scenario.hpp"
#include "harness/testbed.hpp"
#include "replication/objects.hpp"

namespace aqueduct::harness {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

ClientSpec basic_client(std::size_t requests, Arrival arrival = Arrival::kClosedLoop) {
  return ClientSpec{
      .qos = {.staleness_threshold = 4,
              .deadline = milliseconds(300),
              .min_probability = 0.5},
      .request_delay = milliseconds(300),
      .num_requests = requests,
      .arrival = arrival,
  };
}

TEST(HarnessSpeedFactors, FastReplicasServeFaster) {
  auto run_with = [](std::vector<double> speeds) {
    ScenarioConfig config;
    config.seed = 3;
    config.num_primaries = 2;
    config.num_secondaries = 2;
    config.speed_factors = std::move(speeds);
    // Staleness-insensitive reads: a faster pool also raises the
    // closed-loop update rate, and with a tight threshold that would add
    // deferral waits which mask the pure service-speed effect.
    auto spec = basic_client(120);
    spec.qos.staleness_threshold = 1000;
    config.clients.push_back(std::move(spec));
    Scenario scenario(std::move(config));
    auto results = scenario.run();
    return sim::to_ms(results[0].stats.avg_response_time());
  };
  // Everyone 4x faster => markedly lower read latency.
  const double slow = run_with({1, 1, 1, 1, 1});
  const double fast = run_with({1, 4, 4, 4, 4});
  EXPECT_LT(fast, slow * 0.6);
}

TEST(HarnessSpeedFactors, MissingEntriesDefaultToOne) {
  ScenarioConfig config;
  config.seed = 4;
  config.num_primaries = 2;
  config.num_secondaries = 2;
  config.speed_factors = {1.0};  // only the sequencer listed
  config.clients.push_back(basic_client(40));
  Scenario scenario(std::move(config));
  auto results = scenario.run();
  EXPECT_EQ(results[0].stats.reads_completed, 20u);
}

TEST(HarnessArrival, OpenLoopIssuesAllRequests) {
  ScenarioConfig config;
  config.seed = 5;
  config.clients.push_back(basic_client(60, Arrival::kOpenPoisson));
  Scenario scenario(std::move(config));
  auto results = scenario.run();
  EXPECT_EQ(results[0].stats.reads_issued, 30u);
  EXPECT_EQ(results[0].stats.updates_issued, 30u);
  EXPECT_EQ(results[0].stats.reads_completed + results[0].stats.reads_abandoned,
            30u);
}

TEST(HarnessArrival, OpenPeriodicFinishesInBoundedTime) {
  ScenarioConfig config;
  config.seed = 6;
  config.clients.push_back(basic_client(40, Arrival::kOpenPeriodic));
  Scenario scenario(std::move(config));
  auto results = scenario.run();
  EXPECT_EQ(results[0].stats.reads_completed, 20u);
  // 40 arrivals at 300 ms spacing start within 12 s; with boot and the
  // drain tail the run must stay well under a minute of simulated time.
  EXPECT_LT(scenario.executor().now(), sim::kEpoch + seconds(60));
}

TEST(HarnessArrival, OpenLoopIsFasterThanClosedLoopWallClock) {
  auto sim_time = [](Arrival arrival) {
    ScenarioConfig config;
    config.seed = 7;
    config.clients.push_back(basic_client(60, arrival));
    Scenario scenario(std::move(config));
    scenario.run();
    return scenario.executor().now() - sim::kEpoch;
  };
  // Closed loop waits for each completion; open loop overlaps requests.
  EXPECT_LT(sim_time(Arrival::kOpenPeriodic), sim_time(Arrival::kClosedLoop));
}

TEST(HarnessResults, ReadSamplesMatchCompletedReads) {
  ScenarioConfig config;
  config.seed = 8;
  config.clients.push_back(basic_client(50));
  Scenario scenario(std::move(config));
  auto results = scenario.run();
  EXPECT_EQ(results[0].read_response_times.size(),
            results[0].stats.reads_completed);
  EXPECT_EQ(results[0].reply_staleness.size(),
            results[0].stats.reads_completed);
}

// Restarting the only live replica of a service forgets the directory
// entries naming its dead incarnation, so the reborn process bootstraps
// those groups afresh. The QoS-group entry must survive while any client
// is attached, a bare add_client() handler included: the client is still
// a QoS member, and a forgotten entry would let the reborn replica
// bootstrap a second, disjoint QoS view.
TEST(TestbedRestart, QosEntrySurvivesWhileABareClientIsAttached) {
  Testbed bed(6, std::make_unique<sim::NormalDuration>(
                     milliseconds(1), std::chrono::microseconds(200)));
  const auto groups = replication::ServiceGroups::for_service(1);
  replication::ReplicaConfig config;
  config.service_time = std::make_shared<sim::FixedDuration>(milliseconds(10));
  bed.add_replica(groups, /*primary=*/true, std::move(config),
                  [] { return std::make_unique<replication::KeyValueStore>(); });
  bed.start_replicas();
  bed.executor().run_for(seconds(1));
  client::ClientHandler& client = bed.add_client(groups);
  bed.executor().run_for(seconds(2));
  ASSERT_TRUE(client.ready());
  const net::NodeId old_id = bed.replica_node(0);
  ASSERT_EQ(bed.directory().lookup(groups.qos), old_id);
  ASSERT_EQ(client.repository().roles().sequencer, old_id);
  const std::uint64_t old_epoch = client.repository().roles().epoch;

  bed.restart_replica(0);
  const net::NodeId new_id = bed.replica_node(0);
  ASSERT_NE(new_id, old_id);
  // The replica-only groups were forgotten and re-claimed by the rebirth;
  // the QoS group still names the old coordinator until the client's
  // failover takes it over.
  EXPECT_EQ(bed.directory().lookup(groups.primary), new_id);
  EXPECT_EQ(bed.directory().lookup(groups.replication), new_id);
  EXPECT_EQ(bed.directory().lookup(groups.qos), old_id);

  // The client's failover, not a second QoS view, takes the entry over.
  bed.executor().run_for(seconds(10));
  EXPECT_EQ(bed.directory().lookup(groups.qos), client.id());

  // The rebirth counts its role-map epochs afresh, but in a later QoS view:
  // the client takes its role map and addresses the new sequencer.
  EXPECT_EQ(client.repository().roles().sequencer, new_id);
  EXPECT_GT(client.repository().roles().epoch, old_epoch);
}

// The QoS rule is judged per service: a client of one service does not
// keep alive the QoS entry of another service no client joined, whose
// reborn only replica would otherwise chase its dead incarnation.
TEST(TestbedRestart, QosEntryOfAServiceWithoutClientsIsForgotten) {
  Testbed bed(6, std::make_unique<sim::NormalDuration>(
                     milliseconds(1), std::chrono::microseconds(200)));
  const auto served = replication::ServiceGroups::for_service(1);
  const auto unserved = replication::ServiceGroups::for_service(2);
  for (const auto* groups : {&served, &unserved}) {
    replication::ReplicaConfig config;
    config.service_time = std::make_shared<sim::FixedDuration>(milliseconds(10));
    bed.add_replica(*groups, /*primary=*/true, std::move(config),
                    [] { return std::make_unique<replication::KeyValueStore>(); });
  }
  bed.start_replicas();
  bed.executor().run_for(seconds(1));
  client::ClientHandler& client = bed.add_client(served);
  bed.executor().run_for(seconds(2));
  ASSERT_TRUE(client.ready());
  const net::NodeId old_id = bed.replica_node(1);
  ASSERT_EQ(bed.directory().lookup(unserved.qos), old_id);

  bed.restart_replica(1);
  const net::NodeId new_id = bed.replica_node(1);
  ASSERT_NE(new_id, old_id);
  EXPECT_EQ(bed.directory().lookup(unserved.qos), new_id);
  EXPECT_EQ(bed.directory().lookup(served.qos), bed.replica_node(0));
}

}  // namespace
}  // namespace aqueduct::harness
