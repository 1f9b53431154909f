// Dynamic membership: replicas joining a running service (paper Section 3:
// group sizes are a tuning knob — this exercises growing the secondary
// tier at runtime), plus network partitions shorter than the suspicion
// timeout.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "client/handler.hpp"
#include "harness/testbed.hpp"
#include "replication/objects.hpp"

namespace aqueduct {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

struct Fixture {
  explicit Fixture(std::uint64_t seed = 1)
      : bed(seed, std::make_unique<sim::NormalDuration>(
                      milliseconds(1), std::chrono::microseconds(300))) {}

  replication::ReplicaServer& add_replica(bool primary,
                                          sim::Duration lazy = seconds(1)) {
    replication::ReplicaConfig config;
    config.service_time = std::make_shared<sim::FixedDuration>(milliseconds(10));
    config.lazy_update_interval = lazy;
    return bed.add_replica(groups, primary, std::move(config), [] {
      return std::make_unique<replication::VersionedRegister>();
    });
  }

  client::ClientHandler& add_client() { return bed.add_client(groups); }

  harness::Testbed bed;
  runtime::Executor& sim = bed.executor();
  net::FaultInjection& network = *bed.transport().fault_injection();
  replication::ServiceGroups groups = replication::ServiceGroups::for_service(1);
};

TEST(DynamicMembership, LateSecondaryCatchesUpViaLazyUpdate) {
  Fixture f;
  f.add_replica(true);   // sequencer
  f.add_replica(true);   // primary (becomes lazy publisher)
  f.add_replica(false);  // secondary from the start
  f.bed.start_replicas(milliseconds(10));
  auto& client = f.add_client();
  f.sim.run_for(seconds(2));

  // Build up state before the newcomer exists.
  for (int i = 0; i < 5; ++i) {
    client.update(std::make_shared<replication::RegisterBump>(), {});
  }
  f.sim.run_for(seconds(3));

  // A new secondary joins the running service.
  auto& newcomer = f.add_replica(false);
  newcomer.start();
  f.sim.run_for(seconds(4));  // join + next lazy propagation

  EXPECT_EQ(newcomer.csn(), 5u);
  const auto& reg =
      dynamic_cast<const replication::VersionedRegister&>(newcomer.object());
  EXPECT_EQ(reg.value(), 5u);
  EXPECT_GT(newcomer.stats().lazy_updates_installed, 0u);
}

TEST(DynamicMembership, LateSecondaryServesReads) {
  Fixture f;
  f.add_replica(true);
  f.add_replica(true);
  f.bed.start_replicas(milliseconds(10));
  auto& client = f.add_client();
  f.sim.run_for(seconds(2));
  client.update(std::make_shared<replication::RegisterBump>(), {});
  f.sim.run_for(seconds(2));

  auto& newcomer = f.add_replica(false);
  newcomer.start();
  f.sim.run_for(seconds(4));

  // Enough reads that the (least-recently-used, unknown-history) newcomer
  // gets selected.
  int replies = 0;
  for (int i = 0; i < 10; ++i) {
    client.read(std::make_shared<replication::RegisterRead>(),
                {.staleness_threshold = 5,
                 .deadline = seconds(1),
                 .min_probability = 0.5},
                [&](const client::ReadOutcome&) { ++replies; });
  }
  f.sim.run_for(seconds(5));
  EXPECT_EQ(replies, 10);
  EXPECT_GT(newcomer.stats().reads_served, 0u);
}

TEST(DynamicMembership, GroupInfoReflectsNewSecondary) {
  Fixture f;
  f.add_replica(true);
  f.add_replica(true);
  f.add_replica(false);
  f.bed.start_replicas(milliseconds(10));
  auto& client = f.add_client();
  f.sim.run_for(seconds(2));
  ASSERT_TRUE(client.ready());
  EXPECT_EQ(client.repository().roles().secondaries.size(), 1u);

  auto& newcomer = f.add_replica(false);
  newcomer.start();
  f.sim.run_for(seconds(3));
  EXPECT_EQ(client.repository().roles().secondaries.size(), 2u);
}

TEST(DynamicMembership, ShortPartitionHealsWithoutViewChange) {
  Fixture f;
  f.add_replica(true);
  f.add_replica(true);
  f.add_replica(false);
  f.bed.start_replicas(milliseconds(10));
  auto& client = f.add_client();
  f.sim.run_for(seconds(2));

  // Partition the secondary away for less than the suspicion timeout
  // (1.5 s default): traffic to it drops, but no view change happens.
  std::vector<net::NodeId> others = {f.bed.replica(0).id(), f.bed.replica(1).id(),
                                     client.id()};
  f.network.partition({f.bed.replica(2).id()}, others);
  f.sim.run_for(milliseconds(800));
  f.network.heal();
  f.sim.run_for(seconds(3));

  // The secondary is still a member everywhere (no spurious suspicion).
  ASSERT_TRUE(client.ready());
  EXPECT_EQ(client.repository().roles().secondaries.size(), 1u);

  // And the service still works end to end.
  int replies = 0;
  client.update(std::make_shared<replication::RegisterBump>(), {});
  client.read(std::make_shared<replication::RegisterRead>(),
              {.staleness_threshold = 5,
               .deadline = seconds(1),
               .min_probability = 0.5},
              [&](const client::ReadOutcome&) { ++replies; });
  f.sim.run_for(seconds(3));
  EXPECT_EQ(replies, 1);
}

TEST(DynamicMembership, PartitionDuringUpdatesRepairsByRetransmission) {
  Fixture f(5);
  f.add_replica(true);
  f.add_replica(true);
  f.add_replica(true);
  f.bed.start_replicas(milliseconds(10));
  auto& client = f.add_client();
  f.sim.run_for(seconds(2));

  // Cut one primary off briefly while updates flow; the GCS NACK repair
  // must bring it back in sync after the heal.
  f.network.partition({f.bed.replica(2).id()},
                      {f.bed.replica(0).id(), f.bed.replica(1).id(), client.id()});
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    client.update(std::make_shared<replication::RegisterBump>(),
                  [&](const client::UpdateOutcome&) { ++done; });
  }
  f.sim.run_for(milliseconds(700));
  f.network.heal();
  f.sim.run_for(seconds(5));

  EXPECT_EQ(done, 5);
  EXPECT_EQ(f.bed.replica(2).csn(), 5u);
  EXPECT_EQ(f.bed.replica(2).stats().gsn_conflicts, 0u);
}

}  // namespace
}  // namespace aqueduct
