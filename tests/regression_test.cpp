// Regression tests pinning specific bugs found while building this
// system. Each test documents the failure mode it guards against.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "client/handler.hpp"
#include "gcs/endpoint.hpp"
#include "harness/testbed.hpp"
#include "net/loopback.hpp"
#include "replication/objects.hpp"
#include "sim/simulator.hpp"

namespace aqueduct {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

struct TextMsg final : net::Message {
  explicit TextMsg(std::string t) : text(std::move(t)) {}
  std::string text;
  std::string type_name() const override { return "test.text"; }
};

// Bug 1: a multicast sent in the new view could reach a fresh joiner
// *before* its InstallMsg (network reordering). The joiner buffered it,
// but install_view never drained the buffer after setting the delivery
// baseline, so the message — and every later one — stayed stuck forever.
// Symptom: clients never received the sequencer's GroupInfo and the whole
// workload hung.
TEST(Regression, JoinerDrainsMessagesThatRacedItsInstall) {
  // A slow link from the coordinator to the joiner makes the install
  // arrive *after* data multicast at the same time.
  sim::Simulator sim(1);
  net::LoopbackTransport network(sim,
                       std::make_unique<sim::FixedDuration>(milliseconds(1)));
  gcs::Directory directory;
  const gcs::GroupId group{5};

  gcs::Endpoint coordinator(sim, network, directory);
  gcs::Endpoint joiner(sim, network, directory);
  std::vector<std::string> joiner_got;
  auto& cm = coordinator.member(group);
  auto& jm = joiner.member(group);
  jm.set_on_deliver([&](net::NodeId, const net::MessagePtr& msg) {
    if (auto t = net::message_cast<TextMsg>(msg)) joiner_got.push_back(t->text);
  });
  cm.join();
  sim.run_for(milliseconds(10));
  // Make coordinator->joiner slow so the install (sent at flush end)
  // loses the race against the multicast sent right after.
  network.set_link_latency(coordinator.id(), joiner.id(),
                           std::make_shared<sim::FixedDuration>(milliseconds(30)));
  jm.set_on_view([&](const gcs::View&) {
    // As soon as the coordinator installs the 2-member view it multicasts;
    // with the asymmetric delay the joiner sees data before install.
  });
  cm.set_on_view([&](const gcs::View& v) {
    if (v.size() == 2) cm.multicast(std::make_shared<TextMsg>("raced"));
  });
  jm.join();
  sim.run_for(seconds(3));
  ASSERT_EQ(joiner_got.size(), 1u);
  EXPECT_EQ(joiner_got[0], "raced");
}

struct ReplicaFixture {
  explicit ReplicaFixture(std::uint64_t seed = 1)
      : bed(seed, std::make_unique<sim::NormalDuration>(
                      milliseconds(1), std::chrono::microseconds(300))) {}

  replication::ReplicaServer& add_replica(bool primary) {
    replication::ReplicaConfig config;
    config.service_time = std::make_shared<sim::FixedDuration>(milliseconds(10));
    config.lazy_update_interval = seconds(1);
    return bed.add_replica(groups, primary, std::move(config), [] {
      return std::make_unique<replication::VersionedRegister>();
    });
  }

  client::ClientHandler& add_client(client::ClientConfig config = {}) {
    return bed.add_client(groups, std::move(config));
  }

  void boot() {
    bed.start_replicas(milliseconds(10));
    sim.run_for(seconds(2));
  }

  harness::Testbed bed;
  runtime::Executor& sim = bed.executor();
  net::FaultInjection& network = *bed.transport().fault_injection();
  replication::ServiceGroups groups = replication::ServiceGroups::for_service(1);
};

// Bug 2: an update whose GsnAssign broadcast beat the payload to a
// primary was misclassified as a duplicate (the handler keyed the dup
// check on the GSN map too), so the payload was never stored and the
// commit pipeline stalled forever at that GSN. Symptom: one primary stuck
// at csn=0 while others progressed.
TEST(Regression, GsnBeforePayloadStillCommits) {
  ReplicaFixture f;
  f.add_replica(true);  // sequencer
  auto& primary = f.add_replica(true);
  f.boot();
  auto& client = f.add_client();
  f.sim.run_for(seconds(1));
  // The sequencer is co-located with the client's update path; make the
  // client->primary link slow so the GsnAssign (client->sequencer->
  // primary, two fast hops) arrives before the payload (one slow hop).
  f.network.set_link_latency(client.id(), primary.id(),
                             std::make_shared<sim::FixedDuration>(milliseconds(20)));
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    client.update(std::make_shared<replication::RegisterBump>(),
                  [&](const client::UpdateOutcome&) { ++done; });
  }
  f.sim.run_for(seconds(5));
  EXPECT_EQ(done, 5);
  EXPECT_EQ(primary.csn(), 5u);
}

// Bug 3: after a sequencer crash the new sequencer restarted the
// GroupInfo epoch at 1; clients treated its role maps as stale and kept
// sending to the dead sequencer until every read was abandoned.
TEST(Regression, GroupInfoEpochSurvivesSequencerFailover) {
  ReplicaFixture f;
  f.add_replica(true);  // sequencer
  f.add_replica(true);
  f.add_replica(true);
  f.boot();
  auto& client = f.add_client();
  f.sim.run_for(seconds(1));
  ASSERT_TRUE(client.ready());
  const auto old_sequencer = client.repository().roles().sequencer;

  f.bed.replica(0).crash();
  f.sim.run_for(seconds(8));  // detection + failover + republish

  ASSERT_TRUE(client.ready());
  EXPECT_NE(client.repository().roles().sequencer, old_sequencer)
      << "client must learn the new sequencer despite the epoch reset";
  EXPECT_EQ(client.repository().roles().sequencer, f.bed.replica(1).id());

  // And requests keep completing.
  int replies = 0;
  client.read(std::make_shared<replication::RegisterRead>(),
              {.staleness_threshold = 5,
               .deadline = seconds(1),
               .min_probability = 0.5},
              [&](const client::ReadOutcome&) { ++replies; });
  f.sim.run_for(seconds(3));
  EXPECT_EQ(replies, 1);
}

// Bug 4: view-change control messages (propose/flush/install) were sent
// over the raw lossy network; a dropped install left one member in the
// old view forever and the flush-timeout fallback wrongly suspected live
// members, splitting the group. Control traffic now rides the reliable
// p2p channels. Under sustained loss, membership changes must still
// complete consistently.
TEST(Regression, ViewChangeCompletesUnderHeavyLoss) {
  sim::Simulator sim(11);
  net::LoopbackTransport network(sim, std::make_unique<sim::NormalDuration>(
                                milliseconds(2), milliseconds(1)));
  gcs::Directory directory;
  const gcs::GroupId group{9};
  std::vector<std::unique_ptr<gcs::Endpoint>> endpoints;
  for (int i = 0; i < 4; ++i) {
    endpoints.push_back(std::make_unique<gcs::Endpoint>(sim, network, directory));
  }
  for (int i = 0; i < 4; ++i) {
    sim.after(milliseconds(5), [&, i] { endpoints[i]->member(group).join(); });
    sim.run_for(milliseconds(50));
  }
  sim.run_for(seconds(2));

  network.set_loss_probability(0.3);
  endpoints[2]->crash();
  sim.run_for(seconds(25));  // detection + (retried) flush under loss
  network.set_loss_probability(0.0);
  sim.run_for(seconds(5));

  const auto& reference = endpoints[0]->member(group).view();
  EXPECT_EQ(reference.size(), 3u);
  for (const int i : {0, 1, 3}) {
    auto& member = endpoints[static_cast<std::size_t>(i)]->member(group);
    EXPECT_TRUE(member.joined()) << "member " << i;
    EXPECT_EQ(member.view().id, reference.id) << "member " << i;
    EXPECT_EQ(member.view().members, reference.members) << "member " << i;
  }
}

}  // namespace
}  // namespace aqueduct
