// The bare loopback LAN model, and the network faults the chaos decorator
// injects over it.
#include "net/loopback.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "net/chaos.hpp"
#include "net/message.hpp"
#include "obs/snapshot.hpp"
#include "sim/simulator.hpp"

namespace aqueduct::net {
namespace {

using std::chrono::milliseconds;

struct TextMsg final : Message {
  explicit TextMsg(std::string t) : text(std::move(t)) {}
  std::string text;
  std::string type_name() const override { return "test.text"; }
};

struct Recorder final : Endpoint {
  std::vector<std::pair<NodeId, std::string>> received;
  void on_message(NodeId from, MessagePtr msg) override {
    auto text = message_cast<TextMsg>(msg);
    received.emplace_back(from, text ? text->text : "?");
  }
};

struct Fixture {
  sim::Simulator sim{1};
  LoopbackTransport network{sim, std::make_unique<sim::FixedDuration>(milliseconds(1))};
};

/// The same 1 ms LAN with the chaos decorator on top, which injects every
/// network fault.
struct ChaosFixture {
  sim::Simulator sim{1};
  ChaosTransport network{make_loopback_transport(
      sim, std::make_unique<sim::FixedDuration>(milliseconds(1)))};
};

TEST(LoopbackTransport, DeliversAfterLatency) {
  Fixture f;
  Recorder a, b;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  f.network.send(ida, idb, std::make_shared<TextMsg>("hi"));
  f.sim.run_until(sim::kEpoch + std::chrono::microseconds(500));
  EXPECT_TRUE(b.received.empty());  // still in flight
  f.sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, ida);
  EXPECT_EQ(b.received[0].second, "hi");
}

TEST(LoopbackTransport, AssignsDistinctIds) {
  Fixture f;
  Recorder a, b, c;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  const NodeId idc = f.network.attach(c);
  EXPECT_NE(ida, idb);
  EXPECT_NE(idb, idc);
  EXPECT_TRUE(f.network.is_attached(ida));
}

TEST(LoopbackTransport, MulticastReachesAllDestinations) {
  Fixture f;
  Recorder a, b, c;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  const NodeId idc = f.network.attach(c);
  f.network.multicast(ida, {idb, idc}, std::make_shared<TextMsg>("m"));
  f.sim.run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_TRUE(a.received.empty());
}

TEST(LoopbackTransport, DetachedDestinationDropsSilently) {
  Fixture f;
  Recorder a, b;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  f.network.detach(idb);
  f.network.send(ida, idb, std::make_shared<TextMsg>("x"));
  f.sim.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(f.network.stats().messages_dropped_detached, 1u);
}

// Only the chaos decorator drops for loss or partition, so only a registry
// under it has those series.
TEST(LoopbackTransport, FaultFreeRegistryHasNoLossOrPartitionSeries) {
  const auto has = [](Transport& network, const std::string& name) {
    const auto counters = network.metrics().snapshot().counters;
    return std::any_of(counters.begin(), counters.end(),
                       [&](const auto& counter) { return counter.first == name; });
  };
  Fixture bare;
  ChaosFixture chaos;
  EXPECT_TRUE(has(bare.network, "net.messages_sent"));
  EXPECT_FALSE(has(bare.network, "net.messages_dropped_loss"));
  EXPECT_FALSE(has(bare.network, "net.messages_dropped_partition"));
  EXPECT_TRUE(has(chaos.network, "net.messages_dropped_loss"));
  EXPECT_TRUE(has(chaos.network, "net.messages_dropped_partition"));
}

TEST(LoopbackTransport, DetachedSenderCannotSend) {
  Fixture f;
  Recorder a, b;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  f.network.detach(ida);
  f.network.send(ida, idb, std::make_shared<TextMsg>("x"));
  f.sim.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(LoopbackTransport, InFlightMessageToCrashedNodeDropped) {
  Fixture f;
  Recorder a, b;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  f.network.send(ida, idb, std::make_shared<TextMsg>("x"));
  f.network.detach(idb);  // crashes while the message is in flight
  f.sim.run();
  EXPECT_TRUE(b.received.empty());
}

TEST(LoopbackTransport, LossDropsApproximatelyAtRate) {
  ChaosFixture f;
  Recorder a, b;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  f.network.set_loss_probability(0.3);
  for (int i = 0; i < 2000; ++i) {
    f.network.send(ida, idb, std::make_shared<TextMsg>("x"));
  }
  f.sim.run();
  const double delivered = static_cast<double>(b.received.size()) / 2000.0;
  EXPECT_NEAR(delivered, 0.7, 0.05);
}

TEST(LoopbackTransport, PartitionBlocksCrossTraffic) {
  ChaosFixture f;
  Recorder a, b, c;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  const NodeId idc = f.network.attach(c);
  f.network.partition({ida}, {idb});
  f.network.send(ida, idb, std::make_shared<TextMsg>("blocked"));
  f.network.send(ida, idc, std::make_shared<TextMsg>("ok"));  // c unaffected
  f.sim.run();
  EXPECT_TRUE(b.received.empty());
  ASSERT_EQ(c.received.size(), 1u);
  EXPECT_EQ(f.network.stats().messages_dropped_partition, 1u);
}

TEST(LoopbackTransport, HealRestoresTraffic) {
  ChaosFixture f;
  Recorder a, b;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  f.network.partition({ida}, {idb});
  f.network.heal();
  f.network.send(ida, idb, std::make_shared<TextMsg>("x"));
  f.sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(LoopbackTransport, PerLinkLatencyOverride) {
  ChaosFixture f;
  Recorder a, b, c;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  const NodeId idc = f.network.attach(c);
  f.network.set_link_delay(ida, idb,
                           std::make_shared<sim::FixedDuration>(milliseconds(50)));
  f.network.send(ida, idb, std::make_shared<TextMsg>("slow"));
  f.network.send(ida, idc, std::make_shared<TextMsg>("fast"));
  f.sim.run_until(sim::kEpoch + milliseconds(10));
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 1u);
  // The link delay adds to the 1 ms LAN latency rather than replacing it.
  f.sim.run_until(sim::kEpoch + milliseconds(50));
  EXPECT_TRUE(b.received.empty());
  f.sim.run_until(sim::kEpoch + milliseconds(51));
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(LoopbackTransport, SlowNodeLatencyAppliesBothDirections) {
  ChaosFixture f;
  Recorder a, b;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  f.network.set_node_latency(idb,
                             std::make_shared<sim::FixedDuration>(milliseconds(20)));
  f.network.send(ida, idb, std::make_shared<TextMsg>("to-slow"));
  f.network.send(idb, ida, std::make_shared<TextMsg>("from-slow"));
  f.sim.run_until(sim::kEpoch + milliseconds(10));
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  f.sim.run();
  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(LoopbackTransport, StatsCountSentAndDelivered) {
  Fixture f;
  Recorder a, b;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  for (int i = 0; i < 5; ++i) {
    f.network.send(ida, idb, std::make_shared<TextMsg>("x"));
  }
  f.sim.run();
  EXPECT_EQ(f.network.stats().messages_sent, 5u);
  EXPECT_EQ(f.network.stats().messages_delivered, 5u);
  EXPECT_GT(f.network.stats().bytes_sent, 0u);
}

TEST(LoopbackTransport, VariableLatencyCanReorder) {
  // With high-variance latency, two messages sent back to back can arrive
  // out of order — the reliable-FIFO layer above must handle this; the raw
  // network explicitly does not.
  sim::Simulator sim(3);
  LoopbackTransport network(sim, std::make_unique<sim::NormalDuration>(
                           milliseconds(10), milliseconds(8)));
  Recorder a, b;
  const NodeId ida = network.attach(a);
  const NodeId idb = network.attach(b);
  bool reordered = false;
  for (int round = 0; round < 200 && !reordered; ++round) {
    b.received.clear();
    network.send(ida, idb, std::make_shared<TextMsg>("1"));
    network.send(ida, idb, std::make_shared<TextMsg>("2"));
    sim.run();
    ASSERT_EQ(b.received.size(), 2u);
    reordered = b.received[0].second == "2";
  }
  EXPECT_TRUE(reordered);
}

TEST(NetworkLoss, LinkLossIsDirectional) {
  ChaosFixture f;
  Recorder a, b;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  f.network.set_link_loss(ida, idb, 1.0);
  for (int i = 0; i < 20; ++i) {
    f.network.send(ida, idb, std::make_shared<TextMsg>("fwd"));
    f.network.send(idb, ida, std::make_shared<TextMsg>("rev"));
  }
  f.sim.run();
  EXPECT_TRUE(b.received.empty());        // a -> b fully lossy
  EXPECT_EQ(a.received.size(), 20u);      // b -> a untouched
  f.network.heal_link(ida, idb);
  f.network.send(ida, idb, std::make_shared<TextMsg>("after"));
  f.sim.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkLoss, LinkLossOverridesGlobal) {
  ChaosFixture f;
  Recorder a, b;
  const NodeId ida = f.network.attach(a);
  const NodeId idb = f.network.attach(b);
  f.network.set_loss_probability(0.25);
  EXPECT_DOUBLE_EQ(f.network.loss_probability(ida, idb), 0.25);
  // A link override is authoritative — it may *lower* the effective loss.
  f.network.set_link_loss(ida, idb, 0.1);
  EXPECT_DOUBLE_EQ(f.network.loss_probability(ida, idb), 0.1);
  EXPECT_DOUBLE_EQ(f.network.loss_probability(idb, ida), 0.25);
  f.network.heal_link(ida, idb);
  EXPECT_DOUBLE_EQ(f.network.loss_probability(ida, idb), 0.25);
}

TEST(NodeIdTest, FormatsAndHashes) {
  EXPECT_EQ(to_string(NodeId{7}), "n7");
  EXPECT_FALSE(NodeId{}.valid());
  EXPECT_TRUE(NodeId{1}.valid());
  EXPECT_EQ(std::hash<NodeId>{}(NodeId{5}), std::hash<NodeId>{}(NodeId{5}));
}

}  // namespace
}  // namespace aqueduct::net
