// Message-level tracing at the transport layer, observed through the
// obs::TraceSink pipeline (transport.tracing() is the per-simulation hub).
// Drops are injected by the chaos decorator, which traces them into the
// wrapped loopback's hub.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/chaos.hpp"
#include "net/loopback.hpp"
#include "obs/trace.hpp"
#include "runtime/sim_executor.hpp"

namespace aqueduct::net {
namespace {

using std::chrono::milliseconds;

struct PingMsg final : Message {
  std::string type_name() const override { return "test.ping"; }
  std::size_t wire_size() const override { return 100; }
};

struct NullEndpoint final : Endpoint {
  void on_message(NodeId, MessagePtr) override {}
};

struct RecordingSink final : obs::TraceSink {
  std::vector<obs::MessageEvent> events;
  void on_message(const obs::MessageEvent& e) override { events.push_back(e); }
};

TEST(NetworkTrace, ObservesDeliveriesAndDrops) {
  runtime::SimExecutor sim(1);
  ChaosTransport network(make_loopback_transport(
      sim, std::make_unique<sim::FixedDuration>(milliseconds(1))));
  NullEndpoint a, b;
  const NodeId ida = network.attach(a);
  const NodeId idb = network.attach(b);

  RecordingSink sink;
  network.tracing().add(&sink);

  network.send(ida, idb, std::make_shared<PingMsg>());
  network.partition({ida}, {idb});
  network.send(ida, idb, std::make_shared<PingMsg>());
  network.heal();
  sim.run();

  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].type_name, "test.ping");
  EXPECT_EQ(sink.events[0].wire_size, 100u);
  EXPECT_TRUE(sink.events[0].dropped.empty());
  EXPECT_EQ(sink.events[0].from, ida);
  EXPECT_EQ(sink.events[0].to, idb);
  EXPECT_EQ(sink.events[1].dropped, "partition");
  network.tracing().remove(&sink);
}

TEST(NetworkTrace, LossEventsTagged) {
  runtime::SimExecutor sim(2);
  ChaosTransport network(make_loopback_transport(
      sim, std::make_unique<sim::FixedDuration>(milliseconds(1))));
  NullEndpoint a, b;
  const NodeId ida = network.attach(a);
  const NodeId idb = network.attach(b);
  network.set_loss_probability(1.0);
  RecordingSink sink;
  network.tracing().add(&sink);
  for (int i = 0; i < 5; ++i) network.send(ida, idb, std::make_shared<PingMsg>());
  sim.run();
  int losses = 0;
  for (const auto& e : sink.events) {
    if (e.dropped == "loss") ++losses;
  }
  EXPECT_EQ(losses, 5);
  network.tracing().remove(&sink);
}

TEST(NetworkTrace, RemovedSinkStopsObserving) {
  runtime::SimExecutor sim(3);
  LoopbackTransport network(sim, std::make_unique<sim::FixedDuration>(milliseconds(1)));
  NullEndpoint a, b;
  const NodeId ida = network.attach(a);
  const NodeId idb = network.attach(b);
  RecordingSink sink;
  network.tracing().add(&sink);
  network.send(ida, idb, std::make_shared<PingMsg>());
  network.tracing().remove(&sink);
  network.send(ida, idb, std::make_shared<PingMsg>());
  sim.run();
  EXPECT_EQ(sink.events.size(), 1u);
  // With no sinks the hub is inactive and the send path skips event
  // assembly entirely.
  EXPECT_FALSE(network.tracing().active());
}

}  // namespace
}  // namespace aqueduct::net
