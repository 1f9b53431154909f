// Transport conformance suite: the net::Transport contract, run against
// every backend. The loopback rig drives a SimExecutor (instant virtual
// time); the UDP rig wires two real sockets on ephemeral localhost ports
// under a RealTimeExecutor. Protocol layers depend only on the behaviors
// asserted here.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gcs/directory.hpp"
#include "gcs/endpoint.hpp"
#include "gcs/messages.hpp"
#include "net/loopback.hpp"
#include "net/transport.hpp"
#include "net/udp_transport.hpp"
#include "replication/objects.hpp"
#include "replication/messages.hpp"
#include "runtime/sim_executor.hpp"

namespace aqueduct {
namespace {

struct Recorder final : net::Endpoint {
  std::vector<std::pair<net::NodeId, net::MessagePtr>> received;
  void on_message(net::NodeId from, net::MessagePtr msg) override {
    received.emplace_back(from, std::move(msg));
  }
};

net::MessagePtr make_payload(const std::string& key, const std::string& value) {
  auto op = std::make_shared<replication::KvPut>();
  op->key = key;
  op->value = value;
  return op;
}

/// One two-node transport setup. `a_side()`/`b_side()` are the Transport
/// instances node A and node B send/receive through (the same object for
/// the loopback, one per process for UDP).
class TransportRig {
 public:
  virtual ~TransportRig() = default;
  virtual net::Transport& a_side() = 0;
  virtual net::Transport& b_side() = 0;
  virtual net::NodeId node_a() const = 0;
  virtual net::NodeId node_b() const = 0;
  /// Runs the event loop long enough for in-flight messages to land.
  virtual void pump() = 0;
};

class LoopbackRig final : public TransportRig {
 public:
  LoopbackRig(Recorder& a, Recorder& b)
      : exec_(runtime::make_executor(runtime::Kind::kSim, 7)),
        transport_(net::make_loopback_transport(
            *exec_, std::make_unique<sim::FixedDuration>(
                        std::chrono::milliseconds(1)))) {
    a_ = transport_->attach(a);
    b_ = transport_->attach(b);
  }

  net::Transport& a_side() override { return *transport_; }
  net::Transport& b_side() override { return *transport_; }
  net::NodeId node_a() const override { return a_; }
  net::NodeId node_b() const override { return b_; }
  void pump() override {
    exec_->run_until(exec_->now() + std::chrono::milliseconds(100));
  }

 private:
  std::unique_ptr<runtime::Executor> exec_;
  std::unique_ptr<net::Transport> transport_;
  net::NodeId a_;
  net::NodeId b_;
};

class UdpRig final : public TransportRig {
 public:
  UdpRig(Recorder& a, Recorder& b)
      : exec_(runtime::make_executor(runtime::Kind::kRealTime, 7)) {
    replication::register_wire_codecs();
    net::UdpConfig ca;
    ca.local_id = net::NodeId{1};
    net::UdpConfig cb;
    cb.local_id = net::NodeId{2};
    ta_ = std::make_unique<net::UdpTransport>(*exec_, ca);
    tb_ = std::make_unique<net::UdpTransport>(*exec_, cb);
    // Both bound ephemeral ports; now they can learn each other's address.
    ta_->add_peer({net::NodeId{2}, "127.0.0.1", tb_->local_port()});
    tb_->add_peer({net::NodeId{1}, "127.0.0.1", ta_->local_port()});
    a_ = ta_->attach(a);
    b_ = tb_->attach(b);
  }

  net::Transport& a_side() override { return *ta_; }
  net::Transport& b_side() override { return *tb_; }
  net::NodeId node_a() const override { return a_; }
  net::NodeId node_b() const override { return b_; }
  void pump() override {
    exec_->run_until(exec_->now() + std::chrono::milliseconds(150));
  }

  net::UdpTransport& raw_b() { return *tb_; }

 private:
  std::unique_ptr<runtime::Executor> exec_;
  std::unique_ptr<net::UdpTransport> ta_;
  std::unique_ptr<net::UdpTransport> tb_;
  net::NodeId a_;
  net::NodeId b_;
};

enum class Backend { kLoopback, kUdp };

std::unique_ptr<TransportRig> make_rig(Backend backend, Recorder& a,
                                       Recorder& b) {
  if (backend == Backend::kLoopback) {
    return std::make_unique<LoopbackRig>(a, b);
  }
  return std::make_unique<UdpRig>(a, b);
}

class TransportConformanceTest : public ::testing::TestWithParam<Backend> {};

TEST_P(TransportConformanceTest, AttachReportsAttached) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  EXPECT_TRUE(rig->a_side().is_attached(rig->node_a()));
  EXPECT_TRUE(rig->b_side().is_attached(rig->node_b()));
  EXPECT_NE(rig->node_a(), rig->node_b());
}

TEST_P(TransportConformanceTest, DeliversPayloadAndSenderIdentity) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  rig->a_side().send(rig->node_a(), rig->node_b(),
                     make_payload("k1", "hello"));
  rig->pump();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, rig->node_a());
  auto put = net::message_cast<replication::KvPut>(b.received[0].second);
  ASSERT_TRUE(put);
  EXPECT_EQ(put->key, "k1");
  EXPECT_EQ(put->value, "hello");
  EXPECT_TRUE(a.received.empty());
}

TEST_P(TransportConformanceTest, DeliveryCountersAdvance) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  for (int i = 0; i < 3; ++i) {
    rig->a_side().send(rig->node_a(), rig->node_b(), make_payload("k", "v"));
  }
  rig->pump();

  EXPECT_EQ(rig->a_side().stats().messages_sent, 3u);
  EXPECT_EQ(rig->b_side().stats().messages_delivered, 3u);
  EXPECT_GT(rig->a_side().stats().bytes_sent, 0u);
  EXPECT_EQ(rig->b_side().stats().decode_errors, 0u);
}

TEST_P(TransportConformanceTest, MulticastReachesEachDestination) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  rig->a_side().multicast(rig->node_a(), {rig->node_b()},
                          make_payload("k", "v"));
  rig->pump();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_P(TransportConformanceTest, SendToUnknownNodeIsDroppedNotFatal) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  rig->a_side().send(rig->node_a(), net::NodeId{999}, make_payload("k", "v"));
  rig->pump();

  EXPECT_TRUE(b.received.empty());
  const net::TransportStats sa = rig->a_side().stats();
  EXPECT_EQ(sa.messages_dropped_detached + sa.messages_dropped_unroutable, 1u)
      << "a send to an unknown destination must be counted as a drop";
}

TEST_P(TransportConformanceTest, DetachStopsDelivery) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  rig->b_side().detach(rig->node_b());
  EXPECT_FALSE(rig->b_side().is_attached(rig->node_b()));

  rig->a_side().send(rig->node_a(), rig->node_b(), make_payload("k", "v"));
  rig->pump();
  EXPECT_TRUE(b.received.empty());
}

TEST_P(TransportConformanceTest, NoBareBackendOffersFaultInjection) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  EXPECT_EQ(rig->a_side().fault_injection(), nullptr)
      << "only the chaos decorator injects faults";
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformanceTest,
                         ::testing::Values(Backend::kLoopback, Backend::kUdp),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kLoopback
                                      ? "Loopback"
                                      : "Udp";
                         });

// ---------------------------------------------------------------------------
// UDP-specific behavior
// ---------------------------------------------------------------------------

TEST(UdpTransportTest, GarbageDatagramIsCountedAndDropped) {
  Recorder a, b;
  UdpRig rig(a, b);

  // Fire raw junk at B's socket from outside the transport.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_port = htons(rig.raw_b().local_port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &dest.sin_addr), 1);
  const char junk[] = "definitely not an AQWF frame";
  ASSERT_GT(::sendto(fd, junk, sizeof(junk), 0,
                     reinterpret_cast<const sockaddr*>(&dest), sizeof(dest)),
            0);
  ::close(fd);

  rig.pump();
  EXPECT_GE(rig.b_side().stats().decode_errors, 1u);
  EXPECT_TRUE(b.received.empty());

  // The poisoned socket still carries well-formed traffic.
  rig.a_side().send(rig.node_a(), rig.node_b(), make_payload("k", "v"));
  rig.pump();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(UdpTransportTest, DatagramForAnotherNodeIsDropped) {
  Recorder a, b;
  UdpRig rig(a, b);
  // A's address book claims node 2 lives at B's port; send to node 2 but
  // from a transport whose envelope names a different destination: simplest
  // is to point a third id at B's port and send there.
  dynamic_cast<net::UdpTransport&>(rig.a_side())
      .add_peer({net::NodeId{77}, "127.0.0.1", rig.raw_b().local_port()});
  rig.a_side().send(rig.node_a(), net::NodeId{77}, make_payload("k", "v"));
  rig.pump();

  // B decoded the envelope fine but it was not the addressee.
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(rig.b_side().stats().messages_dropped_detached, 1u);
}

TEST(UdpTransportTest, RoundTripThroughRealSocketsPreservesNestedPayloads) {
  Recorder a, b;
  UdpRig rig(a, b);

  // A protocol-shaped message with a nested application payload: what the
  // gcs layer actually puts on the wire.
  auto data = std::make_shared<gcs::DataMsg>();
  data->group = gcs::GroupId{17};
  data->sender = rig.node_a();
  data->seq = 3;
  data->payload = make_payload("k9", "nested");
  rig.a_side().send(rig.node_a(), rig.node_b(), data);
  rig.pump();

  ASSERT_EQ(b.received.size(), 1u);
  auto got = net::message_cast<gcs::DataMsg>(b.received[0].second);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->group, gcs::GroupId{17});
  EXPECT_EQ(got->seq, 3u);
  auto nested = net::message_cast<replication::KvPut>(got->payload);
  ASSERT_TRUE(nested);
  EXPECT_EQ(nested->value, "nested");
}

TEST(UdpTransportTest, ForeignFramesNeverReachAGcsMember) {
  // Node 2 runs a gcs endpoint with a joined member; node 1 fires frames at
  // it that decode (or almost decode) but belong to no gcs member.
  replication::register_wire_codecs();
  auto exec = runtime::make_executor(runtime::Kind::kRealTime, 7);
  net::UdpConfig ca;
  ca.local_id = net::NodeId{1};
  net::UdpConfig cb;
  cb.local_id = net::NodeId{2};
  net::UdpTransport ta(*exec, ca);
  net::UdpTransport tb(*exec, cb);
  ta.add_peer({net::NodeId{2}, "127.0.0.1", tb.local_port()});
  Recorder a;
  const net::NodeId from = ta.attach(a);

  gcs::Directory directory;
  gcs::Endpoint endpoint(*exec, tb, directory);
  gcs::Member& member = endpoint.member(gcs::GroupId{1});
  int delivered = 0;
  member.set_on_deliver([&](net::NodeId, const net::MessagePtr&) { ++delivered; });
  member.join();
  exec->run_until(exec->now() + std::chrono::milliseconds(150));
  ASSERT_TRUE(member.joined());

  // A well-formed object frame: it decodes, and the endpoint drops it.
  ta.send(from, net::NodeId{2}, make_payload("k", "v"));
  // A gcs data frame naming group 0: the group id's decoder rejects it.
  auto data = std::make_shared<gcs::DataMsg>();
  data->is_mcast = false;
  data->sender = from;
  data->seq = 1;
  data->payload = make_payload("k", "v");
  ta.send(from, net::NodeId{2}, data);
  exec->run_until(exec->now() + std::chrono::milliseconds(150));

  EXPECT_EQ(tb.stats().messages_delivered, 1u);  // the object frame
  EXPECT_EQ(tb.stats().decode_errors, 1u);       // the group-0 frame
  EXPECT_EQ(delivered, 0);
  EXPECT_FALSE(endpoint.crashed());
  EXPECT_TRUE(member.joined());
}

}  // namespace
}  // namespace aqueduct
