// ChaosTransport conformance suite: the gray-failure decorator contract,
// run against both backends it can wrap (loopback under a SimExecutor,
// UDP sockets under a RealTimeExecutor). The knobs behave identically
// regardless of the wrapped wire; determinism tests are loopback-only
// (real sockets introduce wall-clock nondeterminism by design).
//
// Suites are named Chaos* so the sanitizer CI jobs pick them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/chaos.hpp"
#include "net/loopback.hpp"
#include "net/transport.hpp"
#include "net/udp_transport.hpp"
#include "replication/messages.hpp"
#include "replication/objects.hpp"
#include "runtime/sim_executor.hpp"

namespace aqueduct {
namespace {

using std::chrono::milliseconds;

struct Recorder final : net::Endpoint {
  std::vector<std::pair<net::NodeId, net::MessagePtr>> received;
  void on_message(net::NodeId from, net::MessagePtr msg) override {
    received.emplace_back(from, std::move(msg));
  }
  std::vector<std::string> keys() const {
    std::vector<std::string> out;
    for (const auto& [from, msg] : received) {
      if (auto put = net::message_cast<replication::KvPut>(msg)) {
        out.push_back(put->key);
      }
    }
    return out;
  }
};

net::MessagePtr make_payload(const std::string& key) {
  auto op = std::make_shared<replication::KvPut>();
  op->key = key;
  op->value = "v";
  return op;
}

/// A two-node chaos-wrapped transport. `a_fault()` is the FaultInjection
/// surface governing the A → B direction (the sender side's transport).
class ChaosRig {
 public:
  virtual ~ChaosRig() = default;
  virtual net::Transport& a_side() = 0;
  virtual net::Transport& b_side() = 0;
  virtual net::FaultInjection& a_fault() {
    return *a_side().fault_injection();
  }
  virtual net::NodeId node_a() const = 0;
  virtual net::NodeId node_b() const = 0;
  virtual void pump() = 0;
};

class ChaosLoopbackRig final : public ChaosRig {
 public:
  ChaosLoopbackRig(Recorder& a, Recorder& b, std::uint64_t seed = 7)
      : exec_(runtime::make_executor(runtime::Kind::kSim, seed)) {
    transport_ = net::make_chaos_transport(net::make_loopback_transport(
        *exec_, std::make_unique<sim::FixedDuration>(milliseconds(1))));
    a_ = transport_->attach(a);
    b_ = transport_->attach(b);
  }

  net::Transport& a_side() override { return *transport_; }
  net::Transport& b_side() override { return *transport_; }
  net::NodeId node_a() const override { return a_; }
  net::NodeId node_b() const override { return b_; }
  void pump() override {
    exec_->run_until(exec_->now() + milliseconds(200));
  }
  runtime::Executor& exec() { return *exec_; }

 private:
  std::unique_ptr<runtime::Executor> exec_;
  std::unique_ptr<net::Transport> transport_;
  net::NodeId a_;
  net::NodeId b_;
};

class ChaosUdpRig final : public ChaosRig {
 public:
  ChaosUdpRig(Recorder& a, Recorder& b)
      : exec_(runtime::make_executor(runtime::Kind::kRealTime, 7)) {
    replication::register_wire_codecs();
    net::UdpConfig ca;
    ca.local_id = net::NodeId{1};
    net::UdpConfig cb;
    cb.local_id = net::NodeId{2};
    auto ta = std::make_unique<net::UdpTransport>(*exec_, ca);
    auto tb = std::make_unique<net::UdpTransport>(*exec_, cb);
    ta->add_peer({net::NodeId{2}, "127.0.0.1", tb->local_port()});
    tb->add_peer({net::NodeId{1}, "127.0.0.1", ta->local_port()});
    ta_ = net::make_chaos_transport(std::move(ta));
    tb_ = net::make_chaos_transport(std::move(tb));
    a_ = ta_->attach(a);
    b_ = tb_->attach(b);
  }

  net::Transport& a_side() override { return *ta_; }
  net::Transport& b_side() override { return *tb_; }
  net::NodeId node_a() const override { return a_; }
  net::NodeId node_b() const override { return b_; }
  void pump() override {
    exec_->run_until(exec_->now() + milliseconds(200));
  }

 private:
  std::unique_ptr<runtime::Executor> exec_;
  std::unique_ptr<net::Transport> ta_;
  std::unique_ptr<net::Transport> tb_;
  net::NodeId a_;
  net::NodeId b_;
};

enum class Backend { kLoopback, kUdp };

std::unique_ptr<ChaosRig> make_rig(Backend backend, Recorder& a, Recorder& b) {
  if (backend == Backend::kLoopback) {
    return std::make_unique<ChaosLoopbackRig>(a, b);
  }
  return std::make_unique<ChaosUdpRig>(a, b);
}

class ChaosConformanceTest : public ::testing::TestWithParam<Backend> {};

TEST_P(ChaosConformanceTest, WrapsBackendAndReportsGraySupport) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  net::FaultInjection* fi = rig->a_side().fault_injection();
  ASSERT_NE(fi, nullptr) << "a chaos-wrapped transport must inject faults";
  EXPECT_TRUE(rig->a_side().is_attached(rig->node_a()));
  EXPECT_TRUE(rig->b_side().is_attached(rig->node_b()));
}

TEST_P(ChaosConformanceTest, NoKnobsPassesThroughWithSenderIdentity) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  rig->a_side().send(rig->node_a(), rig->node_b(), make_payload("k1"));
  rig->pump();

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, rig->node_a());
  EXPECT_EQ(b.keys(), std::vector<std::string>{"k1"});
  const net::TransportStats ts = rig->a_side().stats();
  EXPECT_EQ(ts.messages_duplicated, 0u);
  EXPECT_EQ(ts.messages_reordered, 0u);
  EXPECT_EQ(ts.messages_delayed, 0u);
}

TEST_P(ChaosConformanceTest, CertainLossDropsAndCounts) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  rig->a_fault().set_loss_probability(1.0);
  for (int i = 0; i < 5; ++i) {
    rig->a_side().send(rig->node_a(), rig->node_b(), make_payload("k"));
  }
  rig->pump();

  EXPECT_TRUE(b.received.empty());
  const net::TransportStats ts = rig->a_side().stats();
  EXPECT_EQ(ts.messages_dropped_loss, 5u);
  EXPECT_EQ(ts.messages_sent, 5u)
      << "chaos drops still count as send attempts";
}

TEST_P(ChaosConformanceTest, LinkLossIsDirectional) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  rig->a_fault().set_link_loss(rig->node_a(), rig->node_b(), 1.0);
  rig->a_side().send(rig->node_a(), rig->node_b(), make_payload("dropped"));
  // The reverse direction is governed by B's sending transport (the same
  // object for the loopback rig) and must stay clean.
  rig->b_side().send(rig->node_b(), rig->node_a(), make_payload("returned"));
  rig->pump();

  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(a.keys(), std::vector<std::string>{"returned"});
}

TEST_P(ChaosConformanceTest, CertainDuplicationDeliversTwice) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  rig->a_fault().set_duplicate_probability(1.0);
  for (int i = 0; i < 3; ++i) {
    rig->a_side().send(rig->node_a(), rig->node_b(), make_payload("k"));
  }
  rig->pump();

  EXPECT_EQ(b.received.size(), 6u);
  EXPECT_EQ(rig->a_side().stats().messages_duplicated, 3u);
}

TEST_P(ChaosConformanceTest, PartialPartitionBlackholesOnlyThePair) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  rig->a_fault().partial_partition(rig->node_a(), rig->node_b());
  rig->a_side().send(rig->node_a(), rig->node_b(), make_payload("gone"));
  rig->pump();
  EXPECT_TRUE(b.received.empty());
  EXPECT_GE(rig->a_side().stats().messages_dropped_partition, 1u);

  rig->a_fault().heal_link(rig->node_a(), rig->node_b());
  rig->a_side().send(rig->node_a(), rig->node_b(), make_payload("back"));
  rig->pump();
  EXPECT_EQ(b.keys(), std::vector<std::string>{"back"});
}

TEST_P(ChaosConformanceTest, HealGrayResetsEveryKnob) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  net::FaultInjection& fi = rig->a_fault();
  fi.set_loss_probability(1.0);
  fi.set_link_loss(rig->node_a(), rig->node_b(), 1.0);
  fi.set_duplicate_probability(1.0);
  fi.set_reorder(1.0, milliseconds(50));
  fi.partial_partition(rig->node_a(), rig->node_b());
  fi.heal_gray();

  rig->a_side().send(rig->node_a(), rig->node_b(), make_payload("clean"));
  rig->pump();
  EXPECT_EQ(b.keys(), std::vector<std::string>{"clean"});
  EXPECT_EQ(b.received.size(), 1u) << "heal_gray must clear duplication";
}

TEST_P(ChaosConformanceTest, PartitionIsASetOfBlackholedLinks) {
  Recorder a, b;
  auto rig = make_rig(GetParam(), a, b);
  net::FaultInjection& fi = rig->a_fault();
  const net::NodeId na = rig->node_a(), nb = rig->node_b();
  // Never attached: only the partition drop counter observes a -> c.
  const net::NodeId nc{99};
  const auto send = [&](net::NodeId to, const std::string& key) {
    rig->a_side().send(na, to, make_payload(key));
  };
  const auto partition_drops = [&] {
    return rig->a_side().stats().messages_dropped_partition;
  };

  fi.partition({na}, {nb});
  fi.partition({na}, {nc});
  send(nb, "b1");
  send(nc, "c1");
  rig->pump();
  EXPECT_TRUE(b.received.empty()) << "a second partition adds to the first";
  EXPECT_EQ(partition_drops(), 2u);

  fi.heal_link(na, nb);
  send(nb, "b2");
  send(nc, "c2");
  rig->pump();
  EXPECT_EQ(b.keys(), std::vector<std::string>{"b2"});
  EXPECT_EQ(partition_drops(), 3u) << "heal_link lifts only the a <-> b pair";

  fi.heal();
  send(nc, "c3");
  rig->pump();
  EXPECT_EQ(partition_drops(), 3u) << "heal lifts the rest";
}

INSTANTIATE_TEST_SUITE_P(Backends, ChaosConformanceTest,
                         ::testing::Values(Backend::kLoopback, Backend::kUdp),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kLoopback
                                      ? "Loopback"
                                      : "Udp";
                         });

// ---------------------------------------------------------------------------
// Loopback-only: virtual-time behaviors and seeded determinism
// ---------------------------------------------------------------------------

TEST(ChaosLoopbackTest, ExtraDelayDefersDeliveryAndCounts) {
  Recorder a, b;
  ChaosLoopbackRig rig(a, b);
  rig.a_fault().set_default_delay(
      std::make_unique<sim::FixedDuration>(milliseconds(50)));
  rig.a_side().send(rig.node_a(), rig.node_b(), make_payload("late"));

  rig.exec().run_until(rig.exec().now() + milliseconds(20));
  EXPECT_TRUE(b.received.empty()) << "the extra delay must hold the message";
  rig.exec().run_until(rig.exec().now() + milliseconds(60));
  EXPECT_EQ(b.keys(), std::vector<std::string>{"late"});
  EXPECT_EQ(rig.a_side().stats().messages_delayed, 1u);
}

TEST(ChaosLoopbackTest, LinkDelayOverridesDefault) {
  Recorder a, b;
  ChaosLoopbackRig rig(a, b);
  rig.a_fault().set_default_delay(
      std::make_unique<sim::FixedDuration>(milliseconds(100)));
  rig.a_fault().set_link_delay(
      rig.node_a(), rig.node_b(),
      std::make_unique<sim::FixedDuration>(milliseconds(10)));
  rig.a_side().send(rig.node_a(), rig.node_b(), make_payload("fast"));
  rig.exec().run_until(rig.exec().now() + milliseconds(30));
  EXPECT_EQ(b.keys(), std::vector<std::string>{"fast"})
      << "the per-link distribution must shadow the default";
}

TEST(ChaosLoopbackTest, ReorderLetsLaterSendsOvertake) {
  Recorder a, b;
  ChaosLoopbackRig rig(a, b);
  rig.a_fault().set_reorder(1.0, milliseconds(80));
  for (int i = 0; i < 10; ++i) {
    rig.a_side().send(rig.node_a(), rig.node_b(),
                      make_payload("k" + std::to_string(i)));
  }
  rig.pump();

  ASSERT_EQ(b.received.size(), 10u);
  EXPECT_EQ(rig.a_side().stats().messages_reordered, 10u);
  std::vector<std::string> sent;
  for (int i = 0; i < 10; ++i) sent.push_back("k" + std::to_string(i));
  EXPECT_NE(b.keys(), sent)
      << "uniform holdbacks over an 80ms window must produce an overtake";
}

TEST(ChaosLoopbackTest, ThrottleSerializesTheLink) {
  Recorder a, b;
  ChaosLoopbackRig rig(a, b);
  rig.a_fault().set_link_throttle(rig.node_a(), rig.node_b(),
                                  milliseconds(30));
  for (int i = 0; i < 3; ++i) {
    rig.a_side().send(rig.node_a(), rig.node_b(), make_payload("k"));
  }
  // First copy goes out immediately; the rest one min_gap apart.
  rig.exec().run_until(rig.exec().now() + milliseconds(10));
  EXPECT_EQ(b.received.size(), 1u);
  rig.exec().run_until(rig.exec().now() + milliseconds(30));
  EXPECT_EQ(b.received.size(), 2u);
  rig.exec().run_until(rig.exec().now() + milliseconds(30));
  EXPECT_EQ(b.received.size(), 3u);
}

TEST(ChaosLoopbackTest, SameSeedReplaysIdenticalDecisions) {
  const auto run = [](std::uint64_t seed) {
    Recorder a, b;
    ChaosLoopbackRig rig(a, b, seed);
    rig.a_fault().set_loss_probability(0.4);
    rig.a_fault().set_duplicate_probability(0.3);
    rig.a_fault().set_reorder(0.5, milliseconds(50));
    for (int i = 0; i < 60; ++i) {
      rig.a_side().send(rig.node_a(), rig.node_b(),
                        make_payload("k" + std::to_string(i)));
    }
    rig.pump();
    return b.keys();
  };

  const std::vector<std::string> first = run(11);
  EXPECT_EQ(first, run(11)) << "same seed must replay the same drops, "
                               "duplicates, and delivery order";
  EXPECT_NE(first, run(12)) << "a different seed must explore a different "
                               "failure pattern";
}

TEST(ChaosLoopbackTest, StatsAggregateInnerAndChaosCounters) {
  Recorder a, b;
  ChaosLoopbackRig rig(a, b);
  rig.a_fault().set_duplicate_probability(1.0);
  rig.a_side().send(rig.node_a(), rig.node_b(), make_payload("k"));
  rig.pump();

  const net::TransportStats ts = rig.a_side().stats();
  EXPECT_EQ(ts.messages_sent, 2u) << "original + injected duplicate";
  EXPECT_EQ(ts.messages_delivered, 2u);
  EXPECT_EQ(ts.messages_duplicated, 1u);
  EXPECT_GT(ts.bytes_sent, 0u);
}

}  // namespace
}  // namespace aqueduct
