// Behavioural effects of the GCS tunables, plus mixed membership events.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "gcs/endpoint.hpp"
#include "net/chaos.hpp"
#include "sim/simulator.hpp"

namespace aqueduct::gcs {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

struct TextMsg final : net::Message {
  explicit TextMsg(std::string t) : text(std::move(t)) {}
  std::string text;
  std::string type_name() const override { return "test.text"; }
};

constexpr GroupId kGroup{3};

struct Fixture {
  explicit Fixture(std::size_t n, Config config, std::uint64_t seed = 1)
      : sim(seed),
        network(net::make_loopback_transport(
            sim, std::make_unique<sim::NormalDuration>(
                     milliseconds(1), std::chrono::microseconds(300)))) {
    for (std::size_t i = 0; i < n; ++i) {
      endpoints.push_back(
          std::make_unique<Endpoint>(sim, network, directory, config));
    }
  }

  void join_all() {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      sim.after(milliseconds(5), [this, i] { endpoints[i]->member(kGroup).join(); });
      sim.run_for(milliseconds(50));
    }
    sim.run_for(seconds(2));
  }

  sim::Simulator sim;
  net::ChaosTransport network;
  Directory directory;
  std::vector<std::unique_ptr<Endpoint>> endpoints;
};

TEST(GcsConfig, ShorterSuspectTimeoutDetectsFaster) {
  auto detection_time = [](sim::Duration suspect_timeout) {
    Config config;
    config.suspect_timeout = suspect_timeout;
    Fixture f(3, config);
    f.join_all();
    const sim::TimePoint crash_at = f.sim.now();
    f.endpoints[2]->crash();
    // Run until the survivors install a 2-member view.
    while (f.endpoints[0]->member(kGroup).view().size() != 2 &&
           f.sim.now() < crash_at + seconds(60)) {
      f.sim.run_for(milliseconds(100));
    }
    return f.sim.now() - crash_at;
  };
  const auto fast = detection_time(milliseconds(600));
  const auto slow = detection_time(milliseconds(3000));
  EXPECT_LT(fast, slow);
  EXPECT_LT(fast, seconds(2));
}

TEST(GcsConfig, LongHeartbeatPeriodStillRepairsLoss) {
  Config config;
  config.heartbeat_period = milliseconds(800);
  config.suspect_timeout = seconds(5);
  Fixture f(3, config, 7);
  f.join_all();
  std::vector<std::string> got;
  f.endpoints[1]->member(kGroup).set_on_deliver(
      [&](net::NodeId, const net::MessagePtr& msg) {
        if (auto t = net::message_cast<TextMsg>(msg)) got.push_back(t->text);
      });
  f.network.set_loss_probability(0.3);
  for (int i = 0; i < 15; ++i) {
    f.endpoints[0]->member(kGroup).multicast(
        std::make_shared<TextMsg>(std::to_string(i)));
  }
  f.sim.run_for(seconds(20));  // slower ack/announce cadence needs longer
  ASSERT_EQ(got.size(), 15u);
  for (int i = 0; i < 15; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
}

TEST(GcsConfig, JoinWhileMemberCrashesResolvesBoth) {
  Config config;
  Fixture f(4, config, 3);
  // Join only the first three.
  for (std::size_t i = 0; i < 3; ++i) {
    f.sim.after(milliseconds(5), [&, i] { f.endpoints[i]->member(kGroup).join(); });
    f.sim.run_for(milliseconds(50));
  }
  f.sim.run_for(seconds(2));
  // A member crashes and a new process joins at nearly the same time.
  f.endpoints[2]->crash();
  f.sim.after(milliseconds(200), [&] { f.endpoints[3]->member(kGroup).join(); });
  f.sim.run_for(seconds(8));
  const View& v = f.endpoints[0]->member(kGroup).view();
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(v.contains(f.endpoints[3]->id()));
  EXPECT_FALSE(v.contains(f.endpoints[2]->id()));
  EXPECT_EQ(f.endpoints[1]->member(kGroup).view().id, v.id);
  EXPECT_EQ(f.endpoints[3]->member(kGroup).view().id, v.id);
}

TEST(GcsConfig, RejoinAfterLeaveGetsFreshMembership) {
  Config config;
  Fixture f(3, config);
  f.join_all();
  f.endpoints[2]->member(kGroup).leave();
  f.sim.run_for(seconds(3));
  EXPECT_EQ(f.endpoints[0]->member(kGroup).view().size(), 2u);
  // A crashed/left process cannot rejoin with the same endpoint (a
  // recovered process is a new process) — model that with a new endpoint.
  auto reborn = std::make_unique<Endpoint>(f.sim, f.network, f.directory, config);
  reborn->member(kGroup).join();
  f.sim.run_for(seconds(3));
  EXPECT_EQ(f.endpoints[0]->member(kGroup).view().size(), 3u);
  EXPECT_TRUE(f.endpoints[0]->member(kGroup).view().contains(reborn->id()));
}

TEST(GcsConfig, StatsExposeProtocolActivity) {
  Config config;
  Fixture f(2, config, 5);
  f.join_all();
  for (int i = 0; i < 10; ++i) {
    f.endpoints[0]->member(kGroup).multicast(std::make_shared<TextMsg>("x"));
  }
  f.sim.run_for(seconds(2));
  const auto& sender = f.endpoints[0]->member(kGroup).stats();
  const auto& receiver = f.endpoints[1]->member(kGroup).stats();
  EXPECT_EQ(sender.mcasts_sent, 10u);
  EXPECT_GE(sender.delivered, 10u);   // self-delivery
  EXPECT_GE(receiver.delivered, 10u);
  EXPECT_GE(sender.view_changes, 1u);
}

}  // namespace
}  // namespace aqueduct::gcs
