// Group-communication failure handling: crash detection, view changes,
// leader failover, virtual synchrony across membership changes.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
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

net::MessagePtr text(const std::string& t) { return std::make_shared<TextMsg>(t); }

constexpr GroupId kGroup{7};

struct Fixture {
  explicit Fixture(std::size_t n, std::uint64_t seed = 1)
      : sim(seed),
        network(net::make_loopback_transport(
            sim, std::make_unique<sim::NormalDuration>(milliseconds(2),
                                                       milliseconds(1)))) {
    for (std::size_t i = 0; i < n; ++i) {
      endpoints.push_back(std::make_unique<Endpoint>(sim, network, directory));
      auto& member = endpoints[i]->member(kGroup);
      member.set_on_deliver([this, i](net::NodeId from, const net::MessagePtr& msg) {
        auto t = net::message_cast<TextMsg>(msg);
        delivered[i].emplace_back(from, t ? t->text : "?");
      });
      member.set_on_view([this, i](const View& v) { views[i].push_back(v); });
    }
  }

  void join_all() {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      sim.after(milliseconds(5), [this, i] { endpoints[i]->member(kGroup).join(); });
      sim.run_for(milliseconds(50));
    }
    sim.run_for(seconds(2));
  }

  Member& member(std::size_t i) { return endpoints[i]->member(kGroup); }

  sim::Simulator sim;
  net::ChaosTransport network;
  Directory directory;
  std::vector<std::unique_ptr<Endpoint>> endpoints;
  std::map<std::size_t, std::vector<std::pair<net::NodeId, std::string>>> delivered;
  std::map<std::size_t, std::vector<View>> views;
};

TEST(GcsFailure, CrashedMemberRemovedFromView) {
  Fixture f(4);
  f.join_all();
  const net::NodeId crashed = f.member(3).self();
  f.endpoints[3]->crash();
  f.sim.run_for(seconds(6));  // suspect_timeout + flush
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.member(i).view().size(), 3u) << "member " << i;
    EXPECT_FALSE(f.member(i).view().contains(crashed));
  }
}

TEST(GcsFailure, LeaderCrashElectsNext) {
  Fixture f(4);
  f.join_all();
  ASSERT_TRUE(f.member(0).is_leader());
  f.endpoints[0]->crash();
  f.sim.run_for(seconds(6));
  EXPECT_TRUE(f.member(1).is_leader());
  EXPECT_EQ(f.member(2).view().leader(), f.member(1).self());
  EXPECT_EQ(f.member(3).view().leader(), f.member(1).self());
}

TEST(GcsFailure, SurvivorsShareTheSameViewHistoryTail) {
  Fixture f(5);
  f.join_all();
  f.endpoints[2]->crash();
  f.sim.run_for(seconds(6));
  const View last = f.member(0).view();
  for (std::size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_EQ(f.member(i).view().id, last.id);
    EXPECT_EQ(f.member(i).view().members, last.members);
  }
}

TEST(GcsFailure, MulticastContinuesAfterCrash) {
  Fixture f(4);
  f.join_all();
  f.endpoints[1]->crash();
  f.sim.run_for(seconds(6));
  f.delivered.clear();
  f.member(0).multicast(text("post-crash"));
  f.sim.run_for(seconds(2));
  for (std::size_t i : {0u, 2u, 3u}) {
    bool got = false;
    for (const auto& [from, msg] : f.delivered[i]) got |= (msg == "post-crash");
    EXPECT_TRUE(got) << "member " << i;
  }
}

TEST(GcsFailure, VirtualSynchrony_SurvivorsAgreeOnDeliveredSet) {
  // The crashed sender's in-flight multicasts must be delivered at all
  // survivors or at none (flush redistributes unstable messages).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Fixture f(4, seed);
    f.join_all();
    f.network.set_loss_probability(0.15);
    for (int i = 0; i < 10; ++i) {
      f.member(1).multicast(text("v" + std::to_string(i)));
    }
    // Crash the sender almost immediately: some messages are unstable.
    f.sim.after(milliseconds(3), [&] { f.endpoints[1]->crash(); });
    f.sim.run_for(seconds(10));
    f.network.set_loss_probability(0.0);
    f.sim.run_for(seconds(5));

    auto delivered_from = [&](std::size_t m) {
      std::set<std::string> out;
      for (const auto& [from, msg] : f.delivered[m]) {
        if (from == f.member(1).self()) out.insert(msg);
      }
      return out;
    };
    const auto set0 = delivered_from(0);
    EXPECT_EQ(set0, delivered_from(2)) << "seed " << seed;
    EXPECT_EQ(set0, delivered_from(3)) << "seed " << seed;
    // And FIFO prefix property: delivered set is a prefix {v0..vk}.
    std::size_t k = 0;
    for (; k < 10; ++k) {
      if (!set0.contains("v" + std::to_string(k))) break;
    }
    EXPECT_EQ(set0.size(), k) << "not a prefix, seed " << seed;
  }
}

TEST(GcsFailure, CoordinatorCrashDuringChurnRecovers) {
  Fixture f(5);
  f.join_all();
  // Crash a member, and the coordinator shortly after it starts the view
  // change; the next-ranked member must take over.
  f.endpoints[4]->crash();
  f.sim.run_for(milliseconds(1600));  // suspicion about to fire
  f.endpoints[0]->crash();
  f.sim.run_for(seconds(10));
  for (std::size_t i : {1u, 2u, 3u}) {
    EXPECT_EQ(f.member(i).view().size(), 3u) << "member " << i;
    EXPECT_TRUE(f.member(i).is_leader() == (i == 1));
  }
}

TEST(GcsFailure, JoinAfterCrashWorks) {
  Fixture f(4);
  f.join_all();
  f.endpoints[2]->crash();
  f.sim.run_for(seconds(6));
  // A new process joins the shrunken group.
  auto fresh = std::make_unique<Endpoint>(f.sim, f.network, f.directory);
  bool joined_view = false;
  auto& member = fresh->member(kGroup);
  member.set_on_view([&](const View& v) { joined_view = v.contains(member.self()); });
  member.join();
  f.sim.run_for(seconds(3));
  EXPECT_TRUE(joined_view);
  EXPECT_EQ(f.member(0).view().size(), 4u);
}

TEST(GcsFailure, CrashedEndpointStopsProcessing) {
  Fixture f(2);
  f.join_all();
  f.endpoints[1]->crash();
  EXPECT_TRUE(f.endpoints[1]->crashed());
  f.member(0).multicast(text("x"));
  f.sim.run_for(seconds(2));
  EXPECT_TRUE(f.delivered[1].empty() ||
              f.delivered[1].back().second != "x");
}

TEST(GcsFailure, SequentialCrashesDownToOne) {
  Fixture f(4);
  f.join_all();
  for (std::size_t i = 0; i < 3; ++i) {
    f.endpoints[i]->crash();
    f.sim.run_for(seconds(8));
  }
  EXPECT_TRUE(f.member(3).joined());
  EXPECT_EQ(f.member(3).view().size(), 1u);
  EXPECT_TRUE(f.member(3).is_leader());
}

TEST(GcsFailure, NoFlushGapsWithoutSenderCrash) {
  // flush_gaps counts messages lost despite the flush; with only receiver
  // crashes (never the sender), it must stay zero.
  Fixture f(4);
  f.join_all();
  for (int i = 0; i < 20; ++i) f.member(0).multicast(text("s" + std::to_string(i)));
  f.endpoints[3]->crash();
  f.sim.run_for(seconds(8));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.member(i).stats().flush_gaps, 0u) << "member " << i;
  }
}

// ---------------------------------------------------------------------------
// Gray-failure eviction: a *live* member the failure detector ejects (its
// links to part of the group are dead, but the coordinator can still reach
// it) must receive the excluding install and fire on_eviction, so its
// owner can reincarnate it. A full crash never triggers the callback.
// ---------------------------------------------------------------------------

struct ChaosFixture {
  explicit ChaosFixture(std::size_t n, std::uint64_t seed = 1) : sim(seed) {
    network = net::make_chaos_transport(net::make_loopback_transport(
        sim, std::make_unique<sim::NormalDuration>(milliseconds(2),
                                                   milliseconds(1))));
    for (std::size_t i = 0; i < n; ++i) {
      endpoints.push_back(std::make_unique<Endpoint>(sim, *network, directory));
      auto& member = endpoints[i]->member(kGroup);
      member.set_on_view([this, i](const View& v) { views[i].push_back(v); });
      member.set_on_eviction([this, i] { evicted.push_back(i); });
    }
  }

  void join_all() {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      sim.after(milliseconds(5), [this, i] { endpoints[i]->member(kGroup).join(); });
      sim.run_for(milliseconds(50));
    }
    sim.run_for(seconds(2));
  }

  Member& member(std::size_t i) { return endpoints[i]->member(kGroup); }

  sim::Simulator sim;
  std::unique_ptr<net::Transport> network;
  Directory directory;
  std::vector<std::unique_ptr<Endpoint>> endpoints;
  std::map<std::size_t, std::vector<View>> views;
  std::vector<std::size_t> evicted;
};

TEST(GcsFailure, PartiallyPartitionedMemberIsEvictedAndNotified) {
  ChaosFixture f(4);
  f.join_all();
  ASSERT_EQ(f.member(0).view().size(), 4u);

  // Cut only the 1 ↔ 2 pair; both stay reachable from the coordinator.
  f.network->fault_injection()->partial_partition(f.member(1).self(),
                                                  f.member(2).self());
  f.sim.run_for(seconds(8));  // suspicion + view change + install

  ASSERT_FALSE(f.evicted.empty())
      << "the ejected live member must learn of its eviction";
  for (const std::size_t i : f.evicted) {
    EXPECT_TRUE(i == 1 || i == 2) << "only the partitioned pair is suspect";
    EXPECT_FALSE(f.member(i).joined());
  }
  // Survivors agree on a view that excludes every evictee.
  for (const std::size_t i : f.evicted) {
    EXPECT_FALSE(f.member(0).view().contains(f.member(i).self()));
  }
  EXPECT_GE(f.member(0).view().size(), 2u);
}

TEST(GcsFailure, CrashedMemberNeverFiresEviction) {
  ChaosFixture f(4);
  f.join_all();
  f.endpoints[3]->crash();
  f.sim.run_for(seconds(8));
  EXPECT_TRUE(f.evicted.empty())
      << "a fail-stop crash must not look like a gray eviction";
}

TEST(GcsFailure, VoluntaryLeaveDoesNotFireEviction) {
  ChaosFixture f(4);
  f.join_all();
  f.member(3).leave();
  f.sim.run_for(seconds(4));
  EXPECT_FALSE(f.member(3).joined());
  EXPECT_TRUE(f.evicted.empty());
  EXPECT_EQ(f.member(0).view().size(), 3u);
}

}  // namespace
}  // namespace aqueduct::gcs
