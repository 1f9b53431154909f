// Group-communication substrate: reliable FIFO multicast, views, p2p.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gcs/endpoint.hpp"
#include "gcs/stability.hpp"
#include "net/chaos.hpp"
#include "net/loopback.hpp"
#include "sim/random.hpp"
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

std::string text_of(const net::MessagePtr& msg) {
  auto t = net::message_cast<TextMsg>(msg);
  return t ? t->text : "?";
}

constexpr GroupId kGroup{42};

/// N processes in one group over a jittery network.
struct Fixture {
  explicit Fixture(std::size_t n, std::uint64_t seed = 1,
                   sim::Duration jitter = milliseconds(2), Config config = {})
      : sim(seed),
        network(net::make_loopback_transport(
            sim, std::make_unique<sim::NormalDuration>(milliseconds(2), jitter))) {
    for (std::size_t i = 0; i < n; ++i) {
      endpoints.push_back(std::make_unique<Endpoint>(sim, network, directory, config));
      auto& member = endpoints[i]->member(kGroup);
      member.set_on_deliver([this, i](net::NodeId from, const net::MessagePtr& msg) {
        delivered[i].emplace_back(from, text_of(msg));
      });
      member.set_on_view([this, i](const View& v) { views[i].push_back(v); });
    }
  }

  /// Joins all members, staggered, and settles.
  void join_all() {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      sim.after(milliseconds(5), [this, i] { endpoints[i]->member(kGroup).join(); });
      sim.run_for(milliseconds(50));
    }
    settle();
  }

  void settle(sim::Duration d = seconds(2)) { sim.run_for(d); }

  Member& member(std::size_t i) { return endpoints[i]->member(kGroup); }

  /// Messages (as text) member i delivered from `from`, in order.
  std::vector<std::string> from_sender(std::size_t i, net::NodeId from) const {
    std::vector<std::string> out;
    auto it = delivered.find(i);
    if (it == delivered.end()) return out;
    for (const auto& [sender, msg] : it->second) {
      if (sender == from) out.push_back(msg);
    }
    return out;
  }

  sim::Simulator sim;
  net::ChaosTransport network;
  Directory directory;
  std::vector<std::unique_ptr<Endpoint>> endpoints;
  std::map<std::size_t, std::vector<std::pair<net::NodeId, std::string>>> delivered;
  std::map<std::size_t, std::vector<View>> views;
};

TEST(GcsJoin, FirstJoinerBootstrapsSingleton) {
  Fixture f(1);
  f.member(0).join();
  f.settle(milliseconds(10));
  EXPECT_TRUE(f.member(0).joined());
  EXPECT_EQ(f.member(0).view().size(), 1u);
  EXPECT_TRUE(f.member(0).is_leader());
  ASSERT_EQ(f.views[0].size(), 1u);
  EXPECT_EQ(f.views[0][0].id, 1u);
}

TEST(GcsJoin, AllMembersConvergeToOneView) {
  Fixture f(5);
  f.join_all();
  const View& reference = f.member(0).view();
  EXPECT_EQ(reference.size(), 5u);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(f.member(i).view().id, reference.id) << "member " << i;
    EXPECT_EQ(f.member(i).view().members, reference.members);
  }
}

TEST(GcsJoin, LeaderIsFirstJoiner) {
  Fixture f(3);
  f.join_all();
  EXPECT_TRUE(f.member(0).is_leader());
  EXPECT_FALSE(f.member(1).is_leader());
  EXPECT_EQ(f.member(1).view().leader(), f.member(0).self());
}

TEST(GcsJoin, DoubleJoinRejected) {
  Fixture f(1);
  f.member(0).join();
  f.settle(milliseconds(10));
  EXPECT_THROW(f.member(0).join(), InvariantViolation);
}

TEST(GcsMulticast, ReachesEveryMemberIncludingSelf) {
  Fixture f(4);
  f.join_all();
  f.member(1).multicast(text("hello"));
  f.settle();
  for (std::size_t i = 0; i < 4; ++i) {
    const auto msgs = f.from_sender(i, f.member(1).self());
    ASSERT_EQ(msgs.size(), 1u) << "member " << i;
    EXPECT_EQ(msgs[0], "hello");
  }
}

TEST(GcsMulticast, FifoPerSenderDespiteJitter) {
  Fixture f(3, /*seed=*/9, /*jitter=*/milliseconds(3));
  f.join_all();
  for (int i = 0; i < 50; ++i) {
    f.member(0).multicast(text("a" + std::to_string(i)));
    f.member(1).multicast(text("b" + std::to_string(i)));
  }
  f.settle();
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::size_t sender = 0; sender < 2; ++sender) {
      const auto msgs = f.from_sender(m, f.member(sender).self());
      ASSERT_EQ(msgs.size(), 50u);
      const char prefix = sender == 0 ? 'a' : 'b';
      for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(msgs[i], prefix + std::to_string(i));
      }
    }
  }
}

TEST(GcsMulticast, ReliableUnderMessageLoss) {
  Fixture f(3, /*seed=*/5);
  f.join_all();
  f.network.set_loss_probability(0.2);
  for (int i = 0; i < 30; ++i) f.member(0).multicast(text("m" + std::to_string(i)));
  f.settle(seconds(10));  // NACK/heartbeat repair needs a few rounds
  for (std::size_t m = 0; m < 3; ++m) {
    const auto msgs = f.from_sender(m, f.member(0).self());
    ASSERT_EQ(msgs.size(), 30u) << "member " << m;
    for (int i = 0; i < 30; ++i) EXPECT_EQ(msgs[i], "m" + std::to_string(i));
  }
  EXPECT_GT(f.member(0).stats().retransmissions +
                f.member(1).stats().nacks_sent +
                f.member(2).stats().nacks_sent,
            0u);
}

TEST(GcsMulticast, NoDuplicatesUnderRetransmission) {
  Fixture f(3, 11);
  f.join_all();
  f.network.set_loss_probability(0.3);
  for (int i = 0; i < 20; ++i) f.member(0).multicast(text("x" + std::to_string(i)));
  f.settle(seconds(10));
  f.network.set_loss_probability(0.0);
  f.settle(seconds(5));
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(f.from_sender(m, f.member(0).self()).size(), 20u);
  }
}

TEST(GcsP2p, DeliveredOnlyToDestination) {
  Fixture f(3);
  f.join_all();
  f.member(0).send_to(f.member(2).self(), text("secret"));
  f.settle();
  EXPECT_TRUE(f.from_sender(1, f.member(0).self()).empty());
  const auto msgs = f.from_sender(2, f.member(0).self());
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0], "secret");
}

TEST(GcsP2p, FifoPerChannel) {
  Fixture f(2, 13, milliseconds(3));
  f.join_all();
  for (int i = 0; i < 40; ++i) {
    f.member(0).send_to(f.member(1).self(), text("p" + std::to_string(i)));
  }
  f.settle();
  const auto msgs = f.from_sender(1, f.member(0).self());
  ASSERT_EQ(msgs.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(msgs[i], "p" + std::to_string(i));
}

TEST(GcsP2p, ReliableUnderLoss) {
  Fixture f(2, 17);
  f.join_all();
  f.network.set_loss_probability(0.25);
  for (int i = 0; i < 25; ++i) {
    f.member(0).send_to(f.member(1).self(), text("q" + std::to_string(i)));
  }
  f.settle(seconds(10));
  EXPECT_EQ(f.from_sender(1, f.member(0).self()).size(), 25u);
}

TEST(GcsP2p, SendToSelfDelivers) {
  Fixture f(2);
  f.join_all();
  f.member(0).send_to(f.member(0).self(), text("me"));
  f.settle(milliseconds(100));
  const auto msgs = f.from_sender(0, f.member(0).self());
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0], "me");
}

TEST(GcsP2p, SendToSet) {
  Fixture f(4);
  f.join_all();
  f.member(0).send_to_set({f.member(1).self(), f.member(3).self()}, text("s"));
  f.settle();
  EXPECT_EQ(f.from_sender(1, f.member(0).self()).size(), 1u);
  EXPECT_TRUE(f.from_sender(2, f.member(0).self()).empty());
  EXPECT_EQ(f.from_sender(3, f.member(0).self()).size(), 1u);
}

TEST(GcsStability, SentBuffersGarbageCollected) {
  Fixture f(3);
  f.join_all();
  for (int i = 0; i < 100; ++i) f.member(0).multicast(text("g" + std::to_string(i)));
  // Several heartbeat rounds: acks propagate, stability prunes buffers.
  f.settle(seconds(5));
  EXPECT_EQ(f.member(0).stats().mcasts_sent, 100u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.member(i).buffer_sizes().retained, 0u) << "member " << i;
    EXPECT_EQ(f.member(i).buffer_sizes().sent, 0u) << "member " << i;
  }
  // All members delivered everything; further multicasts still work.
  f.member(0).multicast(text("after-gc"));
  f.settle();
  EXPECT_EQ(f.from_sender(2, f.member(0).self()).back(), "after-gc");
}

void expect_no_unstable_copies(Fixture& f, std::size_t members) {
  for (std::size_t i = 0; i < members; ++i) {
    EXPECT_EQ(f.member(i).buffer_sizes().retained, 0u) << "member " << i;
    EXPECT_EQ(f.member(i).buffer_sizes().sent, 0u) << "member " << i;
  }
}

TEST(GcsStability, CopiesFreedOnlyAfterTheLastViewMemberAcks) {
  Fixture f(3);
  f.join_all();
  // Member 2 keeps delivering, but its heartbeats (its acks) are lost for
  // less than the suspect timeout.
  const net::NodeId lagging = f.member(2).self();
  f.network.set_outbound_loss(lagging, 1.0);
  for (int i = 0; i < 5; ++i) f.member(0).multicast(text("u" + std::to_string(i)));
  f.settle(milliseconds(900));
  EXPECT_EQ(f.from_sender(2, f.member(0).self()).size(), 5u);
  EXPECT_EQ(f.member(0).buffer_sizes().sent, 5u);
  EXPECT_EQ(f.member(1).buffer_sizes().retained, 5u);

  f.network.set_outbound_loss(lagging, 0.0);
  f.settle(milliseconds(600));
  EXPECT_EQ(f.member(0).view().size(), 3u) << "nobody may have been suspected";
  expect_no_unstable_copies(f, 3);
}

TEST(GcsStability, MemberWithoutAHeartbeatRowPinsStabilityAtZero) {
  Fixture f(4);
  for (std::size_t i = 0; i < 3; ++i) {
    f.member(i).join();
    f.settle(milliseconds(50));
  }
  f.settle();
  // The joiner's heartbeats never reach member 1, so member 1 holds no ack
  // row for it at all — while members 0 and 2 do.
  const net::NodeId joiner = f.endpoints[3]->id();
  f.network.set_link_loss(joiner, f.member(1).self(), 1.0);
  f.member(3).join();
  f.settle(milliseconds(100));
  ASSERT_EQ(f.member(1).view().size(), 4u);

  for (int i = 0; i < 4; ++i) f.member(1).multicast(text("p" + std::to_string(i)));
  for (int i = 0; i < 2; ++i) f.member(0).multicast(text("q" + std::to_string(i)));
  f.settle(milliseconds(700));
  EXPECT_EQ(f.from_sender(3, f.member(1).self()).size(), 4u);
  EXPECT_EQ(f.member(1).buffer_sizes().sent, 4u);
  EXPECT_EQ(f.member(1).buffer_sizes().retained, 6u);
  EXPECT_EQ(f.member(0).buffer_sizes().sent, 0u);

  f.network.clear_link_loss(joiner, f.member(1).self());
  f.settle(milliseconds(600));
  EXPECT_EQ(f.member(1).view().size(), 4u) << "nobody may have been suspected";
  expect_no_unstable_copies(f, 4);
}

TEST(GcsStability, RemovedMemberStopsPinningStabilityAfterTheViewChange) {
  Fixture f(4);
  f.join_all();
  f.endpoints[3]->crash();
  for (int i = 0; i < 3; ++i) f.member(0).multicast(text("c" + std::to_string(i)));
  f.settle(milliseconds(800));
  // Still in the view and never acking: the crashed member pins the copies.
  ASSERT_EQ(f.member(0).view().size(), 4u);
  EXPECT_EQ(f.member(0).buffer_sizes().sent, 3u);

  f.settle(seconds(3));
  ASSERT_EQ(f.member(0).view().size(), 3u);
  f.settle(seconds(1));
  expect_no_unstable_copies(f, 3);
}

TEST(GcsStability, JoinerBaselineFromTheInstallCutCountsAsItsAck) {
  Fixture f(3);
  for (std::size_t i = 0; i < 2; ++i) {
    f.member(i).join();
    f.settle(milliseconds(50));
  }
  f.settle();
  // Multicast just before a join: the copies are still unstable when the
  // new view installs, and the joiner starts at the cut without ever
  // delivering them. Only its baseline ack can make them stable.
  for (int i = 0; i < 5; ++i) f.member(0).multicast(text("j" + std::to_string(i)));
  f.member(2).join();
  f.settle(milliseconds(30));
  ASSERT_EQ(f.member(2).view().size(), 3u);
  EXPECT_EQ(f.member(0).buffer_sizes().sent, 5u);

  f.settle(seconds(1));
  EXPECT_TRUE(f.from_sender(2, f.member(0).self()).empty());
  expect_no_unstable_copies(f, 3);
}

// --- AckMatrix against a from-scratch reference -----------------------------

/// The stability rule evaluated from scratch over map rows: 0 if the view is
/// empty or a view member has no row; else the minimum over the view's rows,
/// a missing cell counting as 0.
std::uint64_t reference_stable(
    const std::map<net::NodeId, std::map<net::NodeId, std::uint64_t>>& rows,
    const std::vector<net::NodeId>& view, net::NodeId sender) {
  std::uint64_t stable = UINT64_MAX;
  for (const net::NodeId m : view) {
    auto row = rows.find(m);
    if (row == rows.end()) return 0;
    auto cell = row->second.find(sender);
    stable = std::min(stable, cell == row->second.end() ? 0 : cell->second);
  }
  return stable == UINT64_MAX ? 0 : stable;
}

TEST(GcsAckMatrix, EmptyRowsAndMissingCells) {
  AckMatrix acks;
  const net::NodeId a{1}, b{2}, c{3};
  EXPECT_EQ(acks.stable(a), 0u) << "no view yet";
  acks.set_view({a, b}, a);
  acks.set_row(a, {{a, 4}, {b, 7}});
  EXPECT_EQ(acks.stable(a), 0u) << "b has no row";
  acks.set_row(b, {{a, 3}});
  EXPECT_EQ(acks.stable(a), 3u);
  EXPECT_EQ(acks.stable(b), 0u) << "b's row has no cell for b";
  acks.set_cell(b, b, 9);
  EXPECT_EQ(acks.stable(b), 7u);
  // A row of a node outside the view is kept and counts once it joins.
  acks.set_row(c, {{a, 1}, {b, 8}});
  EXPECT_EQ(acks.stable(b), 7u);
  acks.set_view({a, b, c}, a);
  EXPECT_EQ(acks.stable(a), 1u);
  // Dropping c: its row goes with it.
  acks.set_view({a, b}, a);
  acks.set_view({a, b, c}, a);
  EXPECT_EQ(acks.stable(a), 0u) << "c's row was dropped";
}

TEST(GcsAckMatrix, MatchesReferenceUnderRandomUpdates) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    const net::NodeId self{1};
    const auto node = [&] {
      return net::NodeId{static_cast<std::uint32_t>(1 + rng.uniform_int(8))};
    };
    AckMatrix acks;
    std::map<net::NodeId, std::map<net::NodeId, std::uint64_t>> rows;
    std::vector<net::NodeId> view;
    for (int step = 0; step < 2000; ++step) {
      const double dice = rng.uniform();
      if (dice < 0.05) {
        view.clear();
        for (std::uint32_t n = 1; n <= 8; ++n) {
          if (n == 1 || rng.bernoulli(0.6)) view.push_back(net::NodeId{n});
        }
        std::erase_if(rows, [&](const auto& kv) {
          return kv.first != self &&
                 std::find(view.begin(), view.end(), kv.first) == view.end();
        });
        acks.set_view(view, self);
      } else if (dice < 0.5) {
        const net::NodeId member = node();
        std::map<net::NodeId, std::uint64_t> row;
        for (std::uint32_t n = 1; n <= 8; ++n) {
          if (rng.bernoulli(0.8)) row[net::NodeId{n}] = rng.uniform_int(6);
        }
        rows[member] = row;
        acks.set_row(member, AckMatrix::Row(row.begin(), row.end()));
      } else {
        const net::NodeId member = rng.bernoulli(0.5) ? self : node();
        const net::NodeId sender = node();
        const std::uint64_t ack = rng.uniform_int(6);
        rows[member][sender] = ack;
        acks.set_cell(member, sender, ack);
      }
      for (std::uint32_t n = 1; n <= 9; ++n) {
        ASSERT_EQ(acks.stable(net::NodeId{n}),
                  reference_stable(rows, view, net::NodeId{n}))
            << "step " << step << " sender " << n;
      }
    }
  }
}

TEST(GcsLeave, GracefulLeaveShrinksView) {
  Fixture f(3);
  f.join_all();
  f.member(2).leave();
  f.settle(seconds(3));
  EXPECT_EQ(f.member(0).view().size(), 2u);
  EXPECT_FALSE(f.member(0).view().contains(f.member(2).self()));
  EXPECT_FALSE(f.member(2).joined());
}

TEST(GcsLeave, LeaderLeavingHandsOver) {
  Fixture f(3);
  f.join_all();
  f.member(0).leave();
  f.settle(seconds(3));
  EXPECT_EQ(f.member(1).view().size(), 2u);
  EXPECT_TRUE(f.member(1).is_leader());
}

TEST(GcsViews, ViewIdsMonotonic) {
  Fixture f(4);
  f.join_all();
  for (const auto& [i, vs] : f.views) {
    for (std::size_t k = 1; k < vs.size(); ++k) {
      EXPECT_GT(vs[k].id, vs[k - 1].id) << "member " << i;
    }
  }
}

TEST(GcsViews, RankAndContains) {
  Fixture f(3);
  f.join_all();
  const View& v = f.member(0).view();
  EXPECT_EQ(v.rank_of(v.members[0]), 0u);
  EXPECT_EQ(v.rank_of(v.members[2]), 2u);
  EXPECT_TRUE(v.contains(v.members[1]));
  EXPECT_FALSE(v.contains(net::NodeId{999}));
}

TEST(GcsViews, SendBeforeJoinBuffersUntilInstalled) {
  Fixture f(2);
  f.member(0).join();
  f.settle(milliseconds(50));
  // Member 1 requested a join and immediately multicasts; the message must
  // go out once its first view is installed.
  f.member(1).join();
  f.member(1).multicast(text("early"));
  f.settle(seconds(3));
  const auto msgs = f.from_sender(0, f.member(1).self());
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0], "early");
}

TEST(GcsDirectory, ClaimThenLookup) {
  Directory dir;
  EXPECT_FALSE(dir.lookup(GroupId{1}).has_value());
  EXPECT_FALSE(dir.claim_or_get(GroupId{1}, net::NodeId{5}).has_value());
  auto coordinator = dir.claim_or_get(GroupId{1}, net::NodeId{6});
  ASSERT_TRUE(coordinator.has_value());
  EXPECT_EQ(*coordinator, net::NodeId{5});
  dir.update(GroupId{1}, net::NodeId{7});
  EXPECT_EQ(*dir.lookup(GroupId{1}), net::NodeId{7});
}

TEST(GcsGroups, IndependentGroupsDoNotInterfere) {
  sim::Simulator sim(1);
  net::LoopbackTransport network(sim, std::make_unique<sim::FixedDuration>(milliseconds(1)));
  Directory directory;
  Endpoint a(sim, network, directory), b(sim, network, directory);
  std::vector<std::string> got_g1, got_g2;
  const GroupId g1{1}, g2{2};
  a.member(g1).set_on_deliver([&](net::NodeId, const net::MessagePtr& m) {
    got_g1.push_back(text_of(m));
  });
  a.member(g2).set_on_deliver([&](net::NodeId, const net::MessagePtr& m) {
    got_g2.push_back(text_of(m));
  });
  a.member(g1).join();
  a.member(g2).join();
  sim.run_for(milliseconds(100));
  b.member(g1).join();
  b.member(g2).join();
  sim.run_for(seconds(2));
  b.member(g1).multicast(text("one"));
  b.member(g2).multicast(text("two"));
  sim.run_for(seconds(1));
  ASSERT_EQ(got_g1.size(), 1u);
  ASSERT_EQ(got_g2.size(), 1u);
  EXPECT_EQ(got_g1[0], "one");
  EXPECT_EQ(got_g2[0], "two");
}

// Property sweep: FIFO + completeness for random member counts and loss.
class GcsReliabilityProperty
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {};

TEST_P(GcsReliabilityProperty, AllDeliverAllInOrder) {
  const auto [members, loss, seed] = GetParam();
  Fixture f(members, seed);
  f.join_all();
  f.network.set_loss_probability(loss);
  const int per_sender = 15;
  for (int i = 0; i < per_sender; ++i) {
    for (int s = 0; s < members; ++s) {
      f.member(s).multicast(text(std::to_string(s) + ":" + std::to_string(i)));
    }
  }
  f.network.set_loss_probability(loss);
  f.settle(seconds(15));
  for (int m = 0; m < members; ++m) {
    for (int s = 0; s < members; ++s) {
      const auto msgs = f.from_sender(m, f.member(s).self());
      ASSERT_EQ(msgs.size(), static_cast<std::size_t>(per_sender))
          << "member " << m << " from sender " << s;
      for (int i = 0; i < per_sender; ++i) {
        EXPECT_EQ(msgs[i], std::to_string(s) + ":" + std::to_string(i));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GcsReliabilityProperty,
    ::testing::Values(std::tuple{2, 0.0, 1ull}, std::tuple{3, 0.1, 2ull},
                      std::tuple{4, 0.0, 3ull}, std::tuple{4, 0.2, 4ull},
                      std::tuple{6, 0.05, 5ull}, std::tuple{8, 0.0, 6ull}));

}  // namespace
}  // namespace aqueduct::gcs
