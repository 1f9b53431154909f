// Group-communication substrate: reliable FIFO multicast, views, p2p.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "gcs/endpoint.hpp"
#include "gcs/stability.hpp"
#include "net/chaos.hpp"
#include "net/loopback.hpp"
#include "sim/check.hpp"
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

/// Forwards everything to the wrapped backend and, while `recording`, keeps
/// every heartbeat handed to it: the heartbeats as they go on the wire.
class HeartbeatTap final : public net::Transport {
 public:
  explicit HeartbeatTap(std::unique_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  net::NodeId attach(net::Endpoint& endpoint) override {
    return inner_->attach(endpoint);
  }
  void detach(net::NodeId id) override { inner_->detach(id); }
  bool is_attached(net::NodeId id) const override { return inner_->is_attached(id); }
  void send(net::NodeId from, net::NodeId to, net::MessagePtr msg) override {
    if (recording) {
      if (auto hb = net::message_cast<HeartbeatMsg>(msg)) sent.push_back({from, to, hb});
    }
    inner_->send(from, to, std::move(msg));
  }
  net::TransportStats stats() const override { return inner_->stats(); }
  obs::Observability& observability() override { return inner_->observability(); }
  runtime::Executor& executor() override { return inner_->executor(); }

  struct Sent {
    net::NodeId from;
    net::NodeId to;
    std::shared_ptr<const HeartbeatMsg> hb;
  };
  bool recording = false;
  std::vector<Sent> sent;

 private:
  std::unique_ptr<net::Transport> inner_;
};

/// N processes in one group over a jittery network.
struct Fixture {
  explicit Fixture(std::size_t n, std::uint64_t seed = 1,
                   sim::Duration jitter = milliseconds(2), Config config = {})
      : sim(seed),
        network(std::make_unique<HeartbeatTap>(net::make_loopback_transport(
            sim, std::make_unique<sim::NormalDuration>(milliseconds(2), jitter)))) {
    for (std::size_t i = 0; i < n; ++i) {
      endpoints.push_back(std::make_unique<Endpoint>(sim, network, directory, config));
      auto& member = endpoints[i]->member(kGroup);
      member.set_on_deliver([this, i](net::NodeId from, const net::MessagePtr& msg) {
        delivered[i].emplace_back(from, text_of(msg));
      });
      member.set_on_view([this, i](const View& v) { views[i].push_back(v); });
    }
  }

  /// Joins all members, staggered, and settles. Member i joins in
  /// roles[i] (a full member when `roles` is shorter).
  void join_all(const std::vector<Role>& roles = {}) {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      const Role role = i < roles.size() ? roles[i] : Role::kMember;
      sim.after(milliseconds(5),
                [this, i, role] { endpoints[i]->member(kGroup).join(role); });
      sim.run_for(milliseconds(50));
    }
    settle();
  }

  void settle(sim::Duration d = seconds(2)) { sim.run_for(d); }

  Member& member(std::size_t i) { return endpoints[i]->member(kGroup); }

  HeartbeatTap& tap() { return static_cast<HeartbeatTap&>(network.inner()); }

  /// Drops a share `p` of everything `node` sends: link loss on every link
  /// out of it.
  void set_outbound_loss(net::NodeId node, double p) {
    for (const auto& endpoint : endpoints) network.set_link_loss(node, endpoint->id(), p);
  }

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
  // A self-send cannot be lost, so no copy waits for an ack.
  EXPECT_EQ(f.member(0).buffer_sizes().p2p, 0u);
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
  f.set_outbound_loss(lagging, 1.0);
  for (int i = 0; i < 5; ++i) f.member(0).multicast(text("u" + std::to_string(i)));
  f.settle(milliseconds(900));
  EXPECT_EQ(f.from_sender(2, f.member(0).self()).size(), 5u);
  EXPECT_EQ(f.member(0).buffer_sizes().sent, 5u);
  EXPECT_EQ(f.member(1).buffer_sizes().retained, 5u);

  f.set_outbound_loss(lagging, 0.0);
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

  f.network.heal_link(joiner, f.member(1).self());
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
  acks.set_view({a, b}, {a, b}, a);
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
  acks.set_view({a, b, c}, {a, b, c}, a);
  EXPECT_EQ(acks.stable(a), 1u);
  // Dropping c: its row goes with it.
  acks.set_view({a, b}, {a, b}, a);
  acks.set_view({a, b, c}, {a, b, c}, a);
  EXPECT_EQ(acks.stable(a), 0u) << "c's row was dropped";
}

TEST(GcsAckMatrix, OnlyCountedRowsPinStability) {
  // A listener's matrix: b and c are full members, a (self) and d are
  // listeners; d's row never counts.
  AckMatrix acks;
  const net::NodeId a{1}, b{2}, c{3}, d{4};
  acks.set_view({a, b, c}, {b, c}, a);
  acks.set_row(b, {{b, 5}, {c, 2}});
  acks.set_row(c, {{b, 4}, {c, 2}});
  acks.set_row(d, {});
  EXPECT_EQ(acks.stable(b), 0u) << "a's own row is still missing";
  acks.set_cell(a, b, 6);
  acks.set_cell(a, c, 3);
  EXPECT_EQ(acks.stable(b), 4u);
  EXPECT_EQ(acks.stable(c), 2u);
  // A full member's matrix over the same view counts d too.
  acks.set_view({a, b, c, d}, {b, c}, b);
  acks.set_row(d, {});
  acks.set_row(a, {{b, 6}, {c, 3}});
  EXPECT_EQ(acks.stable(b), 0u);
  acks.set_row(d, {{b, 9}, {c, 9}});
  EXPECT_EQ(acks.stable(b), 4u);
  EXPECT_EQ(acks.stable(c), 2u);
}

// The stability rule never depends on which senders the matrix tracks, so
// half the views track a strict subset of the counted members (a listener
// view: its full members, whose rows count, and the listeners, whose rows
// count only at a full member) and must still match the reference.
TEST(GcsAckMatrix, MatchesReferenceUnderRandomUpdates) {
  std::size_t strict_subsets = 0;
  std::size_t updates = 0;
  std::size_t unreported = 0;
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
    std::vector<net::NodeId> tracked;  // sorted, like the view
    const auto all_stable = [&] {
      std::vector<std::uint64_t> out;
      for (std::uint32_t n = 1; n <= 9; ++n) out.push_back(acks.stable(net::NodeId{n}));
      return out;
    };
    for (int step = 0; step < 2000; ++step) {
      // An update that reports no change left every sender's stable().
      const std::vector<std::uint64_t> before = all_stable();
      bool reported = true;
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
        std::vector<net::NodeId> senders = view;
        if (rng.bernoulli(0.5)) {
          std::erase_if(senders, [&](net::NodeId) { return rng.bernoulli(0.4); });
          if (senders.size() == view.size()) senders.pop_back();
          ++strict_subsets;
        }
        acks.set_view(view, senders, self);
        tracked = senders;
      } else if (dice < 0.5) {
        const net::NodeId member = node();
        std::map<net::NodeId, std::uint64_t> row;
        for (std::uint32_t n = 1; n <= 8; ++n) {
          if (rng.bernoulli(0.8)) row[net::NodeId{n}] = rng.uniform_int(6);
        }
        rows[member] = row;
        reported = acks.set_row(member, AckMatrix::Row(row.begin(), row.end()));
        ++updates;
      } else {
        const net::NodeId member = rng.bernoulli(0.5) ? self : node();
        const net::NodeId sender = node();
        const std::uint64_t ack = rng.uniform_int(6);
        rows[member][sender] = ack;
        reported = acks.set_cell(member, sender, ack);
        ++updates;
      }
      if (!reported) {
        ++unreported;
        ASSERT_EQ(all_stable(), before) << "step " << step;
      }
      for (std::uint32_t n = 1; n <= 9; ++n) {
        ASSERT_EQ(acks.stable(net::NodeId{n}),
                  reference_stable(rows, view, net::NodeId{n}))
            << "step " << step << " sender " << n;
      }
      // The announced row lists every tracked sender stable above 0.
      AckMatrix::Row announced;
      for (const net::NodeId sender : tracked) {
        const std::uint64_t ack = reference_stable(rows, view, sender);
        if (ack > 0) announced.emplace_back(sender, ack);
      }
      ASSERT_EQ(acks.stable_row(), announced) << "step " << step;
    }
  }
  EXPECT_GT(strict_subsets, 0u);
  // Both outcomes occur, so the check above is not vacuous.
  EXPECT_GT(unreported, 0u);
  EXPECT_LT(unreported, updates);
}

bool names(const net::NodeU64Pairs& pairs, net::NodeId node) {
  return net::find_node(pairs, node) != nullptr;
}

TEST(GcsHeartbeat, DepartedMemberDropsOutOfEveryField) {
  Fixture f(4);
  f.join_all();
  // Give every survivor a stream towards and from the member that departs:
  // it multicasts and sends p2p, and each survivor sends it p2p.
  const net::NodeId departing = f.member(3).self();
  f.member(3).multicast(text("m"));
  for (std::size_t i = 0; i < 3; ++i) {
    f.member(3).send_to(f.member(i).self(), text("to-survivor"));
    f.member(i).send_to(departing, text("to-departing"));
  }
  f.settle(milliseconds(600));
  f.tap().recording = true;
  f.settle(milliseconds(300));
  std::size_t naming = 0;
  for (const auto& [from, to, hb] : f.tap().sent) {
    if (from == departing) continue;
    naming += names(hb->shared->mcast_acks, departing) &&
              (to != departing || (hb->p2p_sent > 0 && hb->p2p_acked > 0));
  }
  ASSERT_GT(naming, 0u) << "before the departure every survivor names it";

  f.endpoints[3]->crash();
  f.settle(seconds(3));
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_FALSE(f.member(i).view().contains(departing)) << "member " << i;
  }
  f.tap().sent.clear();
  f.settle(seconds(1));
  ASSERT_FALSE(f.tap().sent.empty());
  for (const auto& [from, to, hb] : f.tap().sent) {
    EXPECT_NE(to, departing) << "from " << from;
    EXPECT_FALSE(names(hb->shared->mcast_acks, departing)) << "from " << from;
  }
}

TEST(GcsHeartbeat, SilentMemberHeartbeatsEmptyVectors) {
  Fixture f(3);
  f.join_all();
  // Members 0 and 1 talk p2p; member 2 joined last (its install came as a
  // raw send) and never multicasts or sends p2p.
  for (int i = 0; i < 3; ++i) f.member(0).send_to(f.member(1).self(), text("p"));
  f.settle(milliseconds(300));
  f.tap().recording = true;
  f.settle(seconds(1));
  const net::NodeId silent = f.member(2).self();
  std::size_t from_silent = 0;
  for (const auto& [from, to, hb] : f.tap().sent) {
    // Nobody multicast, so no heartbeat carries an mcast ack.
    EXPECT_TRUE(hb->shared->mcast_acks.empty()) << "from " << from;
    if (from != silent && to != silent) continue;
    // No p2p stream runs between the silent member and anyone.
    EXPECT_EQ(hb->p2p_sent, 0u) << from << " -> " << to;
    EXPECT_EQ(hb->p2p_acked, 0u) << from << " -> " << to;
    if (from != silent) continue;
    ++from_silent;
    EXPECT_EQ(hb->shared->my_mcast_seq, 0u);
  }
  EXPECT_GT(from_silent, 0u);
  EXPECT_EQ(f.member(2).stats().p2p_sent, 0u);
  EXPECT_EQ(f.member(2).stats().mcasts_sent, 0u);
}

// A section carries a multicast ack row and two p2p marks for its
// destination, so a full member's heartbeat to a listener is, by the field
// list (group, p2p_sent, p2p_acked, shared{my_mcast_seq, mcast_acks}), a
// frame whose payload is five varints and a (node, seq) pair per sender:
// every id and seq in these short runs is below 128, so
//   frame header + 5 + 2 * senders
// where `senders` counts the full members whose multicasts are in the row:
// it grows with m and not with the listeners, even when every listener has
// a p2p stream with it. The leader sends one every tick; the other full
// members only while they ask about an unacked reply.
TEST(GcsHeartbeat, FullMemberToListenerSizeDependsOnFullMembersOnly) {
  for (const auto& [full, listeners] : {std::pair{2, 1}, std::pair{2, 4}, std::pair{3, 1},
                                        std::pair{3, 3}}) {
    SCOPED_TRACE(std::to_string(full) + " full, " + std::to_string(listeners) + " listeners");
    const std::size_t n = static_cast<std::size_t>(full + listeners);
    Fixture f(n);
    std::vector<Role> roles(n, Role::kListener);
    std::fill(roles.begin(), roles.begin() + full, Role::kMember);
    f.join_all(roles);
    // Every full member multicasts; every listener exchanges p2p with each
    // full member.
    const auto exchange = [&] {
      for (std::size_t l = static_cast<std::size_t>(full); l < n; ++l) {
        for (int i = 0; i < full; ++i) {
          const auto fm = static_cast<std::size_t>(i);
          f.member(l).send_to(f.member(fm).self(), text("request"));
          f.member(fm).send_to(f.member(l).self(), text("reply"));
        }
      }
    };
    for (int i = 0; i < full; ++i) f.member(static_cast<std::size_t>(i)).multicast(text("m"));
    exchange();
    f.settle(milliseconds(600));
    f.tap().recording = true;
    exchange();
    f.settle(milliseconds(500));
    const std::size_t expected =
        net::frame_size(kWireHeartbeat, 5 + 2 * static_cast<std::size_t>(full));
    std::set<std::pair<net::NodeId, net::NodeId>> pairs;
    for (const auto& [from, to, hb] : f.tap().sent) {
      const View& view = f.member(0).view();
      if (view.is_listener(from) || !view.is_listener(to)) continue;
      pairs.emplace(from, to);
      EXPECT_EQ(hb->shared->mcast_acks.size(), static_cast<std::size_t>(full));
      EXPECT_GT(hb->p2p_acked, 0u);
      EXPECT_EQ(hb->wire_size(), expected) << from << " -> " << to;
    }
    EXPECT_EQ(pairs.size(), static_cast<std::size_t>(full * listeners));
  }
}

// The failure detector walks a neighbor list rebuilt on every install: a
// member added by a later view is monitored, and an earlier view's member,
// whose entry is gone, is never looked at again.
TEST(GcsFailureDetector, MemberAddedByALaterViewIsSuspectedWhenSilent) {
  Fixture f(4);
  for (std::size_t i = 0; i < 3; ++i) {
    f.member(i).join();
    f.settle(milliseconds(50));
  }
  f.settle();
  const net::NodeId departed = f.member(2).self();
  f.endpoints[2]->crash();
  f.settle(seconds(3));
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(f.member(i).view().size(), 2u) << "member " << i;
  }
  f.member(3).join();
  f.settle(milliseconds(500));
  ASSERT_EQ(f.member(0).view().size(), 3u);
  ASSERT_TRUE(f.member(0).view().contains(f.member(3).self()));
  const ViewId admitted = f.member(0).view().id;

  const net::NodeId silent = f.member(3).self();
  const Config config;
  const sim::TimePoint crashed_at = f.sim.now();
  f.endpoints[3]->crash();
  f.sim.run_until(crashed_at + config.suspect_timeout + config.heartbeat_period +
                  milliseconds(100));
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(f.member(i).view().contains(silent)) << "member " << i;
    EXPECT_EQ(f.member(i).view().size(), 2u) << "member " << i;
    EXPECT_EQ(f.member(i).view().id, admitted + 1) << "member " << i;
  }
  f.settle(seconds(3));
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(f.member(i).view().id, admitted + 1) << "member " << i << ": nothing left to suspect";
    EXPECT_FALSE(f.member(i).view().contains(departed)) << "member " << i;
  }
}

// The clock of a pair that stopped hearing each other runs from its last
// message: a view change in between (here a join) does not restart it.
TEST(GcsFailureDetector, AnInstallDoesNotRestartTheClockOfACutPair) {
  Fixture f(4);
  for (std::size_t i = 0; i < 3; ++i) {
    f.member(i).join();
    f.settle(milliseconds(50));
  }
  f.settle();
  const net::NodeId a = f.member(1).self(), b = f.member(2).self();
  std::optional<sim::TimePoint> removed_at;
  f.member(0).set_on_view([&](const View& v) {
    if (!removed_at && (!v.contains(a) || !v.contains(b))) removed_at = f.sim.now();
  });
  const sim::TimePoint cut = f.sim.now();
  f.network.partial_partition(a, b);
  f.settle(seconds(1));
  f.member(3).join();
  f.settle(seconds(3));
  ASSERT_TRUE(f.member(0).view().contains(f.member(3).self()));
  ASSERT_TRUE(removed_at.has_value());
  EXPECT_LT(*removed_at - cut, milliseconds(2250))
      << "removed " << std::chrono::duration<double>(*removed_at - cut).count()
      << " s after the cut";
}

// --- Listeners ----------------------------------------------------------------

constexpr Role kFull = Role::kMember;
constexpr Role kListen = Role::kListener;

TEST(GcsListener, HeartbeatsFlowOnlyAlongPairsWithAFullMember) {
  Fixture f(5);
  f.join_all({kFull, kFull, kListen, kListen, kListen});
  const std::vector<net::NodeId> listeners = {f.member(2).self(), f.member(3).self(),
                                              f.member(4).self()};
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(f.member(i).view().size(), 5u) << "member " << i;
    EXPECT_EQ(f.member(i).view().listeners, listeners) << "member " << i;
  }
  const ViewId settled = f.member(0).view().id;
  f.tap().recording = true;
  f.settle(seconds(5));
  std::set<std::pair<net::NodeId, net::NodeId>> pairs;
  for (const auto& [from, to, hb] : f.tap().sent) {
    EXPECT_FALSE(f.member(0).view().is_listener(from) &&
                 f.member(0).view().is_listener(to))
        << "listener " << from << " heartbeat listener " << to;
    pairs.emplace(from, to);
  }
  // The two full members heartbeat each other, and the leader and each
  // listener heartbeat each other: 2 + 2 * 3.
  EXPECT_EQ(pairs.size(), 8u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(f.member(i).view().id, settled)
        << "member " << i << ": a silent listener pair is not a failure";
  }
}

TEST(GcsListener, CrashedListenerLeavesTheViewAndBuffersDrain) {
  Fixture f(5);
  f.join_all({kFull, kFull, kListen, kListen, kListen});
  const net::NodeId crashed = f.member(4).self();
  f.endpoints[4]->crash();
  for (int i = 0; i < 3; ++i) {
    f.member(0).multicast(text("a" + std::to_string(i)));
    f.member(1).multicast(text("b" + std::to_string(i)));
  }
  f.settle(milliseconds(800));
  // Still in the view and never acking: the crashed listener pins the full
  // members' copies, but not the other listeners' ones.
  ASSERT_TRUE(f.member(0).view().contains(crashed));
  EXPECT_EQ(f.member(0).buffer_sizes().sent, 3u);
  EXPECT_EQ(f.member(2).buffer_sizes().retained, 0u);

  f.settle(seconds(3));
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_FALSE(f.member(i).view().contains(crashed)) << "member " << i;
    EXPECT_EQ(f.member(i).view().size(), 4u) << "member " << i;
    EXPECT_EQ(f.from_sender(i, f.member(0).self()).size(), 3u) << "member " << i;
    EXPECT_EQ(f.from_sender(i, f.member(1).self()).size(), 3u) << "member " << i;
  }
  f.settle(seconds(1));
  expect_no_unstable_copies(f, 4);
}

TEST(GcsListener, ListenerFreesCopiesOnceEveryFullMemberHasThem) {
  Fixture f(4);
  f.join_all({kFull, kFull, kListen, kListen});
  // Listener 3 keeps delivering, but its heartbeats (its acks) are lost for
  // less than the suspect timeout.
  f.set_outbound_loss(f.member(3).self(), 1.0);
  for (int i = 0; i < 4; ++i) f.member(0).multicast(text("s" + std::to_string(i)));
  f.settle(milliseconds(900));
  EXPECT_EQ(f.from_sender(3, f.member(0).self()).size(), 4u);
  EXPECT_EQ(f.member(0).buffer_sizes().sent, 4u);
  EXPECT_EQ(f.member(1).buffer_sizes().retained, 4u);
  EXPECT_EQ(f.member(2).buffer_sizes().retained, 0u) << "a listener waits for full members only";

  f.set_outbound_loss(f.member(3).self(), 0.0);
  f.settle(milliseconds(600));
  EXPECT_EQ(f.member(0).view().size(), 4u) << "nobody may have been suspected";
  expect_no_unstable_copies(f, 4);
}

TEST(GcsListener, ListenerThatBootstrapsLeadsFullMembersThroughLoss) {
  Fixture f(4, /*seed=*/7);
  f.member(0).join(kListen);
  f.settle(milliseconds(50));
  ASSERT_TRUE(f.member(0).is_leader());
  f.network.set_loss_probability(0.1);
  for (std::size_t i = 1; i < 4; ++i) {
    f.member(i).join();
    f.settle(milliseconds(50));
  }
  f.settle(seconds(5));
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(f.member(i).view().size(), 4u) << "member " << i;
    EXPECT_EQ(f.member(i).view().listeners, std::vector<net::NodeId>{f.member(0).self()});
  }
  for (std::size_t s = 1; s < 4; ++s) {
    for (int i = 0; i < 10; ++i) {
      f.member(s).multicast(text(std::to_string(s) + ":" + std::to_string(i)));
    }
  }
  f.settle(seconds(10));
  for (std::size_t m = 0; m < 4; ++m) {
    for (std::size_t s = 1; s < 4; ++s) {
      const auto msgs = f.from_sender(m, f.member(s).self());
      ASSERT_EQ(msgs.size(), 10u) << "member " << m << " sender " << s;
      for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(msgs[i], std::to_string(s) + ":" + std::to_string(i));
      }
    }
  }
  EXPECT_GT(f.member(0).stats().p2p_sent, 0u) << "the leader sent membership control";
  f.network.set_loss_probability(0.0);
  f.settle(seconds(2));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(f.member(i).buffer_sizes().p2p, 0u) << "member " << i;
  }
  expect_no_unstable_copies(f, 4);
}

TEST(GcsListener, ListenersDetectTheirListenerLeadersCrash) {
  Fixture f(3);
  f.join_all({kListen, kListen, kListen});
  ASSERT_EQ(f.member(1).view().size(), 3u);
  f.endpoints[0]->crash();
  f.settle(seconds(4));
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(f.member(i).view().size(), 2u) << "member " << i;
    EXPECT_EQ(f.member(i).view().leader(), f.member(1).self()) << "member " << i;
  }
}

TEST(GcsListener, P2pStreamBetweenListenersRecoversATrailingLoss) {
  Fixture f(3);
  f.join_all({kFull, kListen, kListen});
  const net::NodeId from = f.member(1).self(), to = f.member(2).self();
  f.network.set_link_loss(from, to, 1.0);
  for (int i = 0; i < 3; ++i) f.member(1).send_to(to, text("q" + std::to_string(i)));
  f.settle(milliseconds(50));
  f.network.heal_link(from, to);
  // Only a heartbeat from the sender announces the lost tail.
  f.settle(seconds(2));
  EXPECT_EQ(f.from_sender(2, from), (std::vector<std::string>{"q0", "q1", "q2"}));
  EXPECT_EQ(f.member(1).buffer_sizes().p2p, 0u) << "the receiver's heartbeats ack";
  EXPECT_EQ(f.member(0).view().size(), 3u);
}

TEST(GcsListener, ListenerMulticastFailsItsCheck) {
  Fixture f(2);
  f.join_all({kFull, kListen});
  EXPECT_THROW(f.member(1).multicast(text("no")), InvariantViolation);
  EXPECT_EQ(f.member(1).stats().mcasts_sent, 0u);
}

// --- Listeners heartbeat only the leader -------------------------------------

/// The heartbeats recorded from `from` to `to`.
std::vector<std::shared_ptr<const HeartbeatMsg>> sections(Fixture& f, net::NodeId from,
                                                          net::NodeId to) {
  std::vector<std::shared_ptr<const HeartbeatMsg>> out;
  for (const auto& sent : f.tap().sent) {
    if (sent.from == from && sent.to == to) out.push_back(sent.hb);
  }
  return out;
}

TEST(GcsListener, ListenerHeartbeatsOnlyTheLeader) {
  Fixture f(5);
  f.join_all({kFull, kFull, kListen, kListen, kListen});
  const View view = f.member(0).view();
  ASSERT_EQ(view.size(), 5u);
  const net::NodeId leader = view.leader();
  f.tap().recording = true;
  f.settle(seconds(3));
  std::set<net::NodeId> heard_by_leader;
  for (const auto& [from, to, hb] : f.tap().sent) {
    if (view.is_listener(from)) {
      EXPECT_EQ(to, leader) << "listener " << from << " heartbeat " << to;
      heard_by_leader.insert(from);
    }
    if (from != leader && !view.is_listener(from)) {
      EXPECT_FALSE(view.is_listener(to)) << "full member " << from << " heartbeat listener " << to;
    }
  }
  EXPECT_EQ(heard_by_leader.size(), 3u);
  EXPECT_EQ(f.member(0).view().id, view.id) << "an unmonitored pair is not a failure";
}

TEST(GcsListener, ListenerAsksANonLeaderUntilItsCopyIsAcked) {
  Fixture f(3);
  f.join_all({kFull, kFull, kListen});
  const net::NodeId replica = f.member(1).self(), listener = f.member(2).self();
  const auto expect_silence = [&] {
    f.tap().sent.clear();
    f.settle(seconds(1));
    EXPECT_TRUE(sections(f, listener, replica).empty());
    EXPECT_TRUE(sections(f, replica, listener).empty());
  };
  expect_silence();

  // Each ask announces the mark and each answer acks it; the answer asks
  // nothing back, so the exchange ends once the copy is freed.
  f.tap().sent.clear();
  f.tap().recording = true;
  f.member(2).send_to(replica, text("q0"));
  f.settle(milliseconds(1500));
  const auto asks = sections(f, listener, replica);
  const auto answers = sections(f, replica, listener);
  ASSERT_GE(asks.size(), 1u);
  EXPECT_EQ(answers.size(), asks.size()) << "one answer per ask";
  for (const auto& ask : asks) EXPECT_EQ(ask->p2p_sent, 1u);
  for (const auto& answer : answers) {
    EXPECT_EQ(answer->p2p_sent, 0u);
    EXPECT_EQ(answer->p2p_acked, 1u);
  }
  EXPECT_EQ(f.member(2).buffer_sizes().p2p, 0u);
  EXPECT_EQ(f.from_sender(1, listener), std::vector<std::string>{"q0"});
  expect_silence();

  // The first answer is lost: the copy stays unacked, so the listener asks
  // again until an answer gets through.
  f.network.set_link_loss(replica, listener, 1.0);
  f.tap().sent.clear();
  f.member(2).send_to(replica, text("q1"));
  f.settle(milliseconds(510));  // past the replica's first answer
  EXPECT_EQ(f.member(2).buffer_sizes().p2p, 1u);
  f.network.heal_link(replica, listener);
  f.settle(milliseconds(1500));
  EXPECT_GE(sections(f, listener, replica).size(), 3u);
  EXPECT_EQ(f.member(2).buffer_sizes().p2p, 0u);
  EXPECT_EQ(f.from_sender(1, listener), (std::vector<std::string>{"q0", "q1"}));
  expect_silence();
  EXPECT_EQ(f.member(0).view().size(), 3u);
}

TEST(GcsListener, TrailingReplyLossIsRepairedThroughTheAsksMark) {
  Fixture f(3);
  f.join_all({kFull, kFull, kListen});
  const net::NodeId replica = f.member(1).self(), listener = f.member(2).self();
  f.network.set_link_loss(replica, listener, 1.0);
  f.member(1).send_to(listener, text("r0"));
  f.member(1).send_to(listener, text("r1"));
  f.settle(milliseconds(50));
  f.network.heal_link(replica, listener);
  f.tap().recording = true;
  // Only the replica's asks announce the lost tail.
  f.settle(seconds(2));
  EXPECT_EQ(f.from_sender(2, replica), (std::vector<std::string>{"r0", "r1"}));
  EXPECT_GT(f.member(2).stats().nacks_sent, 0u);
  const auto asks = sections(f, replica, listener);
  ASSERT_FALSE(asks.empty());
  EXPECT_EQ(asks.front()->p2p_sent, 2u);
  EXPECT_EQ(f.member(1).buffer_sizes().p2p, 0u);
  f.tap().sent.clear();
  f.settle(seconds(1));
  EXPECT_TRUE(sections(f, replica, listener).empty());
  EXPECT_TRUE(sections(f, listener, replica).empty());
}

// A copy to a node outside the view is never asked about (no section goes
// to that node) and is freed at the next install.
TEST(GcsHeartbeat, CopyToANodeOutsideTheViewIsFreedAtTheNextInstall) {
  Fixture f(4);
  for (std::size_t i = 0; i < 2; ++i) {
    f.member(i).join();
    f.settle(milliseconds(50));
  }
  f.settle();
  const net::NodeId outsider = f.endpoints[2]->id();
  f.tap().recording = true;
  f.member(0).send_to(outsider, text("stray"));
  f.settle(seconds(2));
  EXPECT_EQ(f.member(0).buffer_sizes().p2p, 1u);
  f.member(3).join();
  f.settle(seconds(1));
  ASSERT_EQ(f.member(0).view().size(), 3u);
  EXPECT_EQ(f.member(0).buffer_sizes().p2p, 0u);
  for (const auto& sent : f.tap().sent) EXPECT_NE(sent.to, outsider) << "from " << sent.from;
}

TEST(GcsListener, FullMembersHearListenerAcksOnlyThroughTheLeader) {
  Fixture f(5);
  f.join_all({kFull, kFull, kFull, kListen, kListen});
  const View view = f.member(0).view();
  f.tap().recording = true;
  // Listener 4 keeps delivering, but its heartbeats (its acks) are lost for
  // less than the suspect timeout: a non-leader's multicasts stay pinned.
  f.set_outbound_loss(f.member(4).self(), 1.0);
  for (int i = 0; i < 4; ++i) f.member(1).multicast(text("s" + std::to_string(i)));
  f.settle(milliseconds(900));
  EXPECT_EQ(f.from_sender(4, f.member(1).self()).size(), 4u);
  EXPECT_EQ(f.member(1).buffer_sizes().sent, 4u);
  EXPECT_EQ(f.member(2).buffer_sizes().retained, 4u);
  EXPECT_EQ(f.member(0).buffer_sizes().retained, 4u);
  EXPECT_EQ(f.member(3).buffer_sizes().retained, 0u) << "a listener waits for full members only";
  f.set_outbound_loss(f.member(4).self(), 0.0);
  f.settle(milliseconds(600));
  expect_no_unstable_copies(f, 5);

  // Listener 3 misses member 2's trailing multicasts; only the leader's
  // announced row tells it they exist.
  const net::NodeId sender = f.member(2).self(), lagging = f.member(3).self();
  f.network.set_link_loss(sender, lagging, 1.0);
  for (int i = 0; i < 3; ++i) f.member(2).multicast(text("t" + std::to_string(i)));
  f.settle(milliseconds(50));
  f.network.heal_link(sender, lagging);
  f.settle(seconds(2));
  EXPECT_EQ(f.from_sender(3, sender), (std::vector<std::string>{"t0", "t1", "t2"}));
  EXPECT_GT(f.member(3).stats().nacks_sent, 0u);
  expect_no_unstable_copies(f, 5);

  for (const auto& [from, to, hb] : f.tap().sent) {
    const bool leader_pair = from == view.leader() || to == view.leader();
    EXPECT_TRUE(leader_pair || view.is_listener(from) == view.is_listener(to))
        << from << " -> " << to;
  }
  EXPECT_EQ(f.member(0).view().id, view.id) << "nobody may have been suspected";
}

TEST(GcsListener, LaggingListenerGetsTheMessageAfterTheLeaderCrashes) {
  Fixture f(4);
  f.join_all({kFull, kFull, kFull, kListen});
  const net::NodeId sender = f.member(1).self(), lagging = f.member(3).self();
  f.network.set_link_loss(sender, lagging, 1.0);
  f.member(1).multicast(text("x"));
  f.settle(milliseconds(5));
  f.network.heal_link(sender, lagging);
  // The leader crashes before it can announce the lost message.
  f.endpoints[0]->crash();
  f.settle(seconds(1));
  EXPECT_TRUE(f.from_sender(3, sender).empty()) << "only the leader announces it";
  EXPECT_EQ(f.member(1).buffer_sizes().sent, 1u) << "the sender holds it";

  f.settle(seconds(3));
  for (std::size_t i = 1; i < 4; ++i) {
    ASSERT_EQ(f.member(i).view().size(), 3u) << "member " << i;
    EXPECT_EQ(f.member(i).view().leader(), sender) << "member " << i;
    EXPECT_EQ(f.member(i).stats().flush_gaps, 0u) << "member " << i;
  }
  EXPECT_EQ(f.from_sender(3, sender), std::vector<std::string>{"x"});
  f.settle(seconds(1));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(f.member(i).buffer_sizes().retained, 0u) << "member " << i;
    EXPECT_EQ(f.member(i).buffer_sizes().sent, 0u) << "member " << i;
  }
}

// The acting coordinator does not monitor the listeners, so it learns that
// one is gone from the propose it asks about unanswered.
TEST(GcsListener, LeaderAndListenerCrashingTogetherLeaveNobodyBlocked) {
  Fixture f(5);
  f.join_all({kFull, kFull, kFull, kListen, kListen});
  ASSERT_EQ(f.member(1).view().size(), 5u);
  const net::NodeId listener = f.member(4).self();
  f.endpoints[0]->crash();
  f.endpoints[3]->crash();
  f.settle(seconds(8));
  for (const std::size_t i : {1u, 2u, 4u}) {
    ASSERT_EQ(f.member(i).view().size(), 3u) << "member " << i;
    EXPECT_EQ(f.member(i).view().leader(), f.member(1).self()) << "member " << i;
    EXPECT_EQ(f.member(i).view().listeners, std::vector<net::NodeId>{listener});
  }
  // Nobody is left blocked: new sends go out and are delivered.
  f.member(2).multicast(text("after"));
  f.member(4).send_to(f.member(2).self(), text("hello"));
  f.settle(seconds(1));
  for (const std::size_t i : {1u, 2u, 4u}) {
    EXPECT_EQ(f.from_sender(i, f.member(2).self()), std::vector<std::string>{"after"})
        << "member " << i;
  }
  EXPECT_EQ(f.from_sender(2, listener), std::vector<std::string>{"hello"});
  f.settle(seconds(1));
  for (const std::size_t i : {1u, 2u, 4u}) {
    EXPECT_EQ(f.member(i).buffer_sizes().p2p, 0u) << "member " << i;
    EXPECT_EQ(f.member(i).buffer_sizes().sent, 0u) << "member " << i;
  }
}

// A replica whose link to a client is broken is never answered, so it
// suspects the client, and the view that removes the client frees its copies.
TEST(GcsListener, UnansweredAsksEndInAViewChange) {
  Fixture f(3);
  f.join_all({kFull, kFull, kListen});
  const net::NodeId replica = f.member(1).self(), listener = f.member(2).self();
  const ViewId settled = f.member(0).view().id;
  f.network.set_link_loss(replica, listener, 1.0);
  for (int i = 0; i < 3; ++i) f.member(1).send_to(listener, text("r" + std::to_string(i)));
  f.settle(seconds(1));
  EXPECT_EQ(f.member(1).buffer_sizes().p2p, 3u);
  EXPECT_EQ(f.member(0).view().id, settled) << "asked for less than the suspect timeout";

  f.settle(seconds(3));
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(f.member(i).view().size(), 2u) << "member " << i;
    EXPECT_FALSE(f.member(i).view().contains(listener)) << "member " << i;
  }
  EXPECT_EQ(f.member(1).buffer_sizes().p2p, 0u) << "the install frees the copies";
  EXPECT_EQ(f.member(0).buffer_sizes().p2p, 0u);
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

// --- Control messages travel only inside the reliable p2p stream ------------

// A suspect notice sent raw, by a process outside the group, names a live
// member; the coordinator must not act on it.
TEST(GcsControl, UnwrappedSuspectIsDropped) {
  Fixture f(3);
  f.join_all();
  const ViewId settled = f.member(0).view().id;
  Endpoint outsider(f.sim, f.network, f.directory);
  auto msg = std::make_shared<SuspectMsg>();
  msg->group = kGroup;
  msg->suspect = f.member(2).self();
  f.network.send(outsider.id(), f.member(0).self(), msg);
  f.settle(seconds(3));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.member(i).view().id, settled) << "member " << i;
    EXPECT_EQ(f.member(i).view().size(), 3u) << "member " << i;
  }
  EXPECT_TRUE(f.member(2).joined());
}

// A raw propose with a huge proposal number would make its receiver ignore
// every real propose below it, so no later view change could complete.
TEST(GcsControl, UnwrappedProposeIsDropped) {
  Fixture f(3);
  f.join_all();
  Endpoint outsider(f.sim, f.network, f.directory);
  auto msg = std::make_shared<ProposeMsg>();
  msg->group = kGroup;
  msg->proposal = std::uint64_t{1} << 40;
  f.network.send(outsider.id(), f.member(1).self(), msg);
  f.settle(milliseconds(100));
  f.member(2).leave();
  f.settle(seconds(10));
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(f.member(i).view().size(), 2u) << "member " << i;
    EXPECT_FALSE(f.member(i).view().contains(f.member(2).self())) << "member " << i;
  }
  EXPECT_FALSE(f.member(2).joined());
}

// A raw install from a process outside the view would split the membership:
// its receiver would move to a view the others never agreed to.
TEST(GcsControl, UnwrappedInstallFromANonMemberIsDropped) {
  Fixture f(3);
  f.join_all();
  const ViewId settled = f.member(0).view().id;
  Endpoint outsider(f.sim, f.network, f.directory);
  auto msg = std::make_shared<InstallMsg>();
  msg->group = kGroup;
  msg->view.group = kGroup;
  msg->view.id = 1000;
  msg->view.members = {f.member(0).self(), f.member(1).self()};
  f.network.send(outsider.id(), f.member(0).self(), msg);
  f.settle(seconds(3));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.member(i).view().id, settled) << "member " << i;
    EXPECT_EQ(f.member(i).view().size(), 3u) << "member " << i;
  }
}

/// `payload` in the first message of `sender`'s p2p stream to a member.
std::shared_ptr<DataMsg> first_p2p(net::NodeId sender, net::MessagePtr payload) {
  auto data = std::make_shared<DataMsg>();
  data->group = kGroup;
  data->is_mcast = false;
  data->sender = sender;
  data->seq = 1;
  data->payload = std::move(payload);
  return data;
}

// Wrapping a control message in the reliable p2p stream does not make its
// sender a member: an install from outside the view is consumed unread.
TEST(GcsControl, WrappedInstallFromANonMemberIsIgnored) {
  Fixture f(3);
  f.join_all();
  const ViewId settled = f.member(0).view().id;
  Endpoint outsider(f.sim, f.network, f.directory);
  auto install = std::make_shared<InstallMsg>();
  install->group = kGroup;
  install->view.group = kGroup;
  install->view.id = 1000;
  install->view.members = {f.member(0).self(), f.member(1).self()};
  f.network.send(outsider.id(), f.member(0).self(), first_p2p(outsider.id(), install));
  f.settle(seconds(3));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.member(i).view().id, settled) << "member " << i;
    EXPECT_EQ(f.member(i).view().size(), 3u) << "member " << i;
  }
  EXPECT_TRUE(f.from_sender(0, outsider.id()).empty()) << "control never reaches the application";
}

TEST(GcsControl, WrappedSuspectFromANonMemberIsIgnored) {
  Fixture f(3);
  f.join_all();
  const ViewId settled = f.member(0).view().id;
  Endpoint outsider(f.sim, f.network, f.directory);
  auto suspect = std::make_shared<SuspectMsg>();
  suspect->group = kGroup;
  suspect->suspect = f.member(2).self();
  f.network.send(outsider.id(), f.member(0).self(), first_p2p(outsider.id(), suspect));
  f.settle(seconds(3));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.member(i).view().id, settled) << "member " << i;
    EXPECT_EQ(f.member(i).view().size(), 3u) << "member " << i;
  }
  EXPECT_TRUE(f.member(2).joined());
}

// A data message counts only from its own sender: a multicast that claims
// another member's stream would be delivered in its place, and the real
// message with that seq dropped as a duplicate.
TEST(GcsControl, DataClaimingAnotherSenderIsDropped) {
  Fixture f(3);
  f.join_all();
  const net::NodeId victim = f.member(1).self();
  Endpoint outsider(f.sim, f.network, f.directory);
  auto forged = std::make_shared<DataMsg>();
  forged->group = kGroup;
  forged->is_mcast = true;
  forged->sender = victim;
  forged->seq = 1;
  forged->payload = text("forged");
  f.network.send(outsider.id(), f.member(0).self(), forged);
  f.settle(milliseconds(100));
  f.member(1).multicast(text("real"));
  f.settle(seconds(1));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.from_sender(i, victim), std::vector<std::string>{"real"}) << "member " << i;
  }
}

// --- Best-effort sends: seq 0, outside every stream ----------------------------

/// A best-effort DataMsg (seq 0) that claims `sender`.
std::shared_ptr<DataMsg> best_effort(net::NodeId sender, net::MessagePtr payload) {
  auto data = first_p2p(sender, std::move(payload));
  data->seq = 0;
  return data;
}

/// The counters a dropped message must leave alone.
std::tuple<std::uint64_t, std::uint64_t, std::uint64_t> receive_counts(const Member& m) {
  return {m.stats().delivered, m.stats().duplicates_dropped, m.stats().nacks_sent};
}

TEST(GcsBestEffort, EveryCopyIsDeliveredOnceFromAViewMember) {
  Fixture f(3);
  f.join_all({kFull, kFull, kListen});
  const net::NodeId sender = f.member(1).self();
  f.member(1).send_best_effort({f.member(0).self(), f.member(2).self(), sender}, text("s0"));
  f.member(1).send_best_effort({f.member(2).self()}, text("s1"));
  // A duplicated copy is delivered again: nothing deduplicates seq 0.
  f.network.send(sender, f.member(2).self(), best_effort(sender, text("s1")));
  f.settle(milliseconds(100));
  EXPECT_EQ(f.from_sender(0, sender), std::vector<std::string>{"s0"});
  EXPECT_EQ(f.from_sender(2, sender), (std::vector<std::string>{"s0", "s1", "s1"}));
  EXPECT_TRUE(f.from_sender(1, sender).empty()) << "never sent to itself";
  EXPECT_EQ(f.member(2).stats().duplicates_dropped, 0u);

  // A member that is not joined sends nothing.
  Endpoint late(f.sim, f.network, f.directory);
  late.member(kGroup).send_best_effort({f.member(0).self()}, text("early"));
  f.settle(milliseconds(100));
  EXPECT_TRUE(f.from_sender(0, late.id()).empty());
}

TEST(GcsBestEffort, ForgedNonMemberAndControlCopiesAreDropped) {
  Fixture f(3);
  f.join_all();
  const ViewId settled = f.member(0).view().id;
  const net::NodeId target = f.member(0).self(), victim = f.member(1).self();
  const auto before = receive_counts(f.member(0));
  // A copy whose sender is not its transport source.
  f.network.send(f.member(2).self(), target, best_effort(victim, text("forged")));
  // A copy from a node outside the view.
  Endpoint outsider(f.sim, f.network, f.directory);
  f.network.send(outsider.id(), target, best_effort(outsider.id(), text("outsider")));
  // A gcs control message is never best-effort: a suspect notice from a
  // member must not start a view change.
  auto suspect = std::make_shared<SuspectMsg>();
  suspect->group = kGroup;
  suspect->suspect = f.member(2).self();
  f.network.send(victim, target, best_effort(victim, suspect));
  f.settle(seconds(3));
  EXPECT_TRUE(f.from_sender(0, victim).empty());
  EXPECT_TRUE(f.from_sender(0, outsider.id()).empty());
  EXPECT_EQ(receive_counts(f.member(0)), before);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.member(i).view().id, settled) << "member " << i;
    EXPECT_EQ(f.member(i).view().size(), 3u) << "member " << i;
  }
}

// The sender keeps no copy, so nothing is asked about: a non-leader full
// member and a listener exchange no heartbeat section at all.
TEST(GcsBestEffort, SenderKeepsNoCopyAndNoSectionAsks) {
  Fixture f(3);
  f.join_all({kFull, kFull, kListen});
  const net::NodeId replica = f.member(1).self(), listener = f.member(2).self();
  const std::uint64_t p2p_before = f.member(1).stats().p2p_sent;
  f.tap().recording = true;
  for (int i = 0; i < 5; ++i) {
    f.member(1).send_best_effort({listener}, text("s" + std::to_string(i)));
    f.settle(milliseconds(300));
  }
  f.settle(seconds(1));
  EXPECT_EQ(f.from_sender(2, replica).size(), 5u);
  EXPECT_EQ(f.member(1).buffer_sizes().p2p, 0u);
  EXPECT_EQ(f.member(1).buffer_sizes().sent, 0u);
  EXPECT_EQ(f.member(2).buffer_sizes().retained, 0u);
  EXPECT_EQ(f.member(1).stats().p2p_sent, p2p_before) << "no stream carried them";
  EXPECT_TRUE(sections(f, replica, listener).empty());
  EXPECT_TRUE(sections(f, listener, replica).empty());
  for (const auto& [from, to, hb] : f.tap().sent) {
    EXPECT_EQ(hb->p2p_sent, 0u) << from << " -> " << to;
  }
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

// --- One heartbeat per node pair -----------------------------------------------

/// N processes that each join the same three groups, over a tapped network.
struct SharedGroups {
  static constexpr std::array<GroupId, 3> kGroups{GroupId{7}, GroupId{8}, GroupId{9}};

  explicit SharedGroups(std::size_t n)
      : sim(1),
        tap(net::make_loopback_transport(
            sim, std::make_unique<sim::NormalDuration>(milliseconds(2), milliseconds(1)))) {
    for (std::size_t i = 0; i < n; ++i) {
      endpoints.push_back(std::make_unique<Endpoint>(sim, tap, directory));
    }
    for (const GroupId g : kGroups) {
      for (std::size_t i = 0; i < n; ++i) {
        sim.after(milliseconds(5), [this, i, g] { endpoints[i]->member(g).join(); });
        sim.run_for(milliseconds(50));
      }
    }
    sim.run_for(seconds(2));
  }

  Member& member(std::size_t i, GroupId g) { return endpoints[i]->member(g); }
  std::size_t index_of(net::NodeId node) const {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      if (endpoints[i]->id() == node) return i;
    }
    ADD_FAILURE() << "unknown node " << node;
    return 0;
  }

  /// The heartbeats sent during one heartbeat period. Every endpoint ticks
  /// exactly once in it: the ticks sit 5 ms past a 50 ms step, the window
  /// starts on one.
  std::vector<HeartbeatTap::Sent> one_tick() {
    tap.sent.clear();
    tap.recording = true;
    sim.run_for(Config{}.heartbeat_period);
    tap.recording = false;
    return tap.sent;
  }

  /// The groups of a heartbeat's sections, outer first.
  static std::vector<GroupId> groups_of(const HeartbeatMsg& hb) {
    std::vector<GroupId> out = {hb.group};
    for (const HeartbeatSection& rider : hb.riders) out.push_back(rider.group);
    return out;
  }

  sim::Simulator sim;
  HeartbeatTap tap;
  Directory directory;
  std::vector<std::unique_ptr<Endpoint>> endpoints;
};

TEST(GcsBundle, OneHeartbeatPerOrderedPairCarriesEveryGroupsSection) {
  SharedGroups f(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (const GroupId g : SharedGroups::kGroups) {
      ASSERT_EQ(f.member(i, g).view().size(), 3u) << "member " << i << " of " << g;
    }
  }
  // The p2p marks of each section, by (from, to, group).
  using Key = std::tuple<net::NodeId, net::NodeId, GroupId>;
  const auto marks_of = [](const std::vector<HeartbeatTap::Sent>& sent) {
    std::map<Key, std::pair<std::uint64_t, std::uint64_t>> marks;
    for (const auto& [from, to, hb] : sent) {
      marks[{from, to, hb->group}] = {hb->p2p_sent, hb->p2p_acked};
      for (const HeartbeatSection& rider : hb->riders) {
        marks[{from, to, rider.group}] = {rider.p2p_sent, rider.p2p_acked};
      }
    }
    return marks;
  };
  const auto before = marks_of(f.one_tick());
  // Node 0 sends node 1 one, two and three more p2p messages in the three
  // groups; it all arrives before the next tick, whose sections announce
  // node 0's marks and carry node 1's acks. Both cross in flight.
  const net::NodeId a = f.endpoints[0]->id();
  const net::NodeId b = f.endpoints[1]->id();
  for (std::size_t k = 0; k < SharedGroups::kGroups.size(); ++k) {
    for (std::size_t n = 0; n <= k; ++n) {
      f.member(0, SharedGroups::kGroups[k]).send_to(b, text("p"));
    }
  }
  const auto crossing = marks_of(f.one_tick());

  const auto sent = f.one_tick();
  const auto after = marks_of(sent);
  std::map<std::pair<net::NodeId, net::NodeId>, int> per_pair;
  std::map<net::NodeId, std::set<const HeartbeatMsg*>> messages_from;
  std::map<std::pair<net::NodeId, GroupId>, std::set<const HeartbeatShared*>> shared_of;
  for (const auto& [from, to, hb] : sent) {
    ++per_pair[{from, to}];
    messages_from[from].insert(hb.get());
    ASSERT_EQ(SharedGroups::groups_of(*hb),
              std::vector<GroupId>(SharedGroups::kGroups.begin(), SharedGroups::kGroups.end()));
    // Each section is what its member hands the tick for this destination.
    const std::size_t sender = f.index_of(from);
    const auto expect = [&](const HeartbeatSection& section) {
      shared_of[{from, section.group}].insert(section.shared.get());
      std::vector<HeartbeatRoute> routes;
      f.member(sender, section.group).heartbeat(routes);
      const auto route = std::find_if(routes.begin(), routes.end(),
                                      [&](const HeartbeatRoute& r) { return r.first == to; });
      ASSERT_NE(route, routes.end()) << section.group;
      EXPECT_EQ(*section.shared, *route->second.shared) << section.group;
      EXPECT_EQ(section.p2p_sent, route->second.p2p_sent) << section.group;
      EXPECT_EQ(section.p2p_acked, route->second.p2p_acked) << section.group;
      // Nothing is in flight and every copy is acked, so no section
      // announces a mark.
      EXPECT_EQ(section.p2p_sent, 0u) << section.group;
    };
    expect(*hb);
    for (const HeartbeatSection& rider : hb->riders) expect(rider);
  }
  EXPECT_EQ(per_pair.size(), 6u);
  for (const auto& [pair, count] : per_pair) {
    EXPECT_EQ(count, 1) << pair.first << " -> " << pair.second;
  }
  // Each destination gets its own message, and all of one member's
  // sections in a tick share one HeartbeatShared.
  for (const auto& [from, messages] : messages_from) EXPECT_EQ(messages.size(), 2u);
  EXPECT_EQ(shared_of.size(), 9u);
  for (const auto& [key, shared] : shared_of) EXPECT_EQ(shared.size(), 1u) << key.second;
  // The marks count exactly the p2p messages sent and delivered: node 0
  // announces its mark only while it holds the unacked copies, and node 1's
  // ack matches it.
  for (std::size_t k = 0; k < SharedGroups::kGroups.size(); ++k) {
    const GroupId g = SharedGroups::kGroups[k];
    EXPECT_EQ(before.at({a, b, g}).first, 0u) << g;
    EXPECT_EQ(crossing.at({b, a, g}).second, before.at({b, a, g}).second + k + 1) << g;
    EXPECT_EQ(crossing.at({a, b, g}).first, crossing.at({b, a, g}).second) << g;
    EXPECT_EQ(after.at({a, b, g}).first, 0u) << g;
    EXPECT_EQ(after.at({b, a, g}).second, crossing.at({b, a, g}).second) << g;
    EXPECT_EQ(after.at({b, a, g}).first, 0u) << g;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    for (const GroupId g : SharedGroups::kGroups) {
      EXPECT_EQ(f.member(i, g).buffer_sizes().p2p, 0u) << "member " << i << " of " << g;
    }
  }
}

TEST(GcsBundle, LeftGroupDropsOutWhileTheOtherSectionsFlow) {
  SharedGroups f(3);
  const GroupId left = SharedGroups::kGroups[1];
  const net::NodeId leaver = f.endpoints[2]->id();
  f.member(2, left).leave();
  f.sim.run_for(seconds(3));
  ASSERT_FALSE(f.member(0, left).view().contains(leaver));
  const ViewId first = f.member(0, SharedGroups::kGroups[0]).view().id;
  const ViewId last = f.member(0, SharedGroups::kGroups[2]).view().id;

  const auto sent = f.one_tick();
  EXPECT_EQ(sent.size(), 6u);
  const std::vector<GroupId> without = {SharedGroups::kGroups[0], SharedGroups::kGroups[2]};
  for (const auto& [from, to, hb] : sent) {
    if (from == leaver || to == leaver) {
      EXPECT_EQ(SharedGroups::groups_of(*hb), without) << from << " -> " << to;
    } else {
      EXPECT_EQ(SharedGroups::groups_of(*hb).size(), 3u) << from << " -> " << to;
    }
  }
  // Nobody stopped hearing the leaver in the groups it stayed in.
  f.sim.run_for(seconds(3));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.member(i, SharedGroups::kGroups[0]).view().id, first) << "member " << i;
    EXPECT_EQ(f.member(i, SharedGroups::kGroups[2]).view().id, last) << "member " << i;
  }
}

TEST(GcsBundle, CrashedNodeIsSuspectedInEverySharedGroup) {
  SharedGroups f(3);
  const net::NodeId crashed = f.endpoints[2]->id();
  const Config config;
  const sim::TimePoint crashed_at = f.sim.now();
  f.endpoints[2]->crash();
  // Not before the timeout (the last heartbeat came up to a period before
  // the crash)...
  f.sim.run_until(crashed_at + config.suspect_timeout - config.heartbeat_period -
                  milliseconds(20));
  for (const GroupId g : SharedGroups::kGroups) {
    EXPECT_TRUE(f.member(0, g).view().contains(crashed)) << g;
  }
  // ...and in every group within the timeout plus one period (plus the
  // flush's round trips).
  f.sim.run_until(crashed_at + config.suspect_timeout + config.heartbeat_period +
                  milliseconds(60));
  for (std::size_t i = 0; i < 2; ++i) {
    for (const GroupId g : SharedGroups::kGroups) {
      EXPECT_FALSE(f.member(i, g).view().contains(crashed)) << "member " << i << " of " << g;
      EXPECT_EQ(f.member(i, g).view().size(), 2u) << "member " << i << " of " << g;
    }
  }
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
