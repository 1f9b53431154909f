// FIFO ordering (paper Figure 2: the framework hosts multiple ordering
// guarantees as policies of the one gateway): ReplicaServer and
// ClientHandler with ReplicaConfig::ordering = kFifo.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "client/handler.hpp"
#include "harness/testbed.hpp"
#include "replication/objects.hpp"

namespace aqueduct::replication {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

struct Fixture {
  explicit Fixture(std::size_t primaries, std::size_t secondaries,
                   std::uint64_t seed = 1,
                   sim::Duration lazy_interval = seconds(1))
      : bed(seed,
            std::make_unique<sim::NormalDuration>(
                milliseconds(1), std::chrono::microseconds(300)),
            runtime::Kind::kSim, /*chaos=*/true) {
    for (std::size_t i = 0; i < primaries + secondaries; ++i) {
      ReplicaConfig config;
      config.ordering = core::Ordering::kFifo;
      config.service_time = std::make_shared<sim::FixedDuration>(milliseconds(10));
      config.lazy_update_interval = lazy_interval;
      bed.add_replica(groups, i < primaries, std::move(config),
                      [] { return std::make_unique<SharedDocument>(); });
    }
    bed.start_replicas(milliseconds(10));
  }

  client::ClientHandler& add_client(client::ClientConfig config = {}) {
    return bed.add_client(groups, std::move(config));
  }

  void settle(sim::Duration d = seconds(2)) { sim.run_for(d); }

  harness::Testbed bed;
  runtime::Executor& sim = bed.executor();
  net::FaultInjection& network = *bed.transport().fault_injection();
  ServiceGroups groups = ServiceGroups::for_service(2);
};

/// Staleness threshold 0 asks a FIFO service for read-your-writes.
core::QoSSpec read_your_writes() {
  return {.staleness_threshold = 0,
          .deadline = seconds(2),
          .min_probability = 0.5};
}

/// Any threshold above 0 waives the FIFO session bound.
core::QoSSpec no_session_bound() {
  return {.staleness_threshold = 1,
          .deadline = seconds(2),
          .min_probability = 0.5};
}

std::vector<std::string> lines_of(const ReplicatedObject& object) {
  const auto& doc = dynamic_cast<const SharedDocument&>(object);
  return net::message_cast<DocContents>(doc.apply_read(std::make_shared<DocRead>()))
      ->lines;
}

/// The lines of `all` that start with `prefix`, in order: one client's
/// subsequence of a FIFO-ordered document.
std::vector<std::string> lines_from(const std::vector<std::string>& all,
                                    char prefix) {
  std::vector<std::string> out;
  for (const auto& line : all) {
    if (line[0] == prefix) out.push_back(line);
  }
  return out;
}

/// Selects the first candidate alone: the first primary of the role map.
class FirstCandidateSelector final : public core::ReplicaSelector {
 public:
  core::SelectionResult select(core::SelectionContext& ctx) override {
    core::SelectionResult result;
    if (!ctx.candidates.empty()) result.selected.push_back(ctx.candidates[0].id);
    return result;
  }
  std::string name() const override { return "first-candidate"; }
};

std::shared_ptr<DocAppend> append(const std::string& line) {
  auto op = std::make_shared<DocAppend>();
  op->line = line;
  return op;
}

TEST(Fifo, UpdatesAppliedOnAllPrimaries) {
  Fixture f(3, 1);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    client.update(append("p" + std::to_string(i)),
                  [&](const client::UpdateOutcome&) { ++done; });
  }
  f.settle(seconds(3));
  EXPECT_EQ(done, 5);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(f.bed.replica(i).stats().updates_committed, 5u) << "primary " << i;
    const auto& doc = dynamic_cast<const SharedDocument&>(f.bed.replica(i).object());
    EXPECT_EQ(doc.version(), 5u);
  }
}

TEST(Fifo, PerClientOrderPreserved) {
  Fixture f(2, 0);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  for (int i = 0; i < 10; ++i) client.update(append(std::to_string(i)), {});
  f.settle(seconds(3));
  // FIFO consistency: each primary applied this client's appends in issue
  // order.
  for (std::size_t r = 0; r < 2; ++r) {
    const auto& doc = dynamic_cast<const SharedDocument&>(f.bed.replica(r).object());
    const auto contents =
        net::message_cast<DocContents>(doc.apply_read(std::make_shared<DocRead>()));
    ASSERT_EQ(contents->lines.size(), 10u);
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(contents->lines[static_cast<std::size_t>(i)], std::to_string(i));
    }
  }
}

TEST(Fifo, ReadYourWritesOnPrimary) {
  Fixture f(2, 0);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  client.update(append("mine"), {});
  std::size_t lines = 0;
  client.read(std::make_shared<DocRead>(), read_your_writes(),
              [&](const client::ReadOutcome& o) {
                const auto contents = net::message_cast<DocContents>(o.result);
                lines = contents->lines.size();
              });
  f.settle(seconds(2));
  EXPECT_EQ(lines, 1u);
}

TEST(Fifo, ReadYourWritesDefersOnStaleSecondary) {
  Fixture f(1, 2, 1, /*lazy=*/seconds(1));
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  client.update(append("w"), {});
  f.sim.run_for(milliseconds(100));
  // Secondaries have not seen the lazy update yet; a read-your-writes read
  // served by one must defer (and still return the write).
  bool got = false;
  bool any_deferred = false;
  std::size_t lines = 0;
  for (int i = 0; i < 6; ++i) {
    client.read(std::make_shared<DocRead>(), read_your_writes(),
                [&](const client::ReadOutcome& o) {
                  got = true;
                  any_deferred |= o.deferred;
                  lines = net::message_cast<DocContents>(o.result)->lines.size();
                });
  }
  f.settle(seconds(5));
  EXPECT_TRUE(got);
  EXPECT_EQ(lines, 1u);
  std::uint64_t deferred = f.bed.replica(1).stats().deferred_reads +
                           f.bed.replica(2).stats().deferred_reads;
  // At least one read landed on a stale secondary and deferred (seed-
  // dependent but the selection sends to several replicas while histories
  // are empty).
  EXPECT_GT(deferred + (any_deferred ? 1 : 0), 0u);
}

TEST(Fifo, RelaxedReadServedImmediately) {
  Fixture f(1, 2, 1, /*lazy=*/std::chrono::hours(1));
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  client.update(append("w"), {});
  f.sim.run_for(milliseconds(200));
  // Without read-your-writes, even a fully stale secondary answers at
  // once (possibly with the old document).
  int replies = 0;
  client.read(std::make_shared<DocRead>(), no_session_bound(),
              [&](const client::ReadOutcome& o) {
                ++replies;
                EXPECT_FALSE(o.deferred);
              });
  f.settle(seconds(2));
  EXPECT_EQ(replies, 1);
}

TEST(Fifo, SecondariesConvergeViaLazyUpdates) {
  Fixture f(2, 2, 1, /*lazy=*/milliseconds(500));
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  for (int i = 0; i < 6; ++i) client.update(append(std::to_string(i)), {});
  f.settle(seconds(3));
  for (std::size_t r = 2; r < 4; ++r) {
    const auto& doc = dynamic_cast<const SharedDocument&>(f.bed.replica(r).object());
    EXPECT_EQ(doc.version(), 6u) << "secondary " << r;
    EXPECT_GT(f.bed.replica(r).stats().lazy_updates_installed, 0u);
    EXPECT_EQ(f.bed.replica(r).horizon_of(client.id()), 6u);  // seq of 6th update
  }
}

TEST(Fifo, TwoClientsInterleaveButKeepOwnOrder) {
  Fixture f(2, 0, 3);
  f.settle();
  auto& a = f.add_client();
  auto& b = f.add_client();
  f.settle(seconds(1));
  for (int i = 0; i < 8; ++i) {
    a.update(append("a" + std::to_string(i)), {});
    b.update(append("b" + std::to_string(i)), {});
  }
  f.settle(seconds(5));
  for (std::size_t r = 0; r < 2; ++r) {
    const auto& doc = dynamic_cast<const SharedDocument&>(f.bed.replica(r).object());
    const auto contents =
        net::message_cast<DocContents>(doc.apply_read(std::make_shared<DocRead>()));
    ASSERT_EQ(contents->lines.size(), 16u);
    // Per-client subsequences are in order.
    int next_a = 0, next_b = 0;
    for (const auto& line : contents->lines) {
      if (line[0] == 'a') {
        EXPECT_EQ(line, "a" + std::to_string(next_a++));
      } else {
        EXPECT_EQ(line, "b" + std::to_string(next_b++));
      }
    }
    EXPECT_EQ(next_a, 8);
    EXPECT_EQ(next_b, 8);
  }
}

TEST(Fifo, TimingFailureDetected) {
  Fixture f(2, 1);
  f.settle();
  auto& client = f.add_client();
  f.settle(seconds(1));
  core::QoSSpec tight{.staleness_threshold = 1,
                      .deadline = milliseconds(1),
                      .min_probability = 0.5};
  bool failed = false;
  client.read(std::make_shared<DocRead>(), tight,
              [&](const client::ReadOutcome& o) { failed = o.timing_failure; });
  f.settle(seconds(2));
  EXPECT_TRUE(failed);
  EXPECT_EQ(client.stats().timing_failures, 1u);
}

TEST(Fifo, DuplicateRequestsDeduplicated) {
  Fixture f(2, 0, 7);
  f.settle();
  f.network.set_loss_probability(0.2);
  auto& client = f.add_client();
  f.settle(seconds(2));
  // The GCS retransmits under loss; replicas must not double-apply.
  for (int i = 0; i < 10; ++i) client.update(append(std::to_string(i)), {});
  f.settle(seconds(20));
  f.network.set_loss_probability(0.0);
  f.settle(seconds(5));
  for (std::size_t r = 0; r < 2; ++r) {
    const auto& doc = dynamic_cast<const SharedDocument&>(f.bed.replica(r).object());
    EXPECT_EQ(doc.version(), 10u) << "primary " << r;
  }
}

TEST(Fifo, ReadRetriesWhenItsWholeSelectedSetCrashes) {
  Fixture f(2, 1);
  f.settle();
  client::ClientConfig config;
  config.selector = std::make_unique<FirstCandidateSelector>();
  config.retry_timeout = milliseconds(500);
  auto& client = f.add_client(std::move(config));
  f.settle(seconds(1));
  client.update(append("before"), {});
  f.settle(seconds(1));
  ASSERT_EQ(client.repository().roles().primaries.front(), f.bed.replica(0).id());

  // The read goes to replicas[0] alone, which dies before serving it: only
  // a re-selection against the new role map can complete it.
  client::ReadOutcome outcome;
  bool done = false;
  client.read(std::make_shared<DocRead>(), read_your_writes(),
              [&](const client::ReadOutcome& o) {
                outcome = o;
                done = true;
              });
  f.bed.replica(0).crash();
  f.settle(seconds(10));
  ASSERT_TRUE(done);
  ASSERT_NE(outcome.result, nullptr);
  EXPECT_EQ(outcome.responder, f.bed.replica(1).id());
  EXPECT_EQ(net::message_cast<DocContents>(outcome.result)->lines,
            std::vector<std::string>{"before"});
  EXPECT_GE(client.stats().retries, 1u);
  EXPECT_EQ(client.stats().reads_abandoned, 0u);
}

TEST(Fifo, RestartedPrimaryRejoinsThroughStateTransfer) {
  Fixture f(3, 1, 5, /*lazy=*/milliseconds(500));
  f.settle();
  auto& a = f.add_client();
  auto& b = f.add_client();
  f.settle(seconds(1));
  int next_a = 0, next_b = 0;
  auto burst = [&] {
    for (int i = 0; i < 4; ++i) {
      a.update(append("a" + std::to_string(next_a++)), {});
      b.update(append("b" + std::to_string(next_b++)), {});
    }
    f.settle(seconds(3));
  };
  burst();
  f.bed.replica(2).crash();
  f.settle(seconds(3));
  burst();  // applied by the survivors only

  // Reborn under a fresh NodeId: it joins a running service, so it must
  // pull the state it missed before applying more.
  f.bed.restart_replica(2);
  f.settle(seconds(3));
  EXPECT_FALSE(f.bed.replica(2).recovering());
  EXPECT_GE(f.bed.replica(2).stats().state_snapshots_installed, 1u);
  burst();

  const ReplicaServer& reborn = f.bed.replica(2);
  const auto reborn_lines = lines_of(reborn.object());
  ASSERT_EQ(reborn_lines.size(), 24u);
  for (std::size_t r = 0; r < 2; ++r) {
    const ReplicaServer& peer = f.bed.replica(r);
    const auto peer_lines = lines_of(peer.object());
    for (const char prefix : {'a', 'b'}) {
      EXPECT_EQ(lines_from(reborn_lines, prefix), lines_from(peer_lines, prefix))
          << "client " << prefix << " vs primary " << r;
    }
    EXPECT_EQ(reborn.horizon_of(a.id()), peer.horizon_of(a.id()));
    EXPECT_EQ(reborn.horizon_of(b.id()), peer.horizon_of(b.id()));
    EXPECT_EQ(reborn.csn(), peer.csn());
  }
  EXPECT_EQ(reborn.horizon_of(a.id()), 12u);
}

}  // namespace
}  // namespace aqueduct::replication
