// Fault-schedule DSL and dependability-manager unit tests.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "fault/dependability.hpp"
#include "fault/schedule.hpp"
#include "net/chaos.hpp"
#include "sim/check.hpp"
#include "sim/simulator.hpp"

namespace aqueduct::fault {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

TEST(FaultSchedule, EventsSortedByTime) {
  FaultSchedule s;
  s.restart(1, seconds(10));
  s.crash(2, seconds(3));
  s.crash(1, seconds(5));
  const auto events = s.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(events[0].replica, 2u);
  EXPECT_EQ(events[1].at, seconds(5));
  EXPECT_EQ(events[2].kind, FaultKind::kRestart);
}

TEST(FaultSchedule, RandomIsDeterministicPerSeed) {
  RandomFaultParams params;
  params.crash_candidates = 5;
  params.min_crashes = 1;
  params.max_crashes = 3;
  const auto a = FaultSchedule::random(99, params).events();
  const auto b = FaultSchedule::random(99, params).events();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].replica, b[i].replica);
  }
  // Different seeds produce a different plan for at least one of a few
  // tries (kind, victim, or timing).
  bool diverged = false;
  for (std::uint64_t seed = 100; seed < 104 && !diverged; ++seed) {
    const auto c = FaultSchedule::random(seed, params).events();
    diverged = c.size() != a.size();
    for (std::size_t i = 0; !diverged && i < c.size(); ++i) {
      diverged = c[i].at != a[i].at || c[i].replica != a[i].replica;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultSchedule, RandomPairsEveryCrashWithALaterRestart) {
  RandomFaultParams params;
  params.crash_candidates = 4;
  params.min_crashes = 2;
  params.max_crashes = 2;
  const auto events = FaultSchedule::random(5, params).events();
  std::size_t crashes = 0, restarts = 0;
  for (const auto& e : events) {
    if (e.kind == FaultKind::kCrash) ++crashes;
    if (e.kind == FaultKind::kRestart) ++restarts;
  }
  EXPECT_EQ(crashes, restarts);
  EXPECT_GE(crashes, 1u);
}

TEST(FaultSchedule, GrayBuildersEmitPairedHeals) {
  FaultSchedule s;
  s.degrade_link(0, 2, milliseconds(3), milliseconds(1), 0.05, seconds(5),
                 seconds(4));
  s.partial_partition(1, 4, seconds(6), seconds(5));
  s.duplicate_storm(0.2, seconds(2), seconds(3));
  s.reorder(0.3, milliseconds(40), seconds(2), seconds(3));
  s.throttle_link(0, 3, milliseconds(2), seconds(4), seconds(2));

  const auto events = s.events();
  auto count = [&](FaultKind kind) {
    std::size_t n = 0;
    for (const auto& e : events) n += e.kind == kind;
    return n;
  };
  // Each bounded fault carries its own end: degrade/partition restore the
  // link, storm/reorder/throttle re-arm with a zero knob.
  EXPECT_EQ(count(FaultKind::kHealLink), 2u);
  EXPECT_EQ(count(FaultKind::kDuplicateStorm), 2u);
  EXPECT_EQ(count(FaultKind::kReorder), 2u);
  EXPECT_EQ(count(FaultKind::kThrottleLink), 2u);
  for (const auto& e : events) {
    if (e.kind == FaultKind::kDuplicateStorm && e.at == seconds(5)) {
      EXPECT_DOUBLE_EQ(e.probability, 0.0);
    }
    if (e.kind == FaultKind::kHealLink && e.at == seconds(9)) {
      EXPECT_EQ(e.replica, 0u);
      EXPECT_EQ(e.peer, 2u);
    }
  }
}

TEST(FaultApply, NetworkKindsNeedChaosTransportAndFailLoudly) {
  sim::Simulator sim(1);
  auto bare = net::make_loopback_transport(
      sim, std::make_unique<sim::FixedDuration>(milliseconds(1)));
  ASSERT_EQ(bare->fault_injection(), nullptr)
      << "only the chaos decorator injects faults";
  for (FaultSchedule s : {FaultSchedule().loss(0.2, seconds(1)),
                          FaultSchedule().duplicate_storm(0.2, seconds(1))}) {
    FaultTargets targets;
    targets.node_id = [](std::size_t) { return net::NodeId{1}; };
    targets.num_replicas = 4;
    targets.network = bare->fault_injection();
    EXPECT_THROW(apply(s, sim, std::move(targets)), InvariantViolation);
  }
}

TEST(FaultApply, GrayEventsDriveChaosKnobsAtScheduledTimes) {
  sim::Simulator sim(1);
  auto transport = net::make_chaos_transport(net::make_loopback_transport(
      sim, std::make_unique<sim::FixedDuration>(milliseconds(1))));
  net::FaultInjection* fi = transport->fault_injection();
  ASSERT_NE(fi, nullptr);

  FaultSchedule s;
  s.degrade_link(0, 1, milliseconds(2), milliseconds(1), 0.25, seconds(2),
                 seconds(3));

  FaultTargets targets;
  targets.node_id = [](std::size_t i) {
    return net::NodeId{static_cast<std::uint32_t>(i + 1)};
  };
  targets.num_replicas = 2;
  targets.network = fi;
  apply(s, sim, std::move(targets));

  sim.run_for(seconds(1));
  EXPECT_DOUBLE_EQ(fi->loss_probability(net::NodeId{1}, net::NodeId{2}), 0.0);
  sim.run_for(seconds(2));
  EXPECT_DOUBLE_EQ(fi->loss_probability(net::NodeId{1}, net::NodeId{2}), 0.25);
  sim.run_for(seconds(3));  // past the paired heal_link at t=5s
  EXPECT_DOUBLE_EQ(fi->loss_probability(net::NodeId{1}, net::NodeId{2}), 0.0);
}

TEST(FaultApply, FiresCallbacksAtScheduledTimes) {
  sim::Simulator sim(1);
  net::ChaosTransport network(net::make_loopback_transport(
      sim, std::make_unique<sim::FixedDuration>(milliseconds(1))));
  std::vector<std::pair<std::size_t, sim::TimePoint>> crashes, restarts;

  FaultSchedule s;
  s.crash_restart(2, seconds(3), seconds(8));
  s.loss(0.5, seconds(1));

  FaultTargets targets;
  targets.crash = [&](std::size_t i) { crashes.emplace_back(i, sim.now()); };
  targets.restart = [&](std::size_t i) { restarts.emplace_back(i, sim.now()); };
  targets.node_id = [](std::size_t) { return net::NodeId{1}; };
  targets.network = &network;
  apply(s, sim, std::move(targets));

  sim.run_for(seconds(2));
  EXPECT_TRUE(crashes.empty());
  EXPECT_DOUBLE_EQ(network.loss_probability(net::NodeId{1}, net::NodeId{2}),
                   0.5);
  sim.run_for(seconds(10));
  ASSERT_EQ(crashes.size(), 1u);
  ASSERT_EQ(restarts.size(), 1u);
  EXPECT_EQ(crashes[0].first, 2u);
  EXPECT_EQ(crashes[0].second, sim::kEpoch + seconds(3));
  EXPECT_EQ(restarts[0].second, sim::kEpoch + seconds(8));
}

struct FakeFleet {
  std::vector<bool> alive;
  std::vector<std::pair<std::size_t, sim::TimePoint>> restarts;

  DependabilityManager::Hooks hooks(sim::Simulator& sim) {
    DependabilityManager::Hooks h;
    h.num_replicas = [this] { return alive.size(); };
    h.alive = [this](std::size_t i) { return alive[i]; };
    h.restart = [this, &sim](std::size_t i) {
      alive[i] = true;
      restarts.emplace_back(i, sim.now());
    };
    return h;
  }
};

TEST(DependabilityManager, RestartsDeadReplicaWithinBoundedLatency) {
  sim::Simulator sim(1);
  obs::Observability obs;
  FakeFleet fleet{.alive = {true, true, true}};

  DependabilityConfig config;
  config.poll_period = milliseconds(500);
  config.restart_latency = seconds(1);
  DependabilityManager dm(sim, obs, config, fleet.hooks(sim));
  dm.start();

  sim.at(sim::kEpoch + seconds(2), [&] { fleet.alive[1] = false; });
  sim.run_for(seconds(6));

  ASSERT_EQ(fleet.restarts.size(), 1u);
  EXPECT_EQ(fleet.restarts[0].first, 1u);
  // Detection within one poll period, then the configured restart latency.
  EXPECT_LE(fleet.restarts[0].second,
            sim::kEpoch + seconds(2) + config.poll_period +
                config.restart_latency + milliseconds(1));
  EXPECT_TRUE(fleet.alive[1]);
  EXPECT_EQ(dm.stats().restarts_issued, 1u);
  EXPECT_GE(dm.stats().deficits_observed, 1u);
  EXPECT_GT(dm.stats().polls, 0u);
}

TEST(DependabilityManager, TargetLevelToleratesSomeDeadReplicas) {
  sim::Simulator sim(1);
  obs::Observability obs;
  FakeFleet fleet{.alive = {true, true, true, true}};

  DependabilityConfig config;
  config.target_level = 3;  // content with 3 of 4 alive
  config.poll_period = milliseconds(500);
  DependabilityManager dm(sim, obs, config, fleet.hooks(sim));
  dm.start();

  sim.at(sim::kEpoch + seconds(1), [&] { fleet.alive[0] = false; });
  sim.run_for(seconds(4));
  EXPECT_TRUE(fleet.restarts.empty());  // still at target

  sim.at(sim.now(), [&] { fleet.alive[2] = false; });
  sim.run_for(seconds(4));
  ASSERT_EQ(fleet.restarts.size(), 1u);  // one restart regains the target
  EXPECT_EQ(dm.stats().restarts_issued, 1u);
}

TEST(DependabilityManager, MaxRestartsCapsIntervention) {
  sim::Simulator sim(1);
  obs::Observability obs;
  FakeFleet fleet{.alive = {true, true}};

  DependabilityConfig config;
  config.poll_period = milliseconds(500);
  config.restart_latency = milliseconds(500);
  config.max_restarts = 0;
  DependabilityManager dm(sim, obs, config, fleet.hooks(sim));
  dm.start();

  sim.at(sim::kEpoch + seconds(1), [&] { fleet.alive[0] = false; });
  sim.run_for(seconds(5));
  EXPECT_TRUE(fleet.restarts.empty());
  EXPECT_GE(dm.stats().deficits_observed, 1u);
  EXPECT_EQ(dm.stats().restarts_issued, 0u);
}

}  // namespace
}  // namespace aqueduct::fault
