// Router + sharded-scenario correctness: objects partitioned across
// independent replica groups behind one substrate.
//
// What must hold after any sharded run:
//   * placement — no replica's store ever holds a key the ShardMap places
//     on another shard (an update that crossed group boundaries would be
//     the sharding bug);
//   * per-shard agreement — GSN conflicts stay zero and the committed
//     prefix converges within each shard, independently of the others;
//   * routing — the router's per-shard tallies account for every request,
//     and its key placement agrees with the scenario's ShardMap.
// The fault DSL addresses replicas by stable (shard, slot) identity:
// SlotRef targeting must land on exactly the addressed replica, and plain
// slot indices keep meaning shard 0 (the pre-shard schedules).
// The chaos-grade version of all of this runs through the `hot_shard`
// plan: hot shard and correlated rack failure on a 16-shard pool, with the
// pooled violation counters required to stay zero.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>

#include "fault/schedule.hpp"
#include "harness/scenario.hpp"
#include "obs/snapshot.hpp"
#include "replication/objects.hpp"
#include "runner/plans.hpp"
#include "runner/sweep.hpp"

namespace aqueduct {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

harness::ScenarioConfig sharded_config(std::uint64_t seed,
                                       std::size_t shards) {
  harness::ScenarioConfig config;
  config.seed = seed;
  config.num_shards = shards;
  config.num_primaries = 1;
  config.num_secondaries = 1;
  config.lazy_update_interval = seconds(2);
  for (int c = 0; c < 2; ++c) {
    config.clients.push_back(harness::ClientSpec{
        .qos = {.staleness_threshold = 2,
                .deadline = milliseconds(250),
                .min_probability = 0.5},
        .request_delay = milliseconds(200),
        .num_requests = 40,
        .num_keys = 32,
    });
  }
  return config;
}

/// Every key in every replica's store must hash to that replica's shard.
void expect_no_cross_shard_keys(harness::Scenario& scenario) {
  for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
    const auto& store = dynamic_cast<const replication::KeyValueStore&>(
        scenario.replica(i).object());
    for (const auto& [key, value] : store.entries()) {
      EXPECT_EQ(scenario.shard_map().shard_for(key), scenario.shard_of(i))
          << "replica " << i << " holds foreign key " << key;
    }
  }
}

/// GSN conflicts zero everywhere; committed prefix converged per shard.
void expect_per_shard_agreement(harness::Scenario& scenario) {
  const std::size_t sps = scenario.servers_per_shard();
  for (std::size_t shard = 0; shard < scenario.num_shards(); ++shard) {
    std::uint64_t max_csn = 0;
    for (std::size_t slot = 0; slot < sps; ++slot) {
      const auto& replica = scenario.replica(scenario.slot_index(shard, slot));
      EXPECT_EQ(replica.stats().gsn_conflicts, 0u)
          << "shard " << shard << " slot " << slot;
      if (replica.crashed() || !replica.is_primary() || replica.recovering()) {
        continue;
      }
      max_csn = std::max(max_csn, replica.csn());
    }
    for (std::size_t slot = 1; slot < sps; ++slot) {
      const auto& replica = scenario.replica(scenario.slot_index(shard, slot));
      if (replica.crashed() || !replica.is_primary() || replica.recovering()) {
        continue;
      }
      EXPECT_GE(replica.csn() + 2, max_csn)
          << "shard " << shard << " slot " << slot << " diverged";
    }
  }
}

TEST(ShardRouter, PartitionedRunRoutesAndAgreesPerShard) {
  harness::Scenario scenario(sharded_config(/*seed=*/5, /*shards=*/4));
  const auto results = scenario.run();

  // Liveness: every read completed or was abandoned.
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_EQ(r.stats.reads_completed + r.stats.reads_abandoned, 20u);
    EXPECT_EQ(r.stats.staleness_violations, 0u);
  }

  expect_no_cross_shard_keys(scenario);
  expect_per_shard_agreement(scenario);

  for (std::size_t w = 0; w < scenario.num_workloads(); ++w) {
    auto& workload = scenario.workload(w);
    const auto& router = workload.router();
    ASSERT_EQ(router.num_shards(), 4u);
    // The router and the scenario must agree on placement — they share
    // one seeded map.
    for (int k = 0; k < 32; ++k) {
      const std::string key = "k" + std::to_string(k);
      EXPECT_EQ(router.shard_for(key), scenario.shard_map().shard_for(key));
    }
    // Per-shard tallies account for every routed request.
    std::uint64_t routed = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      routed += router.route_stats(s).reads_routed +
                router.route_stats(s).updates_routed;
    }
    const auto stats = router.stats();
    EXPECT_GE(routed, stats.reads_completed + stats.updates_completed);
    EXPECT_GT(routed, 0u);
  }
}

/// Every ClientStats field by name, Duration totals in nanoseconds.
std::map<std::string, std::int64_t> by_name(client::ClientStats stats) {
  std::map<std::string, std::int64_t> out;
  auto put = [&](std::string_view name, const auto& field) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(field)>,
                                 std::uint64_t>) {
      out[std::string(name)] = static_cast<std::int64_t>(field);
    } else {
      out[std::string(name)] = field.count();
    }
  };
  stats.fields(put);
  return out;
}

TEST(ShardRouter, StatsSumEveryClientStatsFieldAcrossShards) {
  harness::Scenario scenario(sharded_config(/*seed=*/5, /*shards=*/2));
  scenario.run();
  for (std::size_t w = 0; w < scenario.num_workloads(); ++w) {
    const auto& router = scenario.workload(w).router();
    std::map<std::string, std::int64_t> expected;
    for (std::size_t s = 0; s < router.num_shards(); ++s) {
      for (const auto& [name, value] : by_name(router.handler(s).stats())) {
        expected[name] += value;
      }
    }
    const auto total = by_name(router.stats());
    EXPECT_EQ(total, expected) << "workload " << w;
    EXPECT_EQ(total.size(), 16u);
    EXPECT_GT(total.at("reads_completed"), 0);
    EXPECT_GT(total.at("total_response_time"), 0);
  }
  // Each shard's routing tallies are mirrored under its own prefix.
  const obs::MetricsRegistry& reg = scenario.observability().metrics;
  EXPECT_TRUE(reg.contains("shard0.reads_routed"));
  EXPECT_TRUE(reg.contains("shard1.updates_routed"));
}

TEST(ShardRouter, SingleShardRegistersNoShardMetric) {
  harness::Scenario scenario(sharded_config(/*seed=*/5, /*shards=*/1));
  scenario.run();
  EXPECT_GT(scenario.workload(0).router().route_stats(0).reads_routed, 0u);
  const obs::MetricsSnapshot snap = scenario.observability().metrics.snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_FALSE(name.starts_with("shard")) << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_FALSE(name.starts_with("shard")) << name;
  }
}

TEST(ShardRouter, SlotRefFaultsTargetExactlyTheAddressedReplica) {
  harness::Scenario scenario(sharded_config(/*seed=*/9, /*shards=*/2));
  fault::FaultSchedule plan;
  // Shard 1 loses its secondary for good; shard 0's secondary bounces.
  // The plain slot index (no SlotRef wrapper) must keep meaning shard 0 —
  // pre-shard schedules compile and behave unchanged.
  plan.crash(fault::SlotRef{1, 2}, seconds(4));
  plan.crash_restart(/*replica=*/2, seconds(4), seconds(7));
  scenario.apply_faults(plan);
  scenario.run();

  EXPECT_TRUE(scenario.replica(scenario.slot_index(1, 2)).crashed());
  EXPECT_FALSE(scenario.replica(scenario.slot_index(0, 2)).crashed());
  EXPECT_EQ(scenario.incarnation(scenario.slot_index(0, 2)), 1u);
  EXPECT_EQ(scenario.incarnation(scenario.slot_index(1, 2)), 0u);
  // Nobody else was touched.
  for (std::size_t shard = 0; shard < 2; ++shard) {
    for (std::size_t slot = 0; slot < 2; ++slot) {
      EXPECT_FALSE(scenario.replica(scenario.slot_index(shard, slot)).crashed())
          << "shard " << shard << " slot " << slot;
      EXPECT_EQ(scenario.incarnation(scenario.slot_index(shard, slot)), 0u);
    }
  }

  // The shard that lost a secondary still agrees with itself, and no key
  // leaked across the groups while the faults were live.
  expect_no_cross_shard_keys(scenario);
  expect_per_shard_agreement(scenario);
}

TEST(ShardRouterChaos, HotShardAndCorrelatedRackLeakNothingAcrossShards) {
  // The chaos-grade run: the `hot_shard` plan's three points (uniform,
  // hot shard, correlated rack failure) on a 16-shard pool, three seeds
  // each, fanned across worker threads. Every agreement and placement
  // counter must stay zero on every row.
  const runner::Plan* plan = runner::find_plan("hot_shard");
  ASSERT_NE(plan, nullptr);
  const runner::SweepSpec spec =
      runner::make_spec(*plan, /*seed_begin=*/1, /*seed_count=*/3,
                        /*threads=*/4, /*requests=*/60);
  const runner::SweepResult result = runner::run_sweep(spec);

  ASSERT_EQ(result.rows.size(), 9u);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const runner::SeedRecord& row = result.rows[i];
    ASSERT_TRUE(row.ok) << spec.units[i].label << ": " << row.error;
    EXPECT_EQ(row.counter_or_zero("gsn_conflicts"), 0u) << spec.units[i].label;
    EXPECT_EQ(row.counter_or_zero("leaked_keys"), 0u) << spec.units[i].label;
    EXPECT_EQ(row.counter_or_zero("divergences"), 0u) << spec.units[i].label;
    EXPECT_EQ(row.counter_or_zero("csn_mismatches"), 0u)
        << spec.units[i].label;
    EXPECT_EQ(row.counter_or_zero("staleness_violations"), 0u)
        << spec.units[i].label;
  }
  EXPECT_EQ(result.pooled_counter_or_zero("violations"), 0u);
}

TEST(ShardRouterChaos, ScalingSweepHoldsInvariantsAtEveryWidth) {
  const runner::Plan* plan = runner::find_plan("shard_scaling");
  ASSERT_NE(plan, nullptr);
  const runner::SweepSpec spec =
      runner::make_spec(*plan, /*seed_begin=*/1, /*seed_count=*/2,
                        /*threads=*/4, /*requests=*/60);
  const runner::SweepResult result = runner::run_sweep(spec);

  ASSERT_EQ(result.rows.size(), 6u);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const runner::SeedRecord& row = result.rows[i];
    ASSERT_TRUE(row.ok) << spec.units[i].label << ": " << row.error;
    EXPECT_EQ(row.counter_or_zero("violations"), 0u) << spec.units[i].label;
    EXPECT_GT(row.counter_or_zero("reads_completed"), 0u)
        << spec.units[i].label;
  }
}

}  // namespace
}  // namespace aqueduct
