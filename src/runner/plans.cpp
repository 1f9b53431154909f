#include "runner/plans.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>

#include "client/handler.hpp"
#include "core/staleness.hpp"
#include "fault/schedule.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"
#include "harness/testbed.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "replication/objects.hpp"
#include "replication/replica.hpp"
#include "sim/random.hpp"

namespace aqueduct::runner {

namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

// ------------------------------------------------------ per-unit telemetry

/// Every plan unit runs with periodic telemetry streaming to an in-memory
/// JSONL sink; the series is rolled up into the row as a deterministic
/// digest plus snapshot/violation counters. Because the series is a pure
/// function of the unit's (seed, point), the digest is byte-identical for
/// any sweep thread count — the determinism suite asserts it.
class UnitTelemetry {
 public:
  explicit UnitTelemetry(harness::Scenario& scenario) : sink_(jsonl_) {
    scenario.enable_telemetry(milliseconds(250)).add_sink(&sink_);
  }

  void report(harness::Scenario& scenario, SeedRecord& rec) {
    const std::string series = jsonl_.str();
    std::ostringstream digest;
    digest << std::hex << std::setw(16) << std::setfill('0')
           << obs::digest_fnv1a64(series);
    rec.text("telemetry_digest", digest.str());
    rec.counter("telemetry_snapshots", scenario.telemetry()->snapshots());
    rec.counter("telemetry_bytes", series.size());
    rec.counter("sla_violations",
                scenario.observability().sla.total_violations());
  }

 private:
  std::ostringstream jsonl_;
  obs::JsonlSnapshotSink sink_;
};

// ------------------------------------------------------ shared workload

std::vector<double> to_ms(const std::vector<double>& seconds) {
  std::vector<double> ms;
  ms.reserve(seconds.size());
  for (const double s : seconds) ms.push_back(s * 1000.0);
  return ms;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// The paper's standard two-client workload (Section 6.1 setup, Section 7
/// QoS): client 1 holds a=4, d=200 ms, Pc=0.1; client 2, the measured
/// client, a=2, d=140 ms, Pc=0.9; 1000 ms request delay; LUI 4 s.
harness::ScenarioConfig standard_config(std::uint64_t seed,
                                        std::size_t requests) {
  harness::ScenarioConfig config;
  config.seed = seed;
  config.lazy_update_interval = seconds(4);
  for (int c = 0; c < 2; ++c) {
    config.clients.push_back(harness::ClientSpec{
        .qos = {.staleness_threshold = c == 0 ? 4u : 2u,
                .deadline = milliseconds(c == 0 ? 200 : 140),
                .min_probability = c == 0 ? 0.1 : 0.9},
        .request_delay = milliseconds(1000),
        .num_requests = requests,
    });
  }
  return config;
}

// ---------------------------------------------------------------- recovery

constexpr std::size_t kRecoveryVictim = 1;  // a primary (0 = sequencer)
constexpr auto kRecoveryCrashAt = seconds(8);
constexpr auto kRecoveryRestartAt = seconds(14);

SeedRecord run_recovery(const Unit& unit, std::size_t requests) {
  harness::ScenarioConfig config;
  config.seed = unit.seed;
  config.num_primaries = 2;
  config.num_secondaries = 2;
  config.lazy_update_interval = seconds(2);
  for (int c = 0; c < 2; ++c) {
    config.clients.push_back(harness::ClientSpec{
        .qos = {.staleness_threshold = 2,
                .deadline = milliseconds(250),
                .min_probability = 0.5},
        .request_delay = milliseconds(150),
        .num_requests = requests,
    });
  }
  harness::Scenario scenario(std::move(config));
  UnitTelemetry telemetry(scenario);

  fault::FaultSchedule plan;
  plan.crash_restart(kRecoveryVictim, kRecoveryCrashAt, kRecoveryRestartAt);
  scenario.apply_faults(plan);

  auto run = scenario.run();
  const auto& reborn = scenario.replica(kRecoveryVictim);

  SeedRecord rec;
  const double recovered_s =
      reborn.recovered_at() > sim::kEpoch
          ? sim::to_sec(reborn.recovered_at() - sim::kEpoch)
          : -1.0;
  const double restart_s = sim::to_sec(sim::Duration(kRecoveryRestartAt));
  const double rejoin =
      recovered_s < 0.0 ? -1.0 : recovered_s - restart_s;
  const double first_selection =
      reborn.first_read_request_at() > sim::kEpoch
          ? sim::to_sec(reborn.first_read_request_at() - sim::kEpoch) -
                restart_s
          : -1.0;
  rec.value("time_to_rejoin_s", rejoin);
  rec.value("time_to_first_selection_s", first_selection);
  if (rejoin >= 0.0) rec.sample("rejoin_s", {rejoin});
  if (first_selection >= 0.0) rec.sample("first_selection_s", {first_selection});

  // Attribute every completed read to the outage window or steady state.
  const double outage_from = sim::to_sec(sim::Duration(kRecoveryCrashAt));
  const double outage_until =
      recovered_s < 0.0 ? sim::to_sec(scenario.executor().now() - sim::kEpoch)
                        : recovered_s;
  std::uint64_t reads_completed = 0, reads_abandoned = 0;
  std::uint64_t outage_reads = 0, outage_failures = 0;
  std::uint64_t steady_reads = 0, steady_failures = 0;
  for (const auto& client : run) {
    reads_completed += client.stats.reads_completed;
    reads_abandoned += client.stats.reads_abandoned;
    for (std::size_t i = 0; i < client.read_completed_at.size(); ++i) {
      const bool in_outage = client.read_completed_at[i] >= outage_from &&
                             client.read_completed_at[i] < outage_until;
      const bool failed = client.read_timing_failures[i];
      (in_outage ? outage_reads : steady_reads) += 1;
      if (failed) (in_outage ? outage_failures : steady_failures) += 1;
    }
  }
  std::uint64_t conflicts = 0;
  for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
    conflicts += scenario.replica(i).stats().gsn_conflicts;
  }
  rec.counter("reads_completed", reads_completed);
  rec.counter("reads_abandoned", reads_abandoned);
  rec.counter("outage_reads", outage_reads);
  rec.counter("outage_failures", outage_failures);
  rec.counter("steady_reads", steady_reads);
  rec.counter("steady_failures", steady_failures);
  rec.counter("gsn_conflicts", conflicts);
  rec.counter("recovered", rejoin >= 0.0 ? 1 : 0);
  rec.counter("selected", first_selection >= 0.0 ? 1 : 0);
  telemetry.report(scenario, rec);
  return rec;
}

// ------------------------------------------------------- failure injection

fault::FaultSchedule failure_schedule(std::size_t point) {
  fault::FaultSchedule schedule;
  switch (point) {
    case 0:  // baseline — no failures
      break;
    case 1:  // primary crash
      schedule.crash(2, seconds(100));
      break;
    case 2:  // two secondary crashes
      schedule.crash(6, seconds(100)).crash(8, seconds(100));
      break;
    case 3:  // sequencer crash
      schedule.crash(0, seconds(100));
      break;
    case 4:  // primary crash + recovery
      schedule.crash_restart(2, seconds(100), seconds(115));
      break;
  }
  return schedule;
}

SeedRecord run_failure_injection(const Unit& unit, std::size_t requests) {
  harness::ScenarioConfig config = standard_config(unit.seed, requests);
  config.lazy_update_interval = seconds(2);
  harness::Scenario scenario(std::move(config));
  UnitTelemetry telemetry(scenario);
  scenario.apply_faults(failure_schedule(unit.point));
  auto results = scenario.run();
  const auto& stats = results[1].stats;  // the tight-QoS client

  std::uint64_t conflicts = 0;
  std::uint64_t reborn = 0;  // restarted slots (fresh incarnations)
  for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
    conflicts += scenario.replica(i).stats().gsn_conflicts;
    reborn += scenario.incarnation(i);
  }
  SeedRecord rec;
  rec.value("avg_replicas_selected", stats.avg_replicas_selected());
  rec.counter("reads_completed", stats.reads_completed);
  rec.counter("reads_abandoned", stats.reads_abandoned);
  rec.counter("timing_failures", stats.timing_failures);
  rec.counter("retries", stats.retries);
  rec.counter("staleness_violations", results[0].stats.staleness_violations +
                                          stats.staleness_violations);
  rec.counter("reborn", reborn);
  rec.counter("gsn_conflicts", conflicts);
  telemetry.report(scenario, rec);
  return rec;
}

// --------------------------------------------------------- fig4 adaptivity

struct Fig4Config {
  double pc;
  sim::Duration lui;
  std::string label() const {
    return "(prob: " + harness::Table::num(pc, 1) +
           ", LUI: " + harness::Table::num(sim::to_sec(lui), 0) + " secs)";
  }
};

const std::vector<Fig4Config>& fig4_configs() {
  static const std::vector<Fig4Config> configs = {
      {0.9, seconds(4)},
      {0.5, seconds(4)},
      {0.9, seconds(2)},
      {0.5, seconds(2)},
  };
  return configs;
}

const std::vector<int>& fig4_deadlines_ms() {
  static const std::vector<int> deadlines = {80,  100, 120, 140,
                                             160, 180, 200, 220};
  return deadlines;
}

SeedRecord run_fig4(const Unit& unit, std::size_t requests) {
  const auto& configs = fig4_configs();
  const auto& deadlines = fig4_deadlines_ms();
  const Fig4Config& c = configs[unit.point % configs.size()];
  const int deadline_ms = deadlines[unit.point / configs.size()];

  harness::ScenarioConfig config;
  config.seed = unit.seed;
  config.lazy_update_interval = c.lui;
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 4,
              .deadline = milliseconds(200),
              .min_probability = 0.1},
      .request_delay = milliseconds(1000),
      .num_requests = requests,
  });
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 2,
              .deadline = milliseconds(deadline_ms),
              .min_probability = c.pc},
      .request_delay = milliseconds(1000),
      .num_requests = requests,
  });
  harness::Scenario scenario(std::move(config));
  UnitTelemetry telemetry(scenario);
  auto results = scenario.run();
  const auto& stats = results[1].stats;  // client 2 is the measured client

  SeedRecord rec;
  rec.value("deadline_ms", static_cast<double>(deadline_ms));
  rec.value("pc", c.pc);
  rec.value("lui_s", sim::to_sec(c.lui));
  rec.value("avg_replicas_selected", stats.avg_replicas_selected());
  rec.value("deferred_fraction",
            ratio(stats.deferred_replies, stats.reads_completed));
  rec.counter("reads_completed", stats.reads_completed);
  rec.counter("reads_abandoned", stats.reads_abandoned);
  rec.counter("timing_failures", stats.timing_failures);
  rec.counter("staleness_violations", stats.staleness_violations);
  rec.counter("deferred_replies", stats.deferred_replies);
  rec.sample("read_ms", to_ms(results[1].read_response_times));
  telemetry.report(scenario, rec);
  return rec;
}

// ------------------------------------------------------------ chaos suites

/// The chaos suites' pool, on the chaos decorator (which injects every
/// network fault their schedules script).
harness::ScenarioConfig chaos_config(std::uint64_t seed,
                                     std::size_t num_primaries,
                                     std::size_t num_secondaries,
                                     std::size_t requests) {
  harness::ScenarioConfig config;
  config.seed = seed;
  config.num_primaries = num_primaries;
  config.num_secondaries = num_secondaries;
  config.lazy_update_interval = seconds(2);
  config.chaos = true;
  for (int c = 0; c < 2; ++c) {
    config.clients.push_back(harness::ClientSpec{
        .qos = {.staleness_threshold = 2,
                .deadline = milliseconds(200),
                .min_probability = 0.5},
        .request_delay = milliseconds(200),
        .num_requests = requests,
    });
  }
  return config;
}

/// Randomized loss + crashes (no restarts): the original ChaosProperty
/// suite. Crash candidates avoid primary 1 and the last secondary so the
/// service always stays alive.
SeedRecord run_chaos(const Unit& unit, std::size_t requests) {
  harness::Scenario scenario(chaos_config(unit.seed, 3, 3, requests));
  UnitTelemetry telemetry(scenario);

  sim::Rng chaos(unit.seed * 7919 + 13);
  fault::FaultSchedule plan;
  plan.loss(0.10, seconds(5)).loss(0.0, seconds(25));
  const std::size_t crashes = 1 + chaos.uniform_int(2);
  std::vector<std::size_t> crashed;
  for (std::size_t i = 0; i < crashes; ++i) {
    const std::size_t candidates[] = {0, 2, 3, 4, 5};
    const std::size_t victim = candidates[chaos.uniform_int(5)];
    if (std::find(crashed.begin(), crashed.end(), victim) != crashed.end()) {
      continue;
    }
    crashed.push_back(victim);
    plan.crash(victim, seconds(8 + 10 * static_cast<int>(i)));
  }
  scenario.apply_faults(plan);

  auto results = scenario.run();

  SeedRecord rec;
  collect_invariants(scenario, results, requests / 2).report(rec);
  telemetry.report(scenario, rec);
  return rec;
}

/// Crash-then-recover chaos: every crash is followed by a seed-derived
/// restart, so the invariants must hold across reincarnations.
SeedRecord run_chaos_recovery(const Unit& unit, std::size_t requests) {
  harness::Scenario scenario(chaos_config(unit.seed, 2, 3, requests));
  UnitTelemetry telemetry(scenario);

  fault::RandomFaultParams params;
  params.crash_candidates = scenario.num_replicas();
  params.min_crashes = 1;
  params.max_crashes = 2;
  params.earliest_crash = seconds(6);
  params.crash_spacing = seconds(10);
  params.min_outage = seconds(4);
  params.max_outage = seconds(10);
  params.loss_probability = 0.05;
  params.loss_from = seconds(5);
  params.loss_until = seconds(20);
  scenario.apply_faults(
      fault::FaultSchedule::random(unit.seed * 7919 + 13, params));

  auto results = scenario.run();

  SeedRecord rec;
  collect_invariants(scenario, results, requests / 2).report(rec);
  telemetry.report(scenario, rec);
  return rec;
}

// ------------------------------------------------------------ gray failures

constexpr auto kGrayOnset = seconds(5);
constexpr auto kGrayHealAt = seconds(18);

/// Severity ladder for the gray_failure plan. Each point layers more
/// degradation onto the same window [kGrayOnset, kGrayHealAt): reordering
/// and duplication first, then a slow-but-alive primary with lossy
/// sequencer links, then a partial partition plus a throttled link.
fault::FaultSchedule gray_severity_schedule(std::size_t point) {
  fault::FaultSchedule plan;
  const auto window = kGrayHealAt - kGrayOnset;
  switch (point) {
    case 0:  // baseline — no degradation
      break;
    case 1:  // mild
      plan.reorder(0.10, milliseconds(20), kGrayOnset)
          .duplicate_storm(0.05, kGrayOnset);
      break;
    case 2:  // moderate
      plan.reorder(0.20, milliseconds(30), kGrayOnset)
          .duplicate_storm(0.10, kGrayOnset)
          .latency_spike(2, milliseconds(3), milliseconds(1), kGrayOnset,
                         window)
          .degrade_link(0, 2, milliseconds(2), milliseconds(1), 0.05,
                        kGrayOnset)
          .degrade_link(2, 0, milliseconds(2), milliseconds(1), 0.05,
                        kGrayOnset);
      break;
    case 3:  // severe
      plan.reorder(0.30, milliseconds(40), kGrayOnset)
          .duplicate_storm(0.25, kGrayOnset)
          .latency_spike(2, milliseconds(4), milliseconds(2), kGrayOnset,
                         window)
          .degrade_link(0, 2, milliseconds(3), milliseconds(1), 0.10,
                        kGrayOnset)
          .degrade_link(2, 0, milliseconds(3), milliseconds(1), 0.10,
                        kGrayOnset)
          .throttle_link(0, 3, milliseconds(2), kGrayOnset)
          .partial_partition(2, 5, kGrayOnset + seconds(1), seconds(6));
      break;
  }
  plan.heal_gray(kGrayHealAt);
  return plan;
}

/// Severity ladder: timing-failure rate inside vs outside the degradation
/// window and time-to-detect (first deadline miss after onset), with the
/// safety counters that must pool to 0. The chaos decorator wraps the
/// loopback, so the whole trajectory stays a pure function of the seed.
SeedRecord run_gray_failure(const Unit& unit, std::size_t requests) {
  harness::Scenario scenario(chaos_config(unit.seed, 3, 3, requests));
  UnitTelemetry telemetry(scenario);
  scenario.apply_faults(gray_severity_schedule(unit.point));

  auto results = scenario.run();

  const double onset_s = sim::to_sec(sim::Duration(kGrayOnset));
  const double heal_s = sim::to_sec(sim::Duration(kGrayHealAt));
  std::uint64_t degraded_reads = 0, degraded_failures = 0;
  std::uint64_t steady_reads = 0, steady_failures = 0;
  double detect_s = -1.0;
  for (const auto& client : results) {
    for (std::size_t i = 0; i < client.read_completed_at.size(); ++i) {
      const double t = client.read_completed_at[i];
      const bool degraded = unit.point > 0 && t >= onset_s && t < heal_s;
      const bool failed = client.read_timing_failures[i];
      (degraded ? degraded_reads : steady_reads) += 1;
      if (failed) {
        (degraded ? degraded_failures : steady_failures) += 1;
        if (degraded && (detect_s < 0.0 || t - onset_s < detect_s)) {
          detect_s = t - onset_s;
        }
      }
    }
  }

  SeedRecord rec;
  rec.value("severity", static_cast<double>(unit.point));
  rec.counter("degraded_reads", degraded_reads);
  rec.counter("degraded_failures", degraded_failures);
  rec.counter("steady_reads", steady_reads);
  rec.counter("steady_failures", steady_failures);
  rec.counter("detected", detect_s >= 0.0 ? 1 : 0);
  if (detect_s >= 0.0) rec.sample("time_to_detect_s", {detect_s});

  const net::TransportStats ts = scenario.transport_stats();
  rec.counter("messages_duplicated", ts.messages_duplicated);
  rec.counter("messages_reordered", ts.messages_reordered);
  rec.counter("messages_delayed", ts.messages_delayed);
  rec.counter("messages_dropped_loss", ts.messages_dropped_loss);

  collect_invariants(scenario, results, requests / 2).report(rec);
  telemetry.report(scenario, rec);
  return rec;
}

/// Seed-randomized gray chaos: reordering + duplication + a degraded link
/// + a partial partition, all healed before the run ends. The gtest suite
/// fans this across 12 seeds and asserts the invariants pool to 0.
SeedRecord run_gray_chaos(const Unit& unit, std::size_t requests) {
  harness::Scenario scenario(chaos_config(unit.seed, 3, 3, requests));
  UnitTelemetry telemetry(scenario);

  sim::Rng gray(unit.seed * 6271 + 17);
  const std::size_t num_replicas = scenario.num_replicas();
  fault::FaultSchedule plan;
  plan.reorder(0.05 + 0.25 * gray.uniform(),
               milliseconds(10 + gray.uniform_int(40)), seconds(4));
  plan.duplicate_storm(0.02 + 0.18 * gray.uniform(), seconds(4));
  plan.loss(0.05, seconds(4));
  const std::size_t from = gray.uniform_int(num_replicas);
  std::size_t to = gray.uniform_int(num_replicas);
  if (to == from) to = (to + 1) % num_replicas;
  plan.degrade_link(from, to, milliseconds(1 + gray.uniform_int(3)),
                    milliseconds(1), 0.05, seconds(5));
  // Partial partition between a primary and a secondary, healed after 5s.
  plan.partial_partition(1 + gray.uniform_int(3), 4 + gray.uniform_int(3),
                         seconds(6), seconds(5));
  plan.heal_gray(seconds(14));
  scenario.apply_faults(plan);

  auto results = scenario.run();

  SeedRecord rec;
  const net::TransportStats ts = scenario.transport_stats();
  rec.counter("messages_duplicated", ts.messages_duplicated);
  rec.counter("messages_reordered", ts.messages_reordered);
  rec.counter("messages_delayed", ts.messages_delayed);
  rec.counter("messages_dropped_loss", ts.messages_dropped_loss);
  collect_invariants(scenario, results, requests / 2).report(rec);
  telemetry.report(scenario, rec);
  return rec;
}

// ------------------------------------------------------------ shard plans

harness::ScenarioConfig shard_config(std::uint64_t seed, std::size_t shards,
                                     std::size_t requests) {
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
        .num_requests = requests,
        .num_keys = 64,
    });
  }
  return config;
}

/// Per-shard routed request tallies across every workload client.
std::vector<std::uint64_t> routed_per_shard(harness::Scenario& scenario) {
  std::vector<std::uint64_t> routed(scenario.num_shards(), 0);
  for (std::size_t w = 0; w < scenario.num_workloads(); ++w) {
    const auto& router = scenario.workload(w).router();
    for (std::size_t k = 0; k < routed.size(); ++k) {
      routed[k] += router.route_stats(k).reads_routed +
                   router.route_stats(k).updates_routed;
    }
  }
  return routed;
}

constexpr std::size_t kShardScalingCounts[] = {1, 4, 16};

/// Same substrate, same workload, 1 → 4 → 16 replica groups: routing
/// balance, intra-shard agreement, and the placement invariant must hold
/// at every width.
SeedRecord run_shard_scaling(const Unit& unit, std::size_t requests) {
  const std::size_t shards = kShardScalingCounts[unit.point % 3];
  harness::Scenario scenario(shard_config(unit.seed, shards, requests));
  UnitTelemetry telemetry(scenario);
  auto results = scenario.run();

  std::uint64_t reads_completed = 0, reads_abandoned = 0;
  std::uint64_t timing_failures = 0, retries = 0, updates_completed = 0;
  std::vector<double> read_ms;
  for (const auto& r : results) {
    reads_completed += r.stats.reads_completed;
    reads_abandoned += r.stats.reads_abandoned;
    timing_failures += r.stats.timing_failures;
    retries += r.stats.retries;
    updates_completed += r.stats.updates_completed;
    for (const double s : r.read_response_times) read_ms.push_back(s * 1000.0);
  }
  const std::vector<std::uint64_t> routed = routed_per_shard(scenario);
  std::uint64_t total_routed = 0, max_routed = 0;
  for (const std::uint64_t r : routed) {
    total_routed += r;
    max_routed = std::max(max_routed, r);
  }
  const double mean_routed =
      static_cast<double>(total_routed) / static_cast<double>(routed.size());

  SeedRecord rec;
  rec.value("shards", static_cast<double>(shards));
  // max/mean shard load: 1.0 = perfectly uniform routing.
  rec.value("balance_ratio",
            mean_routed == 0.0 ? 0.0
                               : static_cast<double>(max_routed) / mean_routed);
  // Simulated-time span of the run, for deterministic throughput trends
  // (ops per simulated second; wall time is excluded from sweep JSON).
  rec.value("sim_end_s", sim::to_sec(scenario.executor().now() - sim::kEpoch));
  rec.counter("reads_completed", reads_completed);
  rec.counter("reads_abandoned", reads_abandoned);
  rec.counter("updates_completed", updates_completed);
  rec.counter("timing_failures", timing_failures);
  rec.counter("retries", retries);
  rec.sample("read_ms", std::move(read_ms));
  collect_invariants(scenario, results, requests / 2).report(rec);
  telemetry.report(scenario, rec);
  return rec;
}

constexpr std::size_t kHotShardShards = 16;
constexpr auto kShardFaultOnset = seconds(5);
constexpr auto kShardFaultHeal = seconds(16);

/// Cross-shard fault matrix on a 16-shard pool: a uniform baseline, one
/// overloaded (hot) replica group, and a correlated rack failure taking
/// the same slot from every shard at once. Faults on one shard must never
/// bleed into another's agreement or placement invariants.
SeedRecord run_hot_shard(const Unit& unit, std::size_t requests) {
  harness::ScenarioConfig config =
      shard_config(unit.seed, kHotShardShards, requests);
  // Only the hot-shard point injects a network fault (its latency spike);
  // the other points keep the bare LAN model.
  config.chaos = unit.point == 1;
  harness::Scenario scenario(std::move(config));
  UnitTelemetry telemetry(scenario);

  // The hot group is whichever shard owns the workload's first key, so the
  // fault always lands on shard that actually serves traffic.
  const std::size_t hot = scenario.shard_map().shard_for("k0");
  fault::FaultSchedule plan;
  switch (unit.point) {
    case 0:  // uniform — no faults
      break;
    case 1:  // one overloaded replica group: the spike has to clear the
             // 250 ms deadline, or the hot shard is invisible to the QoS
             // contract and the degraded window carries no signal
      plan.hot_shard(hot, scenario.servers_per_shard(), milliseconds(300),
                     milliseconds(80), kShardFaultOnset,
                     kShardFaultHeal - kShardFaultOnset);
      break;
    case 2:  // shared rack: every shard loses its secondary, then recovers
      plan.correlated_rack_failure(/*rack_slot=*/2, kHotShardShards,
                                   kShardFaultOnset + seconds(1),
                                   kShardFaultHeal - seconds(4));
      break;
  }
  scenario.apply_faults(plan);
  auto results = scenario.run();

  const double onset_s = sim::to_sec(sim::Duration(kShardFaultOnset));
  const double heal_s = sim::to_sec(sim::Duration(kShardFaultHeal));
  std::uint64_t degraded_reads = 0, degraded_failures = 0;
  std::uint64_t steady_reads = 0, steady_failures = 0;
  for (const auto& client : results) {
    for (std::size_t i = 0; i < client.read_completed_at.size(); ++i) {
      const double t = client.read_completed_at[i];
      const bool degraded = unit.point > 0 && t >= onset_s && t < heal_s;
      const bool failed = client.read_timing_failures[i];
      (degraded ? degraded_reads : steady_reads) += 1;
      if (failed) (degraded ? degraded_failures : steady_failures) += 1;
    }
  }
  std::uint64_t reborn = 0;
  for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
    reborn += scenario.incarnation(i);
  }
  const std::vector<std::uint64_t> routed = routed_per_shard(scenario);
  std::uint64_t total_routed = 0;
  for (const std::uint64_t r : routed) total_routed += r;

  SeedRecord rec;
  rec.value("hot_shard", static_cast<double>(hot));
  rec.value("hot_fraction",
            total_routed == 0 ? 0.0
                              : static_cast<double>(routed[hot]) /
                                    static_cast<double>(total_routed));
  rec.counter("degraded_reads", degraded_reads);
  rec.counter("degraded_failures", degraded_failures);
  rec.counter("steady_reads", steady_reads);
  rec.counter("steady_failures", steady_failures);
  rec.counter("reborn", reborn);
  collect_invariants(scenario, results, requests / 2).report(rec);
  telemetry.report(scenario, rec);
  return rec;
}

// ------------------------------------------- standard-workload experiments

/// The measured client's (client 2's) selection width, timing-failure and
/// deferral tallies and read latency, then the run's invariants.
SeedRecord report_standard(harness::Scenario& scenario,
                           const std::vector<harness::ClientResult>& results,
                           std::size_t requests) {
  const auto& stats = results[1].stats;
  SeedRecord rec;
  rec.value("avg_replicas_selected", stats.avg_replicas_selected());
  rec.counter("reads_completed", stats.reads_completed);
  rec.counter("timing_failures", stats.timing_failures);
  rec.counter("deferred_replies", stats.deferred_replies);
  rec.sample("read_ms", to_ms(results[1].read_response_times));
  collect_invariants(scenario, results, requests / 2).report(rec);
  return rec;
}

SeedRecord run_standard(harness::ScenarioConfig config) {
  const std::size_t requests = config.clients[0].num_requests;
  harness::Scenario scenario(std::move(config));
  return report_standard(scenario, scenario.run(), requests);
}

/// Section 7 ablation: the lazy-update interval trades secondary
/// staleness (deferrals, wider selections) against update traffic.
constexpr double kAblationLuiSec[] = {1, 2, 4, 8};

SeedRecord run_ablation_lui(const Unit& unit, std::size_t requests) {
  harness::ScenarioConfig config = standard_config(unit.seed, requests);
  config.lazy_update_interval = sim::from_sec(kAblationLuiSec[unit.point]);
  return run_standard(std::move(config));
}

/// Section 7 ablation: the request delay sets the update rate λ_u and the
/// replica load.
constexpr int kAblationDelayMs[] = {250, 500, 1000, 2000};

SeedRecord run_ablation_request_delay(const Unit& unit,
                                      std::size_t requests) {
  const int delay = kAblationDelayMs[unit.point];
  harness::ScenarioConfig config = standard_config(unit.seed, requests);
  for (auto& client : config.clients) {
    client.request_delay = milliseconds(delay);
  }
  SeedRecord rec = run_standard(std::move(config));
  // Each client issues one update per write+read pair (~110 ms replies).
  rec.value("est_lambda_u_per_s", 2.0 / (2.0 * (delay / 1000.0 + 0.11)));
  return rec;
}

/// Section 5 baselines: Algorithm 1, its two design rules ablated, and the
/// select-all / select-one / fixed-k strategies it is motivated against.
harness::SelectorFactory baseline_selector(std::size_t point) {
  switch (point) {
    case 0:
      return [] { return std::make_unique<core::ProbabilisticSelector>(); };
    case 1:
      return [] {
        return std::make_unique<core::ProbabilisticSelector>(
            core::ProbabilisticOptions{.tolerate_one_failure = false});
      };
    case 2:
      return [] {
        return std::make_unique<core::ProbabilisticSelector>(
            core::ProbabilisticOptions{.sort_by_ert = false});
      };
    case 3:
      return [] { return std::make_unique<core::SelectAllSelector>(); };
    case 4:
      return [] {
        return std::make_unique<core::SelectOneSelector>(
            core::SelectOneSelector::Policy::kRandom);
      };
    case 5:
      return [] {
        return std::make_unique<core::SelectOneSelector>(
            core::SelectOneSelector::Policy::kLeastRecentlyUsed);
      };
    default:
      return [] { return std::make_unique<core::FixedKSelector>(3); };
  }
}

/// Replica read services per completed read, over every client: the load
/// a selection strategy puts on the pool.
double replica_reads_per_read(harness::Scenario& scenario,
                              const std::vector<harness::ClientResult>& run) {
  std::uint64_t served = 0, reads = 0;
  for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
    served += scenario.replica(i).stats().reads_served;
  }
  for (const auto& client : run) reads += client.stats.reads_completed;
  return ratio(served, reads);
}

SeedRecord run_baselines(const Unit& unit, std::size_t requests) {
  harness::ScenarioConfig config = standard_config(unit.seed, requests);
  for (auto& client : config.clients) {
    client.selector = baseline_selector(unit.point);
  }
  harness::Scenario scenario(std::move(config));
  auto results = scenario.run();
  SeedRecord rec = report_standard(scenario, results, requests);
  rec.value("replica_msgs_per_read", replica_reads_per_read(scenario, results));
  return rec;
}

/// Section 3: the primary/secondary split of a 10-replica pool, from
/// write-all (10/0) to a minimal primary group feeding a lazy tier (2/8).
constexpr std::size_t kGroupPrimaries[] = {10, 8, 6, 4, 2};

SeedRecord run_group_sizing(const Unit& unit, std::size_t requests) {
  harness::ScenarioConfig config = standard_config(unit.seed, requests);
  config.num_primaries = kGroupPrimaries[unit.point];
  config.num_secondaries = 10 - config.num_primaries;
  harness::Scenario scenario(std::move(config));
  auto results = scenario.run();

  // Every primary (and the sequencer) services every update.
  std::uint64_t update_services = 0;
  for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
    update_services += scenario.replica(i).stats().updates_committed;
  }
  SeedRecord rec = report_standard(scenario, results, requests);
  rec.value("avg_update_ms",
            sim::to_ms(results[1].stats.avg_update_response_time()));
  rec.value("update_services_per_update",
            ratio(update_services, results[0].stats.updates_completed +
                                       results[1].stats.updates_completed));
  return rec;
}

/// The paper's mixed 300 MHz-1 GHz testbed: per-replica service-speed
/// factors (sequencer, 4 primaries, 6 secondaries) of increasing skew.
const std::vector<std::vector<double>> kHeterogeneousPools = {
    {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
    {1, 1.8, 1.25, 0.8, 0.55, 1.8, 1.25, 1.0, 0.8, 0.65, 0.55},
    {1, 1.8, 1.8, 1.8, 1.8, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6},
    {1, 0.6, 0.6, 0.6, 0.6, 1.8, 1.8, 1.8, 1.8, 1.8, 1.8},
};

SeedRecord run_heterogeneous(const Unit& unit, std::size_t requests) {
  const std::vector<double>& speeds = kHeterogeneousPools[unit.point];
  harness::ScenarioConfig config = standard_config(unit.seed, requests);
  config.speed_factors = speeds;
  harness::Scenario scenario(std::move(config));
  auto results = scenario.run();

  // Read work that landed on the slowest (first-listed) non-sequencer.
  const std::size_t slowest = static_cast<std::size_t>(
      std::min_element(speeds.begin() + 1, speeds.end()) - speeds.begin());
  std::uint64_t total_reads = 0;
  for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
    total_reads += scenario.replica(i).stats().reads_served;
  }
  SeedRecord rec = report_standard(scenario, results, requests);
  rec.value("slowest_replica_share_pct",
            100.0 * ratio(scenario.replica(slowest).stats().reads_served,
                          total_reads));
  return rec;
}

/// Open-loop Poisson arrivals at a rising offered load, past the pool's
/// saturation point.
constexpr int kOpenLoopGapMs[] = {2000, 1000, 500, 250, 125};

SeedRecord run_open_loop(const Unit& unit, std::size_t requests) {
  const int gap_ms = kOpenLoopGapMs[unit.point];
  harness::ScenarioConfig config = standard_config(unit.seed, requests);
  config.lazy_update_interval = seconds(2);
  for (auto& client : config.clients) {
    client.qos.deadline = milliseconds(200);
    client.request_delay = milliseconds(gap_ms);
    client.arrival = harness::Arrival::kOpenPoisson;
  }
  SeedRecord rec = run_standard(std::move(config));
  rec.value("offered_req_per_s", 2.0 * 1000.0 / gap_ms);
  return rec;
}

/// Message and byte cost by message type for the standard workload.
SeedRecord run_protocol_overhead(const Unit& unit, std::size_t requests) {
  harness::Scenario scenario(standard_config(unit.seed, requests));
  struct CostSink final : obs::TraceSink {
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_type;
    void on_message(const obs::MessageEvent& event) override {
      auto& [messages, bytes] = by_type[event.type_name];
      ++messages;
      bytes += event.wire_size;
    }
  } sink;
  scenario.transport().tracing().add(&sink);
  auto results = scenario.run();
  scenario.transport().tracing().remove(&sink);

  std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      by_type(sink.by_type.begin(), sink.by_type.end());
  std::stable_sort(by_type.begin(), by_type.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.first > b.second.first;
                   });
  std::uint64_t messages = 0, bytes = 0;
  for (const auto& [type, cost] : by_type) {
    messages += cost.first;
    bytes += cost.second;
  }
  const std::uint64_t reads =
      results[0].stats.reads_completed + results[1].stats.reads_completed;
  const std::uint64_t updates =
      results[0].stats.updates_completed + results[1].stats.updates_completed;
  SeedRecord rec;
  rec.value("msgs_per_request", ratio(messages, reads + updates));
  for (const auto& [type, cost] : by_type) {
    rec.value("share_of_msgs_pct." + type, 100.0 * ratio(cost.first, messages));
  }
  rec.counter("messages", messages);
  rec.counter("bytes", bytes);
  rec.counter("reads", reads);
  rec.counter("updates", updates);
  for (const auto& [type, cost] : by_type) {
    rec.counter("messages." + type, cost.first);
    rec.counter("bytes." + type, cost.second);
  }
  collect_invariants(scenario, results, requests / 2).report(rec);
  return rec;
}

// --------------------------------------------------- ordering handlers

/// Section 4 / Fig. 2: the one replica stack under each ordering policy on
/// the same bare pool (3 primaries, the sequencer among them under
/// sequential ordering, and 4 secondaries), alternating put/get with a
/// 200 ms think time.
constexpr std::size_t kOrderingPrimaries = 3;
constexpr std::size_t kOrderingSecondaries = 4;
/// The point that asks a FIFO service for read-your-writes.
constexpr std::size_t kReadYourWritesPoint = 1;

core::QoSSpec ordering_qos() {
  return {.staleness_threshold = 2,
          .deadline = milliseconds(140),
          .min_probability = 0.9};
}

SeedRecord run_ordering_handlers(const Unit& unit, std::size_t requests) {
  const bool fifo = unit.point != 0;
  const bool read_your_writes = unit.point == kReadYourWritesPoint;
  // Under FIFO ordering, staleness threshold 0 is read-your-writes and
  // any other waives the session bound.
  core::QoSSpec qos = ordering_qos();
  if (read_your_writes) qos.staleness_threshold = 0;
  const auto groups = replication::ServiceGroups::for_service(1);

  harness::Testbed bed(unit.seed, std::make_unique<sim::NormalDuration>(
                                      std::chrono::microseconds(500),
                                      std::chrono::microseconds(200)));
  for (std::size_t i = 0; i < kOrderingPrimaries + kOrderingSecondaries; ++i) {
    replication::ReplicaConfig config;
    if (fifo) config.ordering = core::Ordering::kFifo;
    config.service_time = std::make_shared<sim::NormalDuration>(
        milliseconds(100), milliseconds(50));
    config.lazy_update_interval = seconds(2);
    bed.add_replica(groups, i < kOrderingPrimaries, std::move(config),
                    [] { return std::make_unique<replication::KeyValueStore>(); });
  }
  bed.start_replicas();
  client::ClientHandler& client = bed.add_client(groups);
  runtime::Executor& sim = bed.executor();
  sim.run_for(seconds(1));

  std::vector<double> read_ms;
  std::uint64_t failures = 0;
  // Read-your-writes, checked from the reply payload alone: the one client
  // knows the value it last put, so any read returning another is a
  // violation, whatever the replicas' own horizons claim.
  std::string last_put;
  std::uint64_t ryw_violations = 0;
  std::size_t issued = 0;
  std::function<void()> next = [&] {
    if (issued >= requests) return;
    const std::size_t n = issued++;
    const auto again = [&] { sim.after(milliseconds(200), next); };
    if (n % 2 == 0) {
      auto put = std::make_shared<replication::KvPut>();
      put->key = "k";
      put->value = std::to_string(n);
      last_put = put->value;
      client.update(put, [again](const client::UpdateOutcome&) { again(); });
    } else {
      auto get = std::make_shared<replication::KvGet>();
      get->key = "k";
      client.read(get, qos, [&, again](const client::ReadOutcome& o) {
        read_ms.push_back(sim::to_ms(o.response_time));
        if (o.timing_failure) ++failures;
        if (auto result = net::message_cast<replication::KvResult>(o.result)) {
          if (result->value != last_put) ++ryw_violations;
        }
        again();
      });
    }
  };
  next();
  sim.run_for(seconds(static_cast<std::int64_t>(2 * requests)));
  SeedRecord rec;
  rec.value("avg_replicas_selected", client.stats().avg_replicas_selected());
  rec.counter("reads", read_ms.size());
  rec.counter("timing_failures", failures);
  if (read_your_writes) rec.counter("ryw_violations", ryw_violations);
  rec.sample("read_ms", std::move(read_ms));
  return rec;
}

// ------------------------------------------------------- staleness model

/// Eq. 4 validation by Monte Carlo: the empirical P(N(t_l) <= a) of an
/// arrival process (Poisson, or bursty on/off) against the Poisson model
/// the paper uses and the empirical resampling model. `requests` is the
/// Monte-Carlo window count per point.
constexpr double kStalenessRate = 1.0;  // updates per second
constexpr core::Staleness kStalenessThreshold = 2;
constexpr double kStalenessWindowsSec[] = {0.5, 1.0, 2.0, 3.0, 4.0, 6.0};

/// Inter-arrival gap of a bursty process: 1 in 4 gaps is a long silence,
/// the rest are in-burst, keeping the long-run rate near `rate_per_s`.
sim::Duration bursty_gap(sim::Rng& rng, double rate_per_s) {
  const double mean_s = 1.0 / rate_per_s;
  if (rng.bernoulli(0.25)) {
    return sim::from_sec(rng.exponential(1.0 / (3.0 * mean_s)));
  }
  return sim::from_sec(rng.exponential(1.0 / (0.33 * mean_s)));
}

sim::Duration arrival_gap(sim::Rng& rng, bool bursty) {
  return bursty ? bursty_gap(rng, kStalenessRate)
                : sim::from_sec(rng.exponential(kStalenessRate));
}

SeedRecord run_staleness_model(const Unit& unit, std::size_t windows) {
  constexpr std::size_t kWindows = std::size(kStalenessWindowsSec);
  const bool bursty = unit.point >= kWindows;
  const sim::Duration t_l =
      sim::from_sec(kStalenessWindowsSec[unit.point % kWindows]);

  // Ground truth: count the arrivals inside `windows` fresh intervals.
  sim::Rng rng(unit.seed);
  std::size_t within = 0;
  for (std::size_t w = 0; w < windows; ++w) {
    sim::Duration elapsed = sim::Duration::zero();
    core::Staleness count = 0;
    while (count <= kStalenessThreshold) {
      elapsed += arrival_gap(rng, bursty);
      if (elapsed > t_l) break;
      ++count;
    }
    if (count <= kStalenessThreshold) ++within;
  }
  // The empirical model resamples 200 observed gaps of the same process
  // (what a monitoring window would hold).
  sim::Rng gap_rng(unit.seed + 17);
  std::vector<sim::Duration> gaps;
  for (int i = 0; i < 200; ++i) gaps.push_back(arrival_gap(gap_rng, bursty));
  const double truth = ratio(within, windows);
  const double poisson = core::PoissonStalenessModel(kStalenessRate)
                             .staleness_factor(kStalenessThreshold, t_l);
  // One model answers the windows in ascending order and its resampling
  // RNG carries over between queries, so the earlier windows are asked
  // first.
  const core::EmpiricalStalenessModel model(gaps, unit.seed + 29, 4000);
  double empirical = 0.0;
  for (std::size_t w = 0; w <= unit.point % kWindows; ++w) {
    empirical = model.staleness_factor(
        kStalenessThreshold, sim::from_sec(kStalenessWindowsSec[w]));
  }

  SeedRecord rec;
  rec.value("ground_truth", truth);
  rec.value("poisson_model", poisson);
  rec.value("poisson_abs_err", std::abs(poisson - truth));
  rec.value("empirical_model", empirical);
  rec.value("empirical_abs_err", std::abs(empirical - truth));
  return rec;
}

// ------------------------------------------------------------- exit gates

/// The gate every plan shares: no unit threw, no invariant broke.
std::string common_failure(const SweepResult& result) {
  if (!result.all_ok()) {
    return std::to_string(result.failed) + " unit(s) threw";
  }
  if (const std::uint64_t v = result.pooled_counter_or_zero("violations")) {
    return std::to_string(v) + " invariant violation(s)";
  }
  return {};
}

std::string no_gsn_conflicts(const SweepSpec&, const SweepResult& result) {
  const std::uint64_t conflicts = result.pooled_counter_or_zero("gsn_conflicts");
  return conflicts == 0 ? ""
                        : std::to_string(conflicts) + " GSN conflict(s)";
}

std::string recovery_check(const SweepSpec& spec, const SweepResult& result) {
  const std::uint64_t recovered = result.pooled_counter_or_zero("recovered");
  if (recovered != result.rows.size()) {
    return "recovered in " + std::to_string(recovered) + "/" +
           std::to_string(result.rows.size()) + " units";
  }
  return no_gsn_conflicts(spec, result);
}

std::string no_ryw_violations(const SweepSpec&, const SweepResult& result) {
  const std::uint64_t v = result.pooled_counter_or_zero("ryw_violations");
  return v == 0 ? "" : std::to_string(v) + " read-your-writes violation(s)";
}

/// The chaos layer must actually have fired.
std::string gray_failure_check(const SweepSpec&, const SweepResult& result) {
  std::uint64_t injected = 0;
  for (const char* c : {"messages_duplicated", "messages_reordered",
                        "messages_delayed", "messages_dropped_loss"}) {
    injected += result.pooled_counter_or_zero(c);
  }
  return injected > 0 ? "" : "no faults injected";
}

/// Every shard loses and restarts its rack slot at the correlated_rack
/// point, so that point must show restarts.
constexpr std::size_t kCorrelatedRackPoint = 2;

std::string hot_shard_check(const SweepSpec& spec, const SweepResult& result) {
  return point_result(spec, result, kCorrelatedRackPoint)
                     .pooled_counter_or_zero("reborn") > 0
             ? ""
             : "no replica restarts at the correlated_rack point";
}

std::vector<std::string> staleness_points() {
  std::vector<std::string> points;
  for (const char* process : {"poisson", "bursty"}) {
    for (const double t_l : kStalenessWindowsSec) {
      points.push_back(std::string(process) + " t_l=" +
                       harness::Table::num(t_l, 1) + "s");
    }
  }
  return points;
}

std::vector<Plan> build_plans() {
  std::vector<std::string> fig4_points;
  for (const int d : fig4_deadlines_ms()) {
    for (const Fig4Config& c : fig4_configs()) {
      fig4_points.push_back("d=" + std::to_string(d) + "ms " + c.label());
    }
  }
  const std::vector<BinomialSpec> timing_failure = {
      {"timing_failure", "timing_failures", "reads_completed"},
  };
  // The measured client's timing failures and deferrals.
  const std::vector<BinomialSpec> client = {
      {"timing_failure", "timing_failures", "reads_completed"},
      {"deferred", "deferred_replies", "reads_completed"},
  };
  const std::vector<BinomialSpec> windowed = {
      {"degraded_timing_failure", "degraded_failures", "degraded_reads"},
      {"steady_timing_failure", "steady_failures", "steady_reads"},
  };

  std::vector<Plan> all = {
      {.name = "recovery",
       .description = "primary crash at t=8s, restart at t=14s: "
                      "time-to-rejoin, time-to-first-selection, outage vs "
                      "steady timing failures",
       .default_requests = 300,
       .points = {"crash_restart_primary"},
       .binomials = {{"outage_timing_failure", "outage_failures",
                      "outage_reads"},
                     {"steady_timing_failure", "steady_failures",
                      "steady_reads"}},
       .run = run_recovery,
       .check = recovery_check},
      {.name = "failure_injection",
       .description = "adaptivity under replica crashes: baseline, primary, "
                      "two secondaries, sequencer, crash+recovery",
       .default_requests = 400,
       .points = {"baseline", "primary_crash", "two_secondary_crashes",
                  "sequencer_crash", "primary_crash_recovery"},
       .binomials = timing_failure,
       .run = run_failure_injection,
       .check = no_gsn_conflicts},
      {.name = "fig4_adaptivity",
       .description = "Figure 4 grid: 4 (Pc, LUI) configs x 8 deadlines, "
                      "client 2 measured",
       .default_requests = 1000,
       .points = fig4_points,
       .binomials = timing_failure,
       .run = run_fig4},
      {.name = "chaos",
       .description = "randomized loss + crashes; safety/liveness invariant "
                      "violations (must pool to 0)",
       .default_requests = 80,
       .points = {"crash_loss"},
       .run = run_chaos},
      {.name = "gray_failure",
       .description = "gray-failure severity ladder (reorder/duplication/"
                      "slow links/partial partition) over the chaos "
                      "transport: timing-failure rate and time-to-detect vs "
                      "severity; safety counters must pool to 0",
       .default_requests = 120,
       .points = {"baseline", "mild", "moderate", "severe"},
       .binomials = windowed,
       .run = run_gray_failure,
       .check = gray_failure_check},
      {.name = "gray_chaos",
       .description = "randomized reorder+duplication+partial-partition gray "
                      "chaos over the chaos transport; invariant violations "
                      "must pool to 0",
       .default_requests = 80,
       .points = {"gray"},
       .run = run_gray_chaos},
      {.name = "shard_scaling",
       .description = "sharded service at 1/4/16 replica groups (sequencer "
                      "+ 1 primary + 1 secondary each) on one substrate: "
                      "routing balance, intra-shard agreement, and "
                      "key-placement invariants (must pool to 0)",
       .default_requests = 120,
       .points = {"shards_1", "shards_4", "shards_16"},
       .binomials = timing_failure,
       .run = run_shard_scaling},
      {.name = "hot_shard",
       .description = "cross-shard fault matrix on a 16-shard pool: uniform "
                      "baseline, one hot (overloaded) replica group, "
                      "correlated rack failure; per-window failure rates "
                      "plus agreement/placement invariants (must pool to 0)",
       .default_requests = 120,
       .points = {"uniform", "hot_shard", "correlated_rack"},
       .binomials = windowed,
       .run = run_hot_shard,
       .check = hot_shard_check},
      {.name = "chaos_recovery",
       .description = "randomized crash+restart chaos; invariants across "
                      "reincarnations (must pool to 0)",
       .default_requests = 80,
       .points = {"crash_restart_loss"},
       .run = run_chaos_recovery},
      {.name = "ablation_lui",
       .description = "Section 7 ablation: lazy-update interval 1/2/4/8 s "
                      "on the standard workload, client 2 measured",
       .default_requests = 1000,
       .points = {"lui_1s", "lui_2s", "lui_4s", "lui_8s"},
       .binomials = client,
       .run = run_ablation_lui},
      {.name = "ablation_request_delay",
       .description = "Section 7 ablation: request delay 250-2000 ms (the "
                      "update rate) on the standard workload",
       .default_requests = 1000,
       .points = {"delay_250ms", "delay_500ms", "delay_1000ms",
                  "delay_2000ms"},
       .binomials = client,
       .run = run_ablation_request_delay},
      {.name = "baselines",
       .description = "Section 5 baselines: Algorithm 1 and its two rules "
                      "ablated vs select-all / select-one / fixed-k",
       .default_requests = 1000,
       .points = {"probabilistic (Algorithm 1)",
                  "probabilistic, no failure allowance",
                  "probabilistic, greedy CDF order", "select-all",
                  "select-one (random)", "select-one (LRU)",
                  "fixed-k (k=3)"},
       .binomials = client,
       .run = run_baselines},
      {.name = "staleness_model",
       .description = "Eq. 4 validation: Poisson and empirical staleness "
                      "factors vs Monte-Carlo ground truth (requests = "
                      "windows per point), Poisson and bursty arrivals",
       .default_requests = 20000,
       .points = staleness_points(),
       .run = run_staleness_model},
      {.name = "group_sizing",
       .description = "Section 3: primary/secondary split of a 10-replica "
                      "pool, 10/0 to 2/8",
       .default_requests = 1000,
       .points = {"10p+0s", "8p+2s", "6p+4s", "4p+6s", "2p+8s"},
       .binomials = client,
       .run = run_group_sizing},
      {.name = "heterogeneous",
       .description = "the paper's mixed-speed testbed: per-replica speed "
                      "skew and routing around slow hosts",
       .default_requests = 1000,
       .points = {"homogeneous (all 1.0x)", "mixed (paper-like 0.55x-1.8x)",
                  "fast primaries, slow secondaries",
                  "slow primaries, fast secondaries"},
       .binomials = client,
       .run = run_heterogeneous},
      {.name = "open_loop",
       .description = "open-loop Poisson arrivals: offered-load sweep to "
                      "saturation",
       .default_requests = 600,
       .points = {"interarrival_2000ms", "interarrival_1000ms",
                  "interarrival_500ms", "interarrival_250ms",
                  "interarrival_125ms"},
       .binomials = client,
       .run = run_open_loop},
      {.name = "ordering_handlers",
       .description = "Section 4 / Fig. 2: sequential (TOTAL) vs FIFO "
                      "ordering read cost on one bare pool; FIFO "
                      "read-your-writes checked from the reply payload",
       .default_requests = 600,
       .points = {"sequential (TOTAL order)", "FIFO + read-your-writes",
                  "FIFO (no session bound)"},
       .binomials = {{"timing_failure", "timing_failures", "reads"}},
       .run = run_ordering_handlers,
       .check = no_ryw_violations},
      {.name = "protocol_overhead",
       .description = "messages and bytes by message type for the standard "
                      "workload",
       .default_requests = 1000,
       .points = {"standard"},
       .run = run_protocol_overhead},
  };
  // Every gate starts with the shared one.
  for (Plan& p : all) {
    p.check = [extra = std::move(p.check)](const SweepSpec& spec,
                                           const SweepResult& result) {
      std::string failure = common_failure(result);
      if (failure.empty() && extra) failure = extra(spec, result);
      return failure;
    };
  }
  return all;
}

}  // namespace

const std::vector<Plan>& plans() {
  static const std::vector<Plan> all = build_plans();
  return all;
}

const Plan* find_plan(const std::string& name) {
  for (const Plan& p : plans()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

SweepSpec make_spec(const Plan& plan, std::uint64_t seed_begin,
                    std::size_t seed_count, std::size_t threads,
                    std::size_t requests) {
  const std::size_t effective_requests =
      requests == 0 ? plan.default_requests : requests;
  SweepSpec spec;
  spec.name = plan.name;
  spec.threads = threads;
  spec.binomials = plan.binomials;
  for (std::size_t point = 0; point < plan.points.size(); ++point) {
    for (std::uint64_t s = 0; s < seed_count; ++s) {
      Unit unit;
      unit.seed = seed_begin + s;
      unit.point = point;
      unit.label = plan.points.size() == 1
                       ? "seed_" + std::to_string(unit.seed)
                       : plan.points[point] + " seed_" + std::to_string(unit.seed);
      spec.units.push_back(std::move(unit));
    }
  }
  const auto run_body = plan.run;
  spec.run = [run_body, effective_requests](const Unit& unit) {
    return run_body(unit, effective_requests);
  };
  return spec;
}

void Invariants::report(SeedRecord& rec) const {
  rec.counter("liveness_violations", liveness_violations);
  rec.counter("staleness_violations", staleness_violations);
  rec.counter("gsn_conflicts", gsn_conflicts);
  rec.counter("csn_mismatches", csn_mismatches);
  rec.counter("divergences", divergences);
  rec.counter("leaked_keys", leaked_keys);
  rec.counter("violations", liveness_violations + safety_violations());
}

Invariants collect_invariants(harness::Scenario& scenario,
                              const std::vector<harness::ClientResult>& results,
                              std::uint64_t expected_reads) {
  Invariants inv;
  for (const auto& r : results) {
    if (r.stats.reads_completed + r.stats.reads_abandoned != expected_reads) {
      ++inv.liveness_violations;
    }
    inv.staleness_violations += r.stats.staleness_violations;
  }
  const std::size_t sps = scenario.servers_per_shard();
  const auto live_primary = [](const replication::ReplicaServer& replica) {
    return !replica.crashed() && replica.is_primary() && !replica.recovering();
  };
  for (std::size_t shard = 0; shard < scenario.num_shards(); ++shard) {
    std::uint64_t max_csn = 0;
    for (std::size_t slot = 0; slot < sps; ++slot) {
      const auto& replica = scenario.replica(scenario.slot_index(shard, slot));
      inv.gsn_conflicts += replica.stats().gsn_conflicts;
      const auto& store =
          dynamic_cast<const replication::KeyValueStore&>(replica.object());
      for (const auto& [key, value] : store.entries()) {
        if (scenario.shard_map().shard_for(key) != shard) ++inv.leaked_keys;
      }
      if (!live_primary(replica)) continue;
      if (store.version() != replica.csn()) ++inv.csn_mismatches;
      max_csn = std::max(max_csn, replica.csn());
    }
    for (std::size_t slot = 1; slot < sps; ++slot) {
      const auto& replica = scenario.replica(scenario.slot_index(shard, slot));
      if (live_primary(replica) && replica.csn() + 2 < max_csn) {
        ++inv.divergences;
      }
    }
  }
  return inv;
}

}  // namespace aqueduct::runner
