// Experiment scenario: a config-driven layer over one harness::Testbed —
// sequencer + primary + secondary replicas and workload clients on one
// simulated LAN — that runs the workloads to completion.
//
// The default configuration mirrors the paper's Section 6 setup: 10 server
// replicas plus a sequencer (4 primary, 6 secondary), service delay drawn
// from a normal distribution with mean 100 ms, two clients issuing 1000
// alternating write/read requests with a 1000 ms request delay.
//
// With `num_shards > 1` the scenario partitions the object space across
// that many independent replica groups (each with its own sequencer,
// primaries, and secondaries) sharing one transport, one directory, and one
// executor; clients route keyed requests through a shard::ShardRouter.
// `num_shards == 1` is byte-for-byte the pre-shard scenario: same
// construction order, same RNG draws, same metric names.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/handler.hpp"
#include "core/qos.hpp"
#include "core/selection.hpp"
#include "fault/dependability.hpp"
#include "fault/schedule.hpp"
#include "gcs/config.hpp"
#include "gcs/endpoint.hpp"
#include "harness/testbed.hpp"
#include "net/transport.hpp"
#include "obs/snapshot.hpp"
#include "replication/objects.hpp"
#include "replication/replica.hpp"
#include "replication/service.hpp"
#include "runtime/executor.hpp"
#include "shard/router.hpp"
#include "shard/shard_map.hpp"

namespace aqueduct::harness {

/// Factory so each client can use a different selection strategy.
using SelectorFactory = std::function<std::unique_ptr<core::ReplicaSelector>()>;

/// How a workload client paces its requests.
enum class Arrival {
  /// The paper's model: the next request is issued `request_delay` after
  /// the previous one *completes* (self-throttling).
  kClosedLoop,
  /// Open loop: requests arrive as a Poisson process with mean
  /// inter-arrival `request_delay`, regardless of completions — models
  /// external demand and exposes queueing behaviour.
  kOpenPoisson,
  /// Open loop with fixed inter-arrival `request_delay`.
  kOpenPeriodic,
};

struct ClientSpec {
  core::QoSSpec qos;
  /// Pacing parameter; meaning depends on `arrival`.
  sim::Duration request_delay = std::chrono::milliseconds(1000);
  /// Total requests issued, alternating write/read (even = write).
  std::size_t num_requests = 1000;
  /// Distinct keys the workload cycles over ("k0".."k<n-1>", request n
  /// touching key n % num_keys). In a sharded scenario the ShardMap
  /// spreads these keys across the replica groups.
  std::size_t num_keys = 16;
  /// Null = the paper's probabilistic selector (Algorithm 1).
  SelectorFactory selector;
  Arrival arrival = Arrival::kClosedLoop;
};

struct ScenarioConfig {
  std::uint64_t seed = 1;
  /// Which runtime drives the scenario. kSim (the default) reproduces the
  /// paper's discrete-event experiments deterministically; kRealTime runs
  /// the identical protocol stack against the wall clock (live_cli).
  runtime::Kind runtime = runtime::Kind::kSim;
  /// Independent replica groups the object space is partitioned across.
  /// Every shard gets its own sequencer + primaries + secondaries (the
  /// sizes below are per shard) on the shared substrate.
  std::size_t num_shards = 1;
  std::size_t num_primaries = 4;    // excluding the sequencer
  std::size_t num_secondaries = 6;
  /// Simulated background load: service delay ~ Normal(mean, std).
  sim::Duration service_mean = std::chrono::milliseconds(100);
  sim::Duration service_std = std::chrono::milliseconds(50);
  /// Lazy-update interval T_L.
  sim::Duration lazy_update_interval = std::chrono::seconds(4);
  /// LAN latency model: Normal(mean, std) truncated at 50 µs.
  sim::Duration net_latency_mean = std::chrono::microseconds(500);
  sim::Duration net_latency_std = std::chrono::microseconds(200);
  /// Sliding-window length l.
  std::size_t window_size = 20;
  /// Per-replica service-speed factors modelling a heterogeneous testbed
  /// (the paper's hosts ranged 300 MHz-1 GHz). Factor f scales the
  /// replica's service-time distribution by 1/f (2.0 = twice as fast).
  /// Indexed like replica(): flat over shards — shard s's sequencer is
  /// index s * (1 + primaries + secondaries), then its primaries, then its
  /// secondaries; missing entries default to 1.0.
  std::vector<double> speed_factors;
  gcs::Config gcs;
  std::vector<ClientSpec> clients;
  /// Safety cap on simulated (or, under kRealTime, wall-clock) time.
  sim::Duration max_sim_time = std::chrono::hours(24);
  /// Trailing run time after the workloads finish (or max_sim_time is
  /// reached) so late replies and final publications drain. Under
  /// kRealTime this is real seconds — live_cli shortens it.
  sim::Duration drain = std::chrono::seconds(2);
  /// Wraps the transport in the chaos decorator so fault schedules can
  /// script gray failures (degrade_link, partial_partition,
  /// duplicate_storm, reorder, throttle_link, WAN matrices) on top of the
  /// crash-era faults. Decisions are drawn from the run's seed.
  bool chaos = false;
  /// How long after a group evicts a still-running replica (gray failure:
  /// partial partition or slow link fooled the failure detector) the
  /// harness reincarnates the slot, modelling a process supervisor. The
  /// evicted server has already crash()ed itself; zero disables restarts.
  sim::Duration eviction_restart_delay = std::chrono::seconds(1);
};

/// Per-client results of a run.
struct ClientResult {
  client::ClientStats stats;
  /// Response times of completed reads (seconds), for percentiles.
  std::vector<double> read_response_times;
  /// Staleness values observed in read replies.
  std::vector<double> reply_staleness;
  /// Completion time of each read (seconds since the simulation epoch),
  /// parallel to read_response_times — lets benches attribute outcomes to
  /// an outage window.
  std::vector<double> read_completed_at;
  /// Whether each read missed its deadline, parallel to the above.
  std::vector<bool> read_timing_failures;
};

class WorkloadClient;

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Boots replicas and clients (staggered joins), then drives the
  /// simulation until every workload completed (or max_sim_time).
  /// Returns per-client results in ClientSpec order.
  std::vector<ClientResult> run();

  /// Schedules a fail-stop crash of the i-th replica at `at` (flat index:
  /// shard-major, slot 0 of each shard is its sequencer; see
  /// slot_index()).
  void schedule_crash(std::size_t replica_index, sim::TimePoint at);

  /// Schedules a restart (reincarnation + rejoin) of the i-th replica.
  void schedule_restart(std::size_t replica_index, sim::TimePoint at);

  /// Immediately crashes the i-th replica (no-op if already crashed).
  void crash_replica(std::size_t replica_index);

  /// Restarts the i-th replica slot now: crashes it if still live, destroys
  /// the dead server, reincarnates the endpoint under a fresh NodeId, and
  /// boots a new ReplicaServer that rejoins its shard's service groups and
  /// runs the state-transfer protocol. Callable any number of times per
  /// slot.
  void restart_replica(std::size_t replica_index);

  /// How many times the i-th replica slot has been reborn (0 = original).
  std::uint32_t incarnation(std::size_t replica_index) const;

  /// Current NodeId of the i-th replica slot (changes across restarts).
  net::NodeId replica_node(std::size_t replica_index) const;

  /// Live = started (or about to be, pre-run) and not crashed.
  bool replica_alive(std::size_t replica_index) const;

  /// Schedules every event of `schedule` onto this scenario's executor
  /// (crashes/restarts resolve against (shard, slot) replica slots;
  /// network faults against the current incarnations' NodeIds). Call
  /// before run().
  void apply_faults(const fault::FaultSchedule& schedule);

  /// Installs a dependability manager that polls the replication level and
  /// restarts crashed slots with bounded latency. Call before run().
  void enable_dependability(fault::DependabilityConfig config);
  const fault::DependabilityManager* dependability() const {
    return dependability_.get();
  }

  /// Shard 0's sequencer (the only one pre-shard code knew about).
  std::size_t index_sequencer() const { return 0; }
  /// Sequencer slot of shard `shard`.
  std::size_t index_sequencer(std::size_t shard) const {
    return shard * servers_per_shard();
  }
  std::size_t num_replicas() const { return bed_.num_replicas(); }

  // ---- shard topology ----
  std::size_t num_shards() const { return config_.num_shards; }
  /// Server slots per shard: sequencer + primaries + secondaries.
  std::size_t servers_per_shard() const {
    return 1 + config_.num_primaries + config_.num_secondaries;
  }
  /// Flat replica index of shard `shard`'s `slot`-th server.
  std::size_t slot_index(std::size_t shard, std::size_t slot) const {
    return shard * servers_per_shard() + slot;
  }
  /// Shard that owns flat replica index `replica_index`.
  std::size_t shard_of(std::size_t replica_index) const {
    return replica_index / servers_per_shard();
  }
  /// The key-placement ring clients route by (seeded from config.seed).
  const shard::ShardMap& shard_map() const { return shard_map_; }
  /// Shard `shard`'s gcs group ids.
  const replication::ServiceGroups& groups(std::size_t shard = 0) const {
    return groups_.at(shard);
  }

  runtime::Executor& executor() { return bed_.executor(); }
  replication::ReplicaServer& replica(std::size_t index) { return bed_.replica(index); }
  std::size_t num_workloads() const { return workloads_.size(); }
  WorkloadClient& workload(std::size_t index) { return *workloads_.at(index); }
  /// Snapshot of the transport counters (assembled from the metrics
  /// registry).
  net::TransportStats transport_stats() const { return bed_.transport().stats(); }
  /// The transport every scenario process is attached to (a loopback,
  /// chaos-wrapped when config.chaos is set).
  net::Transport& transport() { return bed_.transport(); }
  /// The simulation-wide metrics registry + trace hub. Register trace
  /// sinks here before run().
  obs::Observability& observability() { return transport().observability(); }

  /// Enables periodic telemetry: a MetricsSnapshotter on this scenario's
  /// executor capturing the registry every `period` (simulated time under
  /// kSim, wall time under kRealTime). Call before run(), then subscribe
  /// sinks on the returned snapshotter. run() starts it with the scenario
  /// and captures one final snapshot after the drain. Snapshot callbacks
  /// read metrics but never touch protocol state or the RNG, so enabling
  /// telemetry does not perturb the simulated trajectory.
  obs::MetricsSnapshotter& enable_telemetry(sim::Duration period);
  /// Null until enable_telemetry() is called.
  obs::MetricsSnapshotter* telemetry() { return snapshotter_.get(); }

 private:
  void build();
  /// The ReplicaConfig of flat slot `index` (its speed factor scales the
  /// service time).
  replication::ReplicaConfig replica_config(std::size_t index) const;
  /// Re-computes shard `shard`'s `shard<k>.replicas_live` gauge (no-op in
  /// single-shard mode, where the gauges are not registered).
  void refresh_live_gauge(std::size_t shard);

  ScenarioConfig config_;
  shard::ShardMap shard_map_;
  // Replicas are flat and shard-major: bed_.replica(slot_index(s, 0)) is
  // shard s's sequencer, then come its primaries, then its secondaries.
  Testbed bed_;
  /// groups_[k] = shard k's gcs group ids (service id 1 + k).
  std::vector<replication::ServiceGroups> groups_;
  std::vector<std::unique_ptr<WorkloadClient>> workloads_;
  std::vector<obs::Gauge*> live_gauges_;  // per shard; empty when 1 shard
  std::unique_ptr<fault::DependabilityManager> dependability_;
  std::unique_ptr<obs::MetricsSnapshotter> snapshotter_;
  bool ran_ = false;
};

/// Drives one client: issues `num_requests` alternating write/read
/// operations against the replicated key-value store (routed per key
/// through a ShardRouter), waiting `request_delay` after each completion
/// before issuing the next.
class WorkloadClient {
 public:
  WorkloadClient(runtime::Executor& exec, gcs::Endpoint& endpoint,
                 const shard::ShardMap& map,
                 std::vector<replication::ServiceGroups> groups,
                 ClientSpec spec, std::size_t window_size);

  void start();
  bool done() const { return completed_ >= spec_.num_requests; }
  /// Shard 0's handler — the only one in a single-shard scenario (kept so
  /// pre-shard tests and benches read repository/selector state as
  /// before).
  const client::ClientHandler& handler() const { return router_->handler(0); }
  client::ClientHandler& handler() { return router_->handler(0); }
  const shard::ShardRouter& router() const { return *router_; }
  shard::ShardRouter& router() { return *router_; }
  ClientResult result() const { return result_with_stats(); }

 private:
  ClientResult result_with_stats() const;
  void issue_next();
  void on_complete();
  void schedule_open_arrival();

  runtime::Executor& exec_;
  ClientSpec spec_;
  std::unique_ptr<shard::ShardRouter> router_;
  std::unique_ptr<sim::Rng> arrival_rng_;
  std::size_t issued_ = 0;
  std::size_t completed_ = 0;
  std::vector<double> read_response_times_;
  std::vector<double> reply_staleness_;
  std::vector<double> read_completed_at_;
  std::vector<bool> read_timing_failures_;
};

}  // namespace aqueduct::harness
