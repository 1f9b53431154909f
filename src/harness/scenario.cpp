#include "harness/scenario.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/check.hpp"

namespace aqueduct::harness {

// ---------------------------------------------------------------------------
// WorkloadClient
// ---------------------------------------------------------------------------

WorkloadClient::WorkloadClient(runtime::Executor& exec, gcs::Endpoint& endpoint,
                               const shard::ShardMap& map,
                               std::vector<replication::ServiceGroups> groups,
                               ClientSpec spec, std::size_t window_size)
    : exec_(exec), spec_(std::move(spec)) {
  // One handler per shard, constructed in shard order by the router so the
  // per-handler RNG splits are deterministic. The shard tag is only set in
  // a genuinely sharded run: the single-shard SLA gauges must keep their
  // pre-shard names bit-for-bit.
  const bool sharded = map.num_shards() > 1;
  router_ = std::make_unique<shard::ShardRouter>(
      exec, endpoint, map, std::move(groups),
      [this, window_size, sharded](std::size_t shard) {
        client::ClientConfig config;
        config.window_size = window_size;
        if (spec_.selector) config.selector = spec_.selector();
        if (sharded) config.shard = static_cast<std::int64_t>(shard);
        return config;
      });
}

void WorkloadClient::start() {
  router_->start();
  if (spec_.arrival == Arrival::kClosedLoop) {
    issue_next();
  } else {
    arrival_rng_ = std::make_unique<sim::Rng>(exec_.rng().split());
    schedule_open_arrival();
  }
}

void WorkloadClient::schedule_open_arrival() {
  if (issued_ >= spec_.num_requests) return;
  const sim::Duration gap =
      spec_.arrival == Arrival::kOpenPoisson
          ? arrival_rng_->exponential_duration(spec_.request_delay)
          : spec_.request_delay;
  exec_.after(gap, [this] {
    issue_next();
    schedule_open_arrival();
  });
}

void WorkloadClient::issue_next() {
  if (issued_ >= spec_.num_requests) return;
  const std::size_t n = issued_++;
  const std::string key = "k" + std::to_string(n % spec_.num_keys);
  if (n % 2 == 0) {
    // Write: put a fresh value.
    auto put = std::make_shared<replication::KvPut>();
    put->key = key;
    put->value = "v" + std::to_string(n);
    router_->update(key, put,
                    [this](const client::UpdateOutcome&) { on_complete(); });
  } else {
    auto get = std::make_shared<replication::KvGet>();
    get->key = key;
    router_->read(key, get, spec_.qos,
                  [this](const client::ReadOutcome& outcome) {
                    read_response_times_.push_back(
                        sim::to_sec(outcome.response_time));
                    reply_staleness_.push_back(
                        static_cast<double>(outcome.staleness));
                    read_completed_at_.push_back(
                        sim::to_sec(exec_.now() - sim::kEpoch));
                    read_timing_failures_.push_back(outcome.timing_failure);
                    on_complete();
                  });
  }
}

void WorkloadClient::on_complete() {
  ++completed_;
  if (spec_.arrival != Arrival::kClosedLoop) return;  // arrivals self-pace
  if (issued_ >= spec_.num_requests) return;
  exec_.after(spec_.request_delay, [this] { issue_next(); });
}

ClientResult WorkloadClient::result_with_stats() const {
  ClientResult r;
  r.stats = router_->stats();
  r.read_response_times = read_response_times_;
  r.reply_staleness = reply_staleness_;
  r.read_completed_at = read_completed_at_;
  r.read_timing_failures = read_timing_failures_;
  return r;
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)),
      shard_map_(config_.seed, config_.num_shards == 0 ? 1 : config_.num_shards),
      bed_(config_.seed,
           std::make_unique<sim::NormalDuration>(config_.net_latency_mean,
                                                 config_.net_latency_std),
           config_.runtime, config_.chaos, config_.gcs) {
  build();
}

Scenario::~Scenario() = default;

void Scenario::build() {
  AQUEDUCT_CHECK_MSG(config_.num_shards >= 1, "num_shards must be >= 1");
  // Shard k's groups live under service id 1 + k; all shards share the one
  // transport/directory substrate (gcs multiplexes by group id).
  groups_.reserve(config_.num_shards);
  for (std::size_t k = 0; k < config_.num_shards; ++k) {
    groups_.push_back(replication::ServiceGroups::for_service(
        static_cast<std::uint32_t>(1 + k)));
  }

  // A group that ejects a live-but-gray replica leaves the server crashed;
  // reincarnate the slot after a supervisor delay (the reborn process joins
  // under a fresh NodeId, escaping any identity-keyed blackhole).
  if (config_.eviction_restart_delay > sim::Duration::zero()) {
    bed_.set_on_evicted([this](std::size_t index) {
      refresh_live_gauge(shard_of(index));
      executor().after(config_.eviction_restart_delay, [this, index] {
        if (!replica_alive(index)) restart_replica(index);
      });
    });
  }

  // Flat shard-major layout. Within a shard, the sequencer (slot 0) is the
  // first primary-group joiner (rank 0 = leader), then primaries, then
  // secondaries.
  const std::size_t num_servers = config_.num_shards * servers_per_shard();
  for (std::size_t index = 0; index < num_servers; ++index) {
    const bool is_primary =
        index % servers_per_shard() <= config_.num_primaries;  // 0 = sequencer
    bed_.add_replica(groups_[shard_of(index)], is_primary, replica_config(index),
                     [] { return std::make_unique<replication::KeyValueStore>(); });
  }

  // Per-shard liveness gauges only exist in a genuinely sharded run: a new
  // metric name would change the single-shard telemetry digest.
  if (config_.num_shards > 1) {
    obs::MetricsRegistry& reg = observability().metrics;
    for (std::size_t k = 0; k < config_.num_shards; ++k) {
      live_gauges_.push_back(
          &reg.gauge("shard" + std::to_string(k) + ".replicas_live"));
      live_gauges_.back()->set(static_cast<double>(servers_per_shard()));
    }
  }

  for (const ClientSpec& spec : config_.clients) {
    workloads_.push_back(std::make_unique<WorkloadClient>(
        executor(), bed_.add_client_endpoint(), shard_map_, groups_, spec,
        config_.window_size));
  }
}

obs::MetricsSnapshotter& Scenario::enable_telemetry(sim::Duration period) {
  AQUEDUCT_CHECK_MSG(!ran_, "enable_telemetry() must precede run()");
  AQUEDUCT_CHECK_MSG(!snapshotter_, "telemetry already enabled");
  snapshotter_ = std::make_unique<obs::MetricsSnapshotter>(
      executor(), observability().metrics, period);
  return *snapshotter_;
}

std::vector<ClientResult> Scenario::run() {
  AQUEDUCT_CHECK_MSG(!ran_, "Scenario::run() called twice");
  ran_ = true;
  if (snapshotter_) snapshotter_->start();

  // Staggered start: each shard's sequencer boots before its followers so
  // it becomes that primary group's leader; clients follow after the
  // groups have settled.
  sim::Duration at = bed_.start_replicas() + std::chrono::milliseconds(500);
  runtime::Executor& exec = executor();
  for (auto& workload : workloads_) {
    exec.after(at, [w = workload.get()] { w->start(); });
    at += std::chrono::milliseconds(10);
  }

  const sim::TimePoint deadline = exec.now() + config_.max_sim_time;
  while (exec.now() < deadline) {
    const bool all_done =
        std::all_of(workloads_.begin(), workloads_.end(),
                    [](const auto& w) { return w->done(); });
    if (all_done) break;
    exec.run_for(std::chrono::seconds(1));
  }
  // Drain trailing protocol work (late replies, final publications).
  exec.run_for(config_.drain);
  if (snapshotter_) {
    snapshotter_->stop();
    snapshotter_->capture_now();  // pick up the post-drain tail
  }

  std::vector<ClientResult> results;
  results.reserve(workloads_.size());
  for (const auto& workload : workloads_) results.push_back(workload->result());
  return results;
}

replication::ReplicaConfig Scenario::replica_config(std::size_t index) const {
  double speed = 1.0;
  if (index < config_.speed_factors.size() &&
      config_.speed_factors[index] > 0.0) {
    speed = config_.speed_factors[index];
  }
  replication::ReplicaConfig rc;
  rc.service_time = std::make_shared<sim::NormalDuration>(
      std::chrono::duration_cast<sim::Duration>(config_.service_mean / speed),
      std::chrono::duration_cast<sim::Duration>(config_.service_std / speed));
  rc.lazy_update_interval = config_.lazy_update_interval;
  return rc;
}

void Scenario::schedule_crash(std::size_t replica_index, sim::TimePoint at) {
  AQUEDUCT_CHECK(replica_index < num_replicas());
  // Capture the index, not the server: a restart may have replaced the
  // object by the time this fires.
  executor().at(at, [this, replica_index] { crash_replica(replica_index); });
}

void Scenario::schedule_restart(std::size_t replica_index, sim::TimePoint at) {
  AQUEDUCT_CHECK(replica_index < num_replicas());
  executor().at(at, [this, replica_index] { restart_replica(replica_index); });
}

void Scenario::crash_replica(std::size_t replica_index) {
  bed_.crash_replica(replica_index);
  refresh_live_gauge(shard_of(replica_index));
}

void Scenario::restart_replica(std::size_t replica_index) {
  bed_.restart_replica(replica_index);
  refresh_live_gauge(shard_of(replica_index));
}

void Scenario::refresh_live_gauge(std::size_t shard) {
  if (live_gauges_.empty()) return;
  const std::size_t begin = shard * servers_per_shard();
  const std::size_t end = begin + servers_per_shard();
  std::size_t live = 0;
  for (std::size_t i = begin; i < end; ++i) {
    if (replica_alive(i)) ++live;
  }
  live_gauges_[shard]->set(static_cast<double>(live));
}

std::uint32_t Scenario::incarnation(std::size_t replica_index) const {
  return bed_.incarnation(replica_index);
}

net::NodeId Scenario::replica_node(std::size_t replica_index) const {
  return bed_.replica_node(replica_index);
}

bool Scenario::replica_alive(std::size_t replica_index) const {
  return bed_.replica_alive(replica_index);
}

void Scenario::apply_faults(const fault::FaultSchedule& schedule) {
  fault::FaultTargets targets;
  targets.crash = [this](std::size_t i) { crash_replica(i); };
  targets.restart = [this](std::size_t i) { restart_replica(i); };
  targets.node_id = [this](std::size_t i) { return replica_node(i); };
  targets.network = transport().fault_injection();
  targets.num_replicas = num_replicas();
  targets.slot_index = [this](fault::SlotRef ref) {
    AQUEDUCT_CHECK_MSG(ref.shard < num_shards(),
                       "fault SlotRef names a shard this scenario lacks");
    AQUEDUCT_CHECK_MSG(ref.slot < servers_per_shard(),
                       "fault SlotRef slot out of range");
    return slot_index(ref.shard, ref.slot);
  };
  fault::apply(schedule, executor(), std::move(targets));
}

void Scenario::enable_dependability(fault::DependabilityConfig config) {
  AQUEDUCT_CHECK_MSG(!dependability_, "dependability manager already enabled");
  fault::DependabilityManager::Hooks hooks;
  hooks.num_replicas = [this] { return num_replicas(); };
  hooks.alive = [this](std::size_t i) { return replica_alive(i); };
  hooks.restart = [this](std::size_t i) { restart_replica(i); };
  dependability_ = std::make_unique<fault::DependabilityManager>(
      executor(), observability(), config, std::move(hooks));
  dependability_->start();
}

}  // namespace aqueduct::harness
