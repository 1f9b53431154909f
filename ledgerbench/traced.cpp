#include "traced.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "core/pmf.hpp"
#include "core/selection.hpp"
#include "fault/dependability.hpp"
#include "gcs/directory.hpp"
#include "gcs/endpoint.hpp"
#include "gcs/messages.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "replication/messages.hpp"
#include "replication/objects.hpp"
#include "runtime/sim_executor.hpp"
#include "sim/check.hpp"

namespace ledgerbench {
namespace {

// ---------------------------------------------------------------- span names

/// Payload of a gcs data message, by wire type.
enum Payload : std::uint16_t {
  kUpdate, kRead, kGsn, kReply, kLazy, kStateReq, kStateSnap, kPerf,
  kGroupInfo, kOtherPayload, kPayloadCount
};
constexpr std::array<const char*, kPayloadCount> kPayloadNames = {
    "update", "read", "gsn", "reply", "lazy", "state_req", "state_snap",
    "perf", "groupinfo", "other"};

Payload payload_of(const aq::net::Message& msg) {
  namespace r = aq::replication;
  switch (msg.wire_type()) {
    case r::kWireUpdate: return kUpdate;
    case r::kWireRead: return kRead;
    case r::kWireGsnAssign: return kGsn;
    case r::kWireReply: return kReply;
    case r::kWireLazyUpdate: return kLazy;
    case r::kWireStateRequest: return kStateReq;
    case r::kWireStateSnapshot: return kStateSnap;
    case r::kWirePerf: return kPerf;
    case r::kWireGroupInfo: return kGroupInfo;
    default: return kOtherPayload;
  }
}

enum class Role { kServer, kClient };

/// Span names. Executor views come first, in the order of `kViewNames`.
namespace span {
constexpr std::uint16_t kExecNet = 0;
constexpr std::uint16_t kExecGcs = 1;
constexpr std::uint16_t kExecReplication = 2;
constexpr std::uint16_t kExecClient = 3;
constexpr std::uint16_t kExecFault = 4;
constexpr std::uint16_t kExecHarness = 5;
constexpr std::uint16_t kViews = 6;
constexpr std::uint16_t kSend = 6;
constexpr std::uint16_t kSelect = 7;
constexpr std::uint16_t kDeliverHeartbeat = 8;
constexpr std::uint16_t kDeliverMembership = 9;
constexpr std::uint16_t kDeliverNack = 10;
constexpr std::uint16_t kDeliverUnknown = 11;
constexpr std::uint16_t kDataServer = 12;
constexpr std::uint16_t kDataClient = kDataServer + kPayloadCount;
constexpr std::uint16_t kCount = kDataClient + kPayloadCount;
}  // namespace span

constexpr std::array<const char*, span::kViews> kViewNames = {
    "net", "gcs", "replication", "client", "fault", "harness"};

std::string span_name(std::uint16_t name) {
  if (name < span::kViews) return std::string("exec.") + kViewNames[name];
  switch (name) {
    case span::kSend: return "net.send";
    case span::kSelect: return "core.select";
    case span::kDeliverHeartbeat: return "deliver.heartbeat";
    case span::kDeliverMembership: return "deliver.membership";
    case span::kDeliverNack: return "deliver.nack";
    case span::kDeliverUnknown: return "deliver.unknown";
    default: break;
  }
  if (name < span::kDataClient) {
    return std::string("deliver.data.") + kPayloadNames[name - span::kDataServer] +
           "@server";
  }
  return std::string("deliver.data.") + kPayloadNames[name - span::kDataClient] +
         "@client";
}

// ------------------------------------------------------------------ span log

/// Spans in memory until the run ends: name, start, end and parent.
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;
  struct Span {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t parent;
    std::uint16_t name;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::uint16_t name) : log_(log), index_(log.open(name)) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::uint32_t index_;
  };

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  const std::deque<Span>& spans() const { return spans_; }

 private:
  std::uint32_t open(std::uint16_t name) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, current_, name});
    current_ = index;
    return index;
  }
  void close(std::uint32_t index) {
    Span& s = spans_[index];
    s.end_ns = now_ns();
    current_ = s.parent;
  }

  // A deque grows without copying, so a long run never holds two copies.
  std::deque<Span> spans_;
  std::uint32_t current_ = kNoParent;
};

// ---------------------------------------------------------------- decorators

/// Executor view of one component: forwards everything to the real
/// executor, wrapping each scheduled callback in a span named after the
/// component. rng() is forwarded untouched, so RNG splits stay identical.
class ExecutorView final : public aq::runtime::Executor {
 public:
  ExecutorView(aq::runtime::Executor& inner, SpanLog& log, std::uint16_t name)
      : inner_(inner), log_(log), name_(name) {}

  aq::runtime::TimePoint now() const override { return inner_.now(); }
  aq::runtime::TaskHandle at(aq::runtime::TimePoint t, Callback cb) override {
    return inner_.at(t, wrap(std::move(cb)));
  }
  aq::runtime::TaskHandle after(aq::runtime::Duration d, Callback cb) override {
    return inner_.after(d, wrap(std::move(cb)));
  }
  bool cancel(const aq::runtime::TaskHandle& h) override { return inner_.cancel(h); }
  void post(Callback cb) override { inner_.post(wrap(std::move(cb))); }
  void stop() override { inner_.stop(); }
  aq::runtime::Rng& rng() override { return inner_.rng(); }
  std::size_t run() override { return inner_.run(); }
  std::size_t run_until(aq::runtime::TimePoint deadline) override {
    return inner_.run_until(deadline);
  }
  std::uint64_t events_executed() const override { return inner_.events_executed(); }
  std::size_t pending_events() const override { return inner_.pending_events(); }

  /// Callbacks scheduled through this view that have run.
  std::uint64_t callbacks() const { return callbacks_; }

 private:
  Callback wrap(Callback cb) {
    return [this, cb = std::move(cb)] {
      ++callbacks_;
      SpanLog::Scope scope(log_, name_);
      cb();
    };
  }

  aq::runtime::Executor& inner_;
  SpanLog& log_;
  std::uint16_t name_;
  std::uint64_t callbacks_ = 0;
};

/// Times on_message() of one attached endpoint, keyed by message type,
/// payload type and the node's role.
class TimedEndpoint final : public aq::net::Endpoint {
 public:
  TimedEndpoint(aq::net::Endpoint& inner, SpanLog& log, Role role)
      : inner_(inner), log_(log), role_(role) {}

  void on_message(aq::net::NodeId from, aq::net::MessagePtr msg) override {
    SpanLog::Scope scope(log_, classify(*msg));
    inner_.on_message(from, std::move(msg));
  }

 private:
  std::uint16_t classify(const aq::net::Message& msg) const {
    namespace g = aq::gcs;
    switch (msg.wire_type()) {
      case g::kWireHeartbeat: return span::kDeliverHeartbeat;
      case g::kWireNack: return span::kDeliverNack;
      case g::kWireJoin:
      case g::kWireLeave:
      case g::kWireSuspect:
      case g::kWirePropose:
      case g::kWireFlush:
      case g::kWireInstall: return span::kDeliverMembership;
      case g::kWireData: {
        const auto& data = static_cast<const g::DataMsg&>(msg);
        const Payload payload =
            data.payload ? payload_of(*data.payload) : kOtherPayload;
        return static_cast<std::uint16_t>(
            (role_ == Role::kServer ? span::kDataServer : span::kDataClient) +
            payload);
      }
      default: return span::kDeliverUnknown;
    }
  }

  aq::net::Endpoint& inner_;
  SpanLog& log_;
  Role role_;
};

/// Forwarding transport: times send()/multicast(), counts heartbeats per
/// gcs group kind, and wraps every attached endpoint in a TimedEndpoint.
class TimingTransport final : public aq::net::Transport {
 public:
  /// Heartbeats by the kind of group they belong to.
  enum GroupKind { kPrimary, kReplication, kQos, kGroupKinds };

  TimingTransport(std::unique_ptr<aq::net::Transport> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  /// Role of the endpoints attached from now on (their first attach).
  void set_attach_role(Role role) { attach_role_ = role; }
  void add_groups(const aq::replication::ServiceGroups& groups) {
    group_kind_[groups.primary.value()] = kPrimary;
    group_kind_[groups.replication.value()] = kReplication;
    group_kind_[groups.qos.value()] = kQos;
  }
  std::uint64_t heartbeats(GroupKind kind) const { return heartbeats_[kind]; }

  aq::net::NodeId attach(aq::net::Endpoint& endpoint) override {
    // A reincarnated process attaches again through the same endpoint
    // object and keeps its wrapper (and role).
    auto& timed = timed_[&endpoint];
    if (!timed) timed = std::make_unique<TimedEndpoint>(endpoint, log_, attach_role_);
    return inner_->attach(*timed);
  }
  void detach(aq::net::NodeId id) override { inner_->detach(id); }
  bool is_attached(aq::net::NodeId id) const override {
    return inner_->is_attached(id);
  }
  void send(aq::net::NodeId from, aq::net::NodeId to,
            aq::net::MessagePtr msg) override {
    count_heartbeats(*msg, 1);
    SpanLog::Scope scope(log_, span::kSend);
    inner_->send(from, to, std::move(msg));
  }
  void multicast(aq::net::NodeId from, const std::vector<aq::net::NodeId>& to,
                 const aq::net::MessagePtr& msg) override {
    count_heartbeats(*msg, to.size());
    SpanLog::Scope scope(log_, span::kSend);
    inner_->multicast(from, to, msg);
  }
  aq::net::TransportStats stats() const override { return inner_->stats(); }
  aq::obs::Observability& observability() override { return inner_->observability(); }
  aq::runtime::Executor& executor() override { return inner_->executor(); }
  aq::net::FaultInjection* fault_injection() override {
    return inner_->fault_injection();
  }

 private:
  void count_heartbeats(const aq::net::Message& msg, std::size_t copies) {
    if (msg.wire_type() != aq::gcs::kWireHeartbeat) return;
    const auto& hb = static_cast<const aq::gcs::HeartbeatMsg&>(msg);
    auto it = group_kind_.find(hb.group.value());
    if (it != group_kind_.end()) heartbeats_[it->second] += copies;
  }

  std::unique_ptr<aq::net::Transport> inner_;
  SpanLog& log_;
  Role attach_role_ = Role::kServer;
  std::unordered_map<const aq::net::Endpoint*, std::unique_ptr<TimedEndpoint>>
      timed_;
  std::unordered_map<std::uint32_t, GroupKind> group_kind_;
  std::array<std::uint64_t, kGroupKinds> heartbeats_{};
};

/// The paper's Algorithm 1 (the client's default selector), timed.
class TimingSelector final : public aq::core::ReplicaSelector {
 public:
  explicit TimingSelector(SpanLog& log) : log_(log) {}
  aq::core::SelectionResult select(aq::core::SelectionContext& ctx) override {
    SpanLog::Scope scope(log_, span::kSelect);
    return inner_.select(ctx);
  }
  std::string name() const override { return inner_.name(); }

 private:
  SpanLog& log_;
  aq::core::ProbabilisticSelector inner_;
};

// ------------------------------------------------------------- traced stack

/// harness::Scenario rebuilt from public constructors on top of the
/// decorators. Construction order, RNG splits, the staggered start, fault
/// wiring and the restart path mirror src/harness/scenario.cpp.
class TracedStack {
 public:
  explicit TracedStack(const Unit& unit)
      : config_(unit.config),
        shard_map_(config_.seed, config_.num_shards) {
    AQUEDUCT_CHECK_MSG(!config_.chaos && config_.runtime == aq::runtime::Kind::kSim,
                       "the traced stack rebuilds the simulated loopback stack only");
    exec_ = aq::runtime::make_executor(config_.runtime, config_.seed);
    for (std::uint16_t v = 0; v < span::kViews; ++v) {
      views_.push_back(std::make_unique<ExecutorView>(*exec_, log_, v));
    }
    transport_ = std::make_unique<TimingTransport>(
        aq::net::make_loopback_transport(
            view(span::kExecNet),
            std::make_unique<aq::sim::NormalDuration>(config_.net_latency_mean,
                                                      config_.net_latency_std)),
        log_);

    for (std::size_t k = 0; k < config_.num_shards; ++k) {
      groups_.push_back(aq::replication::ServiceGroups::for_service(
          static_cast<std::uint32_t>(1 + k)));
      transport_->add_groups(groups_.back());
    }
    const std::size_t num_servers = config_.num_shards * servers_per_shard();
    transport_->set_attach_role(Role::kServer);
    for (std::size_t index = 0; index < num_servers; ++index) {
      auto endpoint = std::make_unique<aq::gcs::Endpoint>(
          view(span::kExecGcs), *transport_, directory_, config_.gcs);
      replicas_.push_back(make_replica_server(index, *endpoint));
      endpoints_.push_back(std::move(endpoint));
    }
    incarnations_.assign(num_servers, 0);
    if (config_.num_shards > 1) {
      aq::obs::MetricsRegistry& reg = transport_->metrics();
      for (std::size_t k = 0; k < config_.num_shards; ++k) {
        live_gauges_.push_back(
            &reg.gauge("shard" + std::to_string(k) + ".replicas_live"));
        live_gauges_.back()->set(static_cast<double>(servers_per_shard()));
      }
    }
    transport_->set_attach_role(Role::kClient);
    for (aq::harness::ClientSpec spec : config_.clients) {
      spec.selector = [this] { return std::make_unique<TimingSelector>(log_); };
      auto endpoint = std::make_unique<aq::gcs::Endpoint>(
          view(span::kExecGcs), *transport_, directory_, config_.gcs);
      workloads_.push_back(std::make_unique<aq::harness::WorkloadClient>(
          view(span::kExecClient), *endpoint, shard_map_, groups_, spec,
          config_.window_size));
      endpoints_.push_back(std::move(endpoint));
    }

    // Same order as run_scenario(): faults first, then the manager.
    aq::fault::FaultTargets targets;
    targets.crash = [this](std::size_t i) { crash_replica(i); };
    targets.restart = [this](std::size_t i) { restart_replica(i); };
    targets.node_id = [this](std::size_t i) { return endpoints_[i]->id(); };
    targets.network = transport_->fault_injection();
    targets.num_replicas = replicas_.size();
    targets.slot_index = [this](aq::fault::SlotRef ref) {
      AQUEDUCT_CHECK(ref.shard < config_.num_shards &&
                     ref.slot < servers_per_shard());
      return ref.shard * servers_per_shard() + ref.slot;
    };
    aq::fault::apply(unit.faults, view(span::kExecFault), std::move(targets));
    if (unit.dependability) {
      aq::fault::DependabilityManager::Hooks hooks;
      hooks.num_replicas = [this] { return replicas_.size(); };
      hooks.alive = [this](std::size_t i) { return !replicas_[i]->crashed(); };
      hooks.restart = [this](std::size_t i) { restart_replica(i); };
      dependability_ = std::make_unique<aq::fault::DependabilityManager>(
          view(span::kExecFault), transport_->observability(),
          aq::fault::DependabilityConfig{}, std::move(hooks));
      dependability_->start();
    }
  }

  TracedStack(const TracedStack&) = delete;
  TracedStack& operator=(const TracedStack&) = delete;

  void run() {
    ExecutorView& harness = view(span::kExecHarness);
    aq::sim::Duration at = aq::sim::Duration::zero();
    for (auto& replica : replicas_) {
      harness.after(at, [r = replica.get()] { r->start(); });
      at += std::chrono::milliseconds(10);
    }
    at += std::chrono::milliseconds(500);
    for (auto& workload : workloads_) {
      harness.after(at, [w = workload.get()] { w->start(); });
      at += std::chrono::milliseconds(10);
    }
    const aq::sim::TimePoint deadline = exec_->now() + config_.max_sim_time;
    while (exec_->now() < deadline) {
      const bool all_done =
          std::all_of(workloads_.begin(), workloads_.end(),
                      [](const auto& w) { return w->done(); });
      if (all_done) break;
      exec_->run_for(std::chrono::seconds(1));
    }
    exec_->run_for(config_.drain);
  }

  std::vector<aq::harness::ClientResult> results() const {
    std::vector<aq::harness::ClientResult> out;
    for (const auto& w : workloads_) out.push_back(w->result());
    return out;
  }

  const SpanLog& log() const { return log_; }
  const TimingTransport& transport() const { return *transport_; }
  aq::obs::MetricsRegistry& metrics() { return transport_->metrics(); }
  std::uint64_t events() const { return exec_->events_executed(); }
  std::uint64_t view_callbacks(std::uint16_t v) const {
    return views_[v]->callbacks();
  }
  std::uint64_t restarts() const {
    std::uint64_t n = 0;
    for (const std::uint32_t i : incarnations_) n += i;
    return n;
  }
  /// max/mean of requests routed per shard (1.0 = perfectly even).
  double shard_load_max_over_mean() const {
    std::vector<double> routed(config_.num_shards, 0.0);
    for (const auto& w : workloads_) {
      for (std::size_t k = 0; k < routed.size(); ++k) {
        const auto& s = w->router().route_stats(k);
        routed[k] += static_cast<double>(s.reads_routed + s.updates_routed);
      }
    }
    double total = 0.0, max = 0.0;
    for (const double r : routed) {
      total += r;
      max = std::max(max, r);
    }
    return total == 0.0 ? 0.0 : max * static_cast<double>(routed.size()) / total;
  }
  Invariants invariants(const std::vector<aq::harness::ClientResult>& results) const {
    return check_invariants(
        config_.num_shards, servers_per_shard(),
        [this](std::size_t i) -> const aq::replication::ReplicaServer& {
          return *replicas_[i];
        },
        shard_map_, results, config_.clients);
  }

 private:
  ExecutorView& view(std::uint16_t v) { return *views_[v]; }
  std::size_t servers_per_shard() const {
    return 1 + config_.num_primaries + config_.num_secondaries;
  }
  std::size_t shard_of(std::size_t index) const {
    return index / servers_per_shard();
  }

  std::unique_ptr<aq::replication::ReplicaServer> make_replica_server(
      std::size_t index, aq::gcs::Endpoint& endpoint) {
    const std::size_t shard = shard_of(index);
    const std::size_t slot = index % servers_per_shard();
    const bool is_primary = slot <= config_.num_primaries;
    double speed = 1.0;
    if (index < config_.speed_factors.size() && config_.speed_factors[index] > 0.0) {
      speed = config_.speed_factors[index];
    }
    aq::replication::ReplicaConfig rc;
    rc.service_time = std::make_shared<aq::sim::NormalDuration>(
        std::chrono::duration_cast<aq::sim::Duration>(config_.service_mean / speed),
        std::chrono::duration_cast<aq::sim::Duration>(config_.service_std / speed));
    rc.lazy_update_interval = config_.lazy_update_interval;
    auto server = std::make_unique<aq::replication::ReplicaServer>(
        view(span::kExecReplication), endpoint, groups_[shard], is_primary,
        std::make_unique<aq::replication::KeyValueStore>(), std::move(rc));
    if (config_.eviction_restart_delay > aq::sim::Duration::zero()) {
      server->set_on_evicted([this, index, shard] {
        refresh_live_gauge(shard);
        view(span::kExecFault).after(config_.eviction_restart_delay, [this, index] {
          if (replicas_[index]->crashed()) restart_replica(index);
        });
      });
    }
    return server;
  }

  void crash_replica(std::size_t index) {
    if (!replicas_[index]->crashed()) replicas_[index]->crash();
    refresh_live_gauge(shard_of(index));
  }

  std::size_t live_excluding(std::size_t index, bool primaries_only) const {
    const std::size_t begin = shard_of(index) * servers_per_shard();
    std::size_t live = 0;
    for (std::size_t i = begin; i < begin + servers_per_shard(); ++i) {
      if (i == index || replicas_[i]->crashed()) continue;
      if (!primaries_only || replicas_[i]->is_primary()) ++live;
    }
    return live;
  }

  void refresh_live_gauge(std::size_t shard) {
    if (live_gauges_.empty()) return;
    const std::size_t begin = shard * servers_per_shard();
    std::size_t live = 0;
    for (std::size_t i = begin; i < begin + servers_per_shard(); ++i) {
      if (!replicas_[i]->crashed()) ++live;
    }
    live_gauges_[shard]->set(static_cast<double>(live));
  }

  void restart_replica(std::size_t index) {
    const aq::replication::ServiceGroups& groups = groups_[shard_of(index)];
    aq::replication::ReplicaServer& old = *replicas_[index];
    if (!old.crashed()) old.crash();
    const aq::net::NodeId old_id = endpoints_[index]->id();
    const bool was_primary = old.is_primary();
    replicas_[index].reset();
    if (was_primary && live_excluding(index, true) == 0) {
      directory_.forget_if(groups.primary, old_id);
    }
    if (live_excluding(index, false) == 0) {
      directory_.forget_if(groups.replication, old_id);
      if (workloads_.empty()) directory_.forget_if(groups.qos, old_id);
    }
    endpoints_[index]->reincarnate();
    replicas_[index] = make_replica_server(index, *endpoints_[index]);
    replicas_[index]->start();
    ++incarnations_[index];
    refresh_live_gauge(shard_of(index));
  }

  const aq::harness::ScenarioConfig& config_;
  // The log outlives every component that reports to it.
  SpanLog log_;
  aq::shard::ShardMap shard_map_;
  std::unique_ptr<aq::runtime::Executor> exec_;
  std::vector<std::unique_ptr<ExecutorView>> views_;
  std::unique_ptr<TimingTransport> transport_;
  aq::gcs::Directory directory_;
  std::vector<aq::replication::ServiceGroups> groups_;
  std::vector<std::unique_ptr<aq::gcs::Endpoint>> endpoints_;
  std::vector<std::unique_ptr<aq::replication::ReplicaServer>> replicas_;
  std::vector<std::uint32_t> incarnations_;
  std::vector<std::unique_ptr<aq::harness::WorkloadClient>> workloads_;
  std::vector<aq::obs::Gauge*> live_gauges_;
  std::unique_ptr<aq::fault::DependabilityManager> dependability_;
};

void write_spans(const SpanLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "ledgerbench: cannot write spans to " << path << "\n";
    return;
  }
  const auto& spans = log.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::vector<std::string> names;
  for (std::uint16_t n = 0; n < span::kCount; ++n) names.push_back(span_name(n));
  out << "index\tname\tstart_ns\tend_ns\tparent\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << i << '\t' << names[s.name] << '\t' << s.start_ns - origin << '\t'
        << s.end_ns - origin << '\t'
        << (s.parent == SpanLog::kNoParent ? -1 : static_cast<std::int64_t>(s.parent))
        << '\n';
  }
}

/// Registry counters a traced run records for the per-layer metrics.
enum RegistryCounter {
  kViewChanges, kRetransmissions, kNacksSent, kReadsIssued, kReadsCompleted,
  kReplicasSelected, kSelectionAttempts, kReadsServed, kDeferredReads,
  kRecoveries, kRegistryCounters
};
constexpr std::array<const char*, kRegistryCounters> kRegistryNames = {
    "gcs.view_changes",        "gcs.retransmissions",
    "gcs.nacks_sent",          "client.reads_issued",
    "client.reads_completed",  "client.replicas_selected_total",
    "client.selection_attempts", "repl.reads_served",
    "repl.deferred_reads",     "repl.recoveries_completed"};

constexpr std::array<const char*, TimingTransport::kGroupKinds> kGroupNames = {
    "primary", "replication", "qos"};

double server_ns(const TracedReport& r, Payload p) {
  return r.self_ns[span::kDataServer + p];
}

double client_ns(const TracedReport& r, Payload p) {
  return r.self_ns[span::kDataClient + p];
}

void add_to(std::vector<double>& sum, const std::vector<double>& values) {
  sum.resize(values.size(), 0.0);
  for (std::size_t i = 0; i < values.size(); ++i) sum[i] += values[i];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Ledger rows that no named per-layer CPU metric covers.
bool unattributed_row(const std::string& row) {
  return row == "replica.deliver.other" || row == "client.deliver.other" ||
         row == "harness.start" || row == "deliver.unknown";
}

}  // namespace

TracedReport run_traced(const Unit& unit, const std::string& spans_out) {
  TracedStack stack(unit);
  const std::uint64_t convolutions0 = aq::core::Pmf::convolutions_performed();
  const double cpu0 = thread_cpu_seconds();
  const std::int64_t wall0 = SpanLog::now_ns();
  stack.run();
  const std::int64_t wall1 = SpanLog::now_ns();
  const double cpu1 = thread_cpu_seconds();

  TracedReport report;
  report.run_cpu_s = cpu1 - cpu0;
  const auto results = stack.results();
  report.counts = client_counts(results);
  const aq::net::TransportStats ts = stack.transport().stats();
  report.counts.messages = ts.messages_sent;
  report.counts.bytes = ts.bytes_sent;
  report.counts.events = stack.events();
  report.invariants = stack.invariants(results);

  report.units = 1.0;
  report.wall_ns = static_cast<double>(wall1 - wall0);
  report.requests =
      static_cast<double>(summarize(results, unit.config.clients).ops_completed);
  report.messages = static_cast<double>(ts.messages_sent);
  report.convolutions = static_cast<double>(
      aq::core::Pmf::convolutions_performed() - convolutions0);
  report.restarts = static_cast<double>(stack.restarts());
  report.shard_load_max_over_mean = stack.shard_load_max_over_mean();

  // Every callback must have gone through a view, or the split is wrong.
  std::uint64_t view_events = 0;
  for (std::uint16_t v = 0; v < span::kViews; ++v) {
    view_events += stack.view_callbacks(v);
    report.view_callbacks.push_back(static_cast<double>(stack.view_callbacks(v)));
  }
  report.views_cover_events = view_events == report.counts.events;
  for (int k = 0; k < TimingTransport::kGroupKinds; ++k) {
    report.heartbeats.push_back(static_cast<double>(
        stack.transport().heartbeats(static_cast<TimingTransport::GroupKind>(k))));
  }
  aq::obs::MetricsRegistry& reg = stack.metrics();
  for (const char* name : kRegistryNames) {
    report.registry.push_back(static_cast<double>(reg.counter(name).value()));
  }
  const aq::obs::Histogram& queueing = reg.histogram("repl.queueing_ms");
  report.queue_bounds = queueing.bounds();
  report.queue_buckets = queueing.buckets();

  // Self time per span name: duration minus the children's durations.
  const auto& spans = stack.log().spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  double root_ns = 0.0;
  for (const auto& s : spans) {
    if (s.parent == SpanLog::kNoParent) {
      root_ns += static_cast<double>(s.end_ns - s.start_ns);
    } else {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  report.self_ns.assign(span::kCount, 0.0);
  report.span_counts.assign(span::kCount, 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    report.self_ns[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    report.span_counts[s.name] += 1.0;
  }
  report.root_ns = root_ns;
  if (!spans_out.empty()) write_spans(stack.log(), spans_out);
  return report;
}

void add_unit(TracedReport& pass, const TracedReport& unit) {
  pass.run_cpu_s += unit.run_cpu_s;
  pass.views_cover_events = pass.views_cover_events && unit.views_cover_events;
  pass.units += unit.units;
  pass.wall_ns += unit.wall_ns;
  pass.root_ns += unit.root_ns;
  pass.requests += unit.requests;
  pass.messages += unit.messages;
  pass.convolutions += unit.convolutions;
  pass.restarts += unit.restarts;
  pass.shard_load_max_over_mean += unit.shard_load_max_over_mean;
  add_to(pass.self_ns, unit.self_ns);
  add_to(pass.span_counts, unit.span_counts);
  add_to(pass.view_callbacks, unit.view_callbacks);
  add_to(pass.heartbeats, unit.heartbeats);
  add_to(pass.registry, unit.registry);
  if (pass.queue_buckets.empty()) {
    pass.queue_bounds = unit.queue_bounds;
    pass.queue_buckets.assign(unit.queue_buckets.size(), 0);
  }
  for (std::size_t i = 0; i < unit.queue_buckets.size(); ++i) {
    pass.queue_buckets[i] += unit.queue_buckets[i];
  }
}

std::vector<LedgerRow> ledger_rows(const TracedReport& r) {
  double client_other = 0.0;
  for (std::uint16_t p = 0; p < kPayloadCount; ++p) {
    if (p != kPerf && p != kReply) client_other += client_ns(r, static_cast<Payload>(p));
  }
  const std::vector<double>& self = r.self_ns;
  return {
      {"runtime.queue", "runtime", r.wall_ns - r.root_ns},
      {"net.send", "net", self[span::kSend]},
      {"net.deliver", "net", self[span::kExecNet]},
      {"gcs.heartbeat", "gcs", self[span::kDeliverHeartbeat] + self[span::kExecGcs]},
      {"gcs.membership", "gcs",
       self[span::kDeliverMembership] + self[span::kDeliverNack]},
      {"replica.deliver.read", "replication", server_ns(r, kRead)},
      {"replica.deliver.update", "replication", server_ns(r, kUpdate)},
      {"replica.deliver.gsn", "replication", server_ns(r, kGsn)},
      {"replica.deliver.lazy", "replication", server_ns(r, kLazy)},
      {"replica.deliver.state", "replication",
       server_ns(r, kStateReq) + server_ns(r, kStateSnap)},
      {"replica.deliver.other", "replication",
       server_ns(r, kPerf) + server_ns(r, kGroupInfo) + server_ns(r, kReply) +
           server_ns(r, kOtherPayload)},
      {"replication.timer", "replication", self[span::kExecReplication]},
      {"client.perf_fold", "client", client_ns(r, kPerf)},
      {"client.reply", "client", client_ns(r, kReply)},
      {"client.deliver.other", "client", client_other},
      {"client.issue", "client", self[span::kExecClient]},
      {"core.select", "core", self[span::kSelect]},
      {"fault", "fault", self[span::kExecFault]},
      {"harness.start", "harness", self[span::kExecHarness]},
      {"deliver.unknown", "unattributed", self[span::kDeliverUnknown]},
  };
}

std::vector<Metric> layer_metrics(const TracedReport& r) {
  std::vector<Metric> out;
  const auto m = [&out](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };
  const std::vector<double>& self = r.self_ns;
  const std::vector<double>& reg = r.registry;
  const double req = r.requests;
  const double us_per_req = 1e-3 / req;
  for (std::uint16_t v = 0; v < span::kExecHarness; ++v) {
    m(std::string("runtime.events_per_req.") + kViewNames[v],
      r.view_callbacks[v] / req, "events/req");
  }
  m("runtime.queue_us_per_req", (r.wall_ns - r.root_ns) * us_per_req, "us/req");
  m("net.send_ns_per_msg", ratio(self[span::kSend], r.messages), "ns/msg");
  m("net.deliver_us_per_req", self[span::kExecNet] * us_per_req, "us/req");
  for (int k = 0; k < TimingTransport::kGroupKinds; ++k) {
    m(std::string("net.heartbeat_msgs_per_req.") + kGroupNames[k],
      r.heartbeats[k] / req, "msgs/req");
  }
  m("gcs.heartbeat_us_per_req",
    (self[span::kDeliverHeartbeat] + self[span::kExecGcs]) * us_per_req, "us/req");
  m("gcs.heartbeat_ns_per_msg",
    ratio(self[span::kDeliverHeartbeat], r.span_counts[span::kDeliverHeartbeat]),
    "ns/msg");
  m("gcs.membership_us_per_req",
    (self[span::kDeliverMembership] + self[span::kDeliverNack]) * us_per_req, "us/req");
  m("gcs.view_changes", reg[kViewChanges], "count");
  m("gcs.retransmissions_per_req", reg[kRetransmissions] / req, "msgs/req");
  m("gcs.nacks_per_req", reg[kNacksSent] / req, "msgs/req");
  m("replica.deliver_us_per_req.read", server_ns(r, kRead) * us_per_req, "us/req");
  m("replica.deliver_us_per_req.update", server_ns(r, kUpdate) * us_per_req, "us/req");
  m("replica.deliver_us_per_req.gsn", server_ns(r, kGsn) * us_per_req, "us/req");
  m("replica.deliver_us_per_req.lazy", server_ns(r, kLazy) * us_per_req, "us/req");
  m("replica.deliver_us_per_req.state",
    (server_ns(r, kStateReq) + server_ns(r, kStateSnap)) * us_per_req, "us/req");
  m("replication.timer_us_per_req", self[span::kExecReplication] * us_per_req,
    "us/req");
  m("replication.fanout_per_read", ratio(reg[kReadsServed], reg[kReadsIssued]),
    "replicas/read");
  m("replication.deferred_share", ratio(reg[kDeferredReads], reg[kReadsServed]),
    "ratio");
  // Bucket counts merged over the units; the quantile only reads the buckets.
  aq::obs::Histogram queueing(r.queue_bounds);
  for (std::size_t i = 0; i < r.queue_buckets.size(); ++i) {
    const double at = i < r.queue_bounds.size() ? r.queue_bounds[i]
                                                : 2.0 * r.queue_bounds.back();
    for (std::uint64_t n = 0; n < r.queue_buckets[i]; ++n) queueing.observe(at);
  }
  m("replication.queue_wait_ms_p50", queueing.quantile(0.5), "ms");
  m("replication.state_transfers", reg[kRecoveries], "count");
  m("client.perf_fold_us_per_req", client_ns(r, kPerf) * us_per_req, "us/req");
  m("client.reply_us_per_req", client_ns(r, kReply) * us_per_req, "us/req");
  m("client.issue_us_per_req", self[span::kExecClient] * us_per_req, "us/req");
  m("client.replicas_per_read", ratio(reg[kReplicasSelected], reg[kSelectionAttempts]),
    "replicas/read");
  m("client.attempts_per_read", ratio(reg[kSelectionAttempts], reg[kReadsIssued]),
    "attempts/read");
  m("core.select_ns_per_call",
    ratio(self[span::kSelect], r.span_counts[span::kSelect]), "ns/call");
  m("core.convolutions_per_read", ratio(r.convolutions, reg[kReadsCompleted]),
    "conv/read");
  m("shard.load_max_over_mean", r.shard_load_max_over_mean / r.units, "ratio");
  m("fault.restarts", r.restarts, "count");
  double unattributed = 0.0;
  for (const LedgerRow& row : ledger_rows(r)) {
    if (unattributed_row(row.name)) unattributed += row.self_ns;
  }
  m("trace.unattributed_share", ratio(unattributed, r.wall_ns), "ratio");
  return out;
}

std::string format_ledger(const std::string& workload,
                          const std::vector<TracedReport>& passes) {
  std::vector<double> total;
  for (const TracedReport& p : passes) total.push_back(p.wall_ns);
  const double total_ns = median(total);
  const double req = passes.front().requests;

  std::vector<LedgerRow> rows = ledger_rows(passes.front());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::vector<double> values;
    for (const TracedReport& p : passes) values.push_back(ledger_rows(p)[i].self_ns);
    rows[i].self_ns = median(values);
  }
  const auto share = [total_ns](double ns) { return 100.0 * ns / total_ns; };
  const auto row_ns = [&rows](const std::string& name) {
    for (const LedgerRow& r : rows) {
      if (r.name == name) return r.self_ns;
    }
    return 0.0;
  };

  std::ostringstream os;
  char line[160];
  os << "CPU ledger for " << workload << ": traced self time, median of "
     << passes.size() << " pass(es), " << static_cast<std::uint64_t>(req)
     << " requests per pass\n";
  std::snprintf(line, sizeof line, "  %-24s %-13s %13s %8s\n", "row", "layer",
                "self us/req", "share");
  os << line;
  std::vector<std::pair<std::string, double>> layers;
  for (const LedgerRow& r : rows) {
    std::snprintf(line, sizeof line, "  %-24s %-13s %13.3f %7.2f%%\n",
                  r.name.c_str(), r.layer.c_str(), r.self_ns * 1e-3 / req,
                  share(r.self_ns));
    os << line;
    auto it = std::find_if(layers.begin(), layers.end(),
                           [&r](const auto& l) { return l.first == r.layer; });
    if (it == layers.end()) {
      layers.emplace_back(r.layer, r.self_ns);
    } else {
      it->second += r.self_ns;
    }
  }
  os << "  layers:";
  for (const auto& [layer, ns] : layers) {
    std::snprintf(line, sizeof line, " %s %.1f%%", layer.c_str(), share(ns));
    os << line;
  }
  const double issue = row_ns("client.issue");
  const double select = row_ns("core.select");
  std::snprintf(line, sizeof line,
                "\n  Fig. 3 split of a read's client-side cost: distribution "
                "(client.issue) %.1f%% / Algorithm 1 (core.select) %.1f%%\n",
                100.0 * ratio(issue, issue + select),
                100.0 * ratio(select, issue + select));
  os << line;
  std::snprintf(line, sizeof line,
                "  gcs.heartbeat + client.perf_fold: %.1f%% of traced CPU\n",
                share(row_ns("gcs.heartbeat") + row_ns("client.perf_fold")));
  os << line;
  return os.str();
}

}  // namespace ledgerbench
