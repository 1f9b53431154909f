// Server-side gateway handler (paper Section 4).
//
// One ReplicaServer per replica process. The service's ordering guarantee
// (paper Section 2: consistency is <ordering, staleness threshold>) is a
// service-wide policy, ReplicaConfig::ordering; Figure 2 draws each
// guarantee as a policy inside the one gateway, and so does this class.
//
// Under sequential (total) ordering, depending on its group roles a
// replica acts as:
//   * sequencer — leader of the primary group; assigns GSNs to updates,
//     broadcasts the current GSN for reads, never services requests;
//   * primary replica — commits updates in GSN order, serves reads from
//     always-fresh state;
//   * secondary replica — serves reads when its state satisfies the
//     client's staleness threshold, otherwise performs a deferred read
//     (buffers until the next lazy update);
//   * lazy publisher — the designated primary-group member that
//     periodically propagates its state to the secondary group and
//     publishes the <n_u, t_u>/<n_L, t_L> measurements clients use for
//     staleness estimation.
//
// Under FIFO ordering there is no sequencer and there are no GSNs: the
// primary-group leader is an ordinary serving primary that publishes the
// role map (a GroupInfo without a sequencer). Every primary applies each
// client's updates in arrival order (the GCS point-to-point channels are
// FIFO) and keeps a per-client horizon, the seq of that client's newest
// update it has applied. A read carrying horizon h is ready once the
// replica's horizon for the issuing client is >= h (read-your-writes);
// secondaries reach it with the next lazy propagation. Lazy propagation
// and state transfer to a rejoining primary share one install path: a
// StateSnapshot whose `committed` list holds the horizons.
//
// Roles are derived from the primary-group view, so they fail over
// automatically: a leader crash elects the next primary (and thus the
// next sequencer / role publisher), a lazy-publisher crash re-designates
// the last member.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "core/qos.hpp"
#include "gcs/endpoint.hpp"
#include "obs/observability.hpp"
#include "replication/messages.hpp"
#include "replication/replicated_object.hpp"
#include "replication/service.hpp"
#include "sim/random.hpp"
#include "runtime/executor.hpp"
#include "runtime/periodic_task.hpp"

namespace aqueduct::replication {

struct ReplicaConfig {
  /// The service's ordering guarantee; every replica of one service must
  /// agree. Clients learn it from the role map (see GroupInfo).
  core::Ordering ordering = core::Ordering::kSequential;
  /// Simulated request-processing delay (the paper's experiments draw it
  /// from a normal distribution with mean 100 ms to model background
  /// load). Shared by reads and updates; the sequencer's bookkeeping is
  /// free.
  std::shared_ptr<sim::DurationDistribution> service_time;
  /// Lazy-update propagation period T_L (effective only while this replica
  /// is the lazy publisher).
  sim::Duration lazy_update_interval = std::chrono::seconds(4);
  /// Period of the lazy publisher's standalone performance broadcasts
  /// (keeps client staleness estimators fresh even between reads).
  sim::Duration perf_publish_period = std::chrono::milliseconds(500);
  /// Bound on the dedup/reply caches.
  std::size_t cache_limit = 16384;
  /// How long a rejoining primary waits before re-sending a StateRequest
  /// (covers lost requests, unknown roles, and a mid-transfer responder
  /// crash).
  sim::Duration state_transfer_retry = std::chrono::milliseconds(500);
  /// Period of the commit-stall watchdog (sequential ordering only): a
  /// primary whose commit pipeline has been stuck on the same missing
  /// GSN/payload for two consecutive checks re-enters recovery and jumps
  /// the gap via a fresh snapshot.
  sim::Duration commit_stall_check = std::chrono::seconds(1);
};

struct ReplicaStats {
  std::uint64_t updates_committed = 0;  // applied, under FIFO ordering
  std::uint64_t reads_served = 0;
  std::uint64_t deferred_reads = 0;
  std::uint64_t gsn_assigned = 0;
  std::uint64_t lazy_updates_published = 0;
  std::uint64_t lazy_updates_installed = 0;
  std::uint64_t duplicate_requests = 0;
  std::uint64_t gsn_conflicts = 0;  // must stay 0 — safety-net counter
  // Recovery / state transfer.
  std::uint64_t state_transfers_requested = 0;
  std::uint64_t state_snapshots_served = 0;
  std::uint64_t state_snapshots_installed = 0;
  std::uint64_t recoveries_completed = 0;
  /// Times a group ejected this still-running replica (gray failure: the
  /// failure detector mistook a slow / partially partitioned process for
  /// dead). The replica treats each as a self-crash; the harness restarts
  /// the slot so it rejoins with a fresh identity.
  std::uint64_t evictions = 0;
};

class ReplicaServer {
 public:
  /// `is_primary` decides which groups this replica joins: primaries (and
  /// the sequencer, or the FIFO role publisher) join the primary group;
  /// everyone joins the replication and QoS groups. Call start() to join.
  ReplicaServer(runtime::Executor& exec, gcs::Endpoint& endpoint,
                ServiceGroups groups, bool is_primary,
                std::unique_ptr<ReplicatedObject> object, ReplicaConfig config);
  ~ReplicaServer();

  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  /// Joins the service's groups and begins processing.
  void start();

  /// Fail-stop crash (for failure-injection experiments).
  void crash();

  net::NodeId id() const { return endpoint_.id(); }
  bool crashed() const { return crashed_; }
  bool is_primary() const { return is_primary_; }
  /// True while the replica is (re)joining an existing service and has not
  /// yet synchronized its state (transfer barrier up: no commits served).
  bool recovering() const { return recovering_; }
  /// When the transfer barrier last dropped (kEpoch if never raised).
  sim::TimePoint recovered_at() const { return recovered_at_; }
  /// Arrival time of the first read request addressed to this replica —
  /// for a reborn replica this is the client re-admission instant.
  sim::TimePoint first_read_request_at() const { return first_read_request_at_; }
  bool is_sequencer() const { return is_sequencer_; }
  bool is_lazy_publisher() const { return is_lazy_publisher_; }
  core::Gsn gsn() const { return my_gsn_; }
  /// Updates committed (sequential: the CSN; FIFO: the number applied).
  core::Csn csn() const { return my_csn_; }
  /// FIFO ordering: seq of `client`'s newest update this replica has
  /// applied (0 if none).
  std::uint64_t horizon_of(net::NodeId client) const;
  const ReplicaStats& stats() const { return stats_; }
  const ReplicatedObject& object() const { return *object_; }
  sim::Duration lazy_update_interval() const { return config_.lazy_update_interval; }

  /// Changes T_L at runtime (the consistency/timeliness tuning knob).
  void set_lazy_update_interval(sim::Duration interval);

  /// Registers a hook fired right after this replica crash()es itself
  /// because a group evicted it while it was still running (see
  /// ReplicaStats::evictions). The harness uses it to reincarnate the slot.
  /// Runs from an executor callback; it may destroy this server.
  void set_on_evicted(std::function<void()> fn) { on_evicted_ = std::move(fn); }

 private:
  // ---- message handlers (via the QoS / replication / primary groups) ----
  void on_qos_deliver(net::NodeId from, const net::MessagePtr& msg);
  void on_replication_deliver(net::NodeId from, const net::MessagePtr& msg);
  void on_primary_view(const gcs::View& view);
  void on_replication_view(const gcs::View& view);
  void on_qos_view(const gcs::View& view);

  void handle_update_request(net::NodeId from, const UpdateRequest& request);
  void handle_read_request(net::NodeId from,
                           const std::shared_ptr<const ReadRequest>& request);
  void handle_gsn_assign(const GsnAssign& assign);
  void handle_lazy_update(const LazyUpdate& lazy);

  // ---- recovery / state transfer ----
  void begin_recovery();
  void finish_recovery();
  void send_state_request();
  std::optional<net::NodeId> choose_transfer_target() const;
  void handle_state_request(net::NodeId from);
  void handle_state_snapshot(const StateSnapshot& snap);
  void install_fifo_snapshot(const StateSnapshot& snap);
  std::shared_ptr<StateSnapshot> state_snapshot() const;
  void check_commit_stall();
  void on_member_eviction();

  // ---- sequencer ----
  void sequence_update(const UpdateRequest& request);
  void sequence_read(const ReadRequest& request);
  void maybe_activate_sequencer();
  void publish_group_info();

  // ---- commit pipeline (primaries) ----
  bool fifo() const { return config_.ordering == core::Ordering::kFifo; }
  /// Whether update `id` is already reflected in this replica's state.
  bool already_applied(const RequestId& id) const;
  void try_enqueue_commits();
  void advance_csn();

  // ---- read pipeline ----
  struct PendingRead {
    std::shared_ptr<const ReadRequest> request;
    net::NodeId client;
    sim::TimePoint arrival;
    std::optional<core::Gsn> gsn;
    sim::TimePoint gsn_at = sim::kEpoch;
    bool deferred = false;  // waited for a lazy update
  };
  void try_ready_read(const RequestId& id);
  void recheck_waiting_reads();

  // ---- service queue (single server, FIFO) ----
  struct Job {
    bool is_update;
    RequestId id;
    net::MessagePtr op;
    net::NodeId client;       // reply destination (updates and reads)
    sim::TimePoint arrival;   // for t_q accounting
    sim::Duration tb = sim::Duration::zero();  // lazy wait (deferred reads)
    bool deferred = false;
    core::Gsn gsn = 0;  // GSN context of the request
  };
  void enqueue_job(Job job);
  void maybe_start_service();
  void complete_job(const Job& job, sim::Duration service_time,
                    sim::TimePoint service_start);

  void send_reply(const std::shared_ptr<const Reply>& reply, net::NodeId client);
  void publish_perf(std::optional<sim::Duration> ts,
                    std::optional<sim::Duration> tq,
                    std::optional<sim::Duration> tb, bool deferred);
  std::optional<LazyInfo> build_lazy_info();

  // ---- lazy publisher ----
  void propagate_lazy_update();
  void update_roles();

  // ---- bounded caches ----
  void remember_committed(const RequestId& id);
  void cache_reply(const RequestId& id, std::shared_ptr<const Reply> reply);

  // ---- observability ----
  void span(obs::SpanKind kind, const RequestId& id, net::NodeId peer,
            std::uint64_t value = 0,
            sim::Duration duration = sim::Duration::zero());

  runtime::Executor& exec_;
  gcs::Endpoint& endpoint_;
  ServiceGroups groups_;
  bool is_primary_;
  std::unique_ptr<ReplicatedObject> object_;
  ReplicaConfig config_;
  sim::Rng rng_;

  gcs::Member* primary_member_ = nullptr;      // null for secondaries
  gcs::Member* replication_member_ = nullptr;
  gcs::Member* qos_member_ = nullptr;

  bool started_ = false;
  bool crashed_ = false;
  std::function<void()> on_evicted_;
  /// Liveness token captured (weakly) by the members' deferred eviction
  /// callbacks — a restart may destroy this server while one is queued.
  std::shared_ptr<const bool> alive_ = std::make_shared<bool>(true);

  // Roles (derived from the primary-group view).
  bool is_leader_ = false;     // primary-group leader: publishes the role map
  bool is_sequencer_ = false;  // the leader, under sequential ordering
  bool is_lazy_publisher_ = false;
  /// Sequencing stays inactive after a takeover until the replication
  /// group's view has excluded the previous sequencer — guarantees the old
  /// sequencer's last GSN broadcasts are flushed before new GSNs are
  /// assigned (no GSN reuse).
  std::optional<net::NodeId> sequencer_barrier_;
  net::NodeId last_primary_leader_;  // previous primary-group leader
  std::uint64_t group_info_epoch_ = 0;
  /// Newest role map seen on the QoS group; used to pick a state-transfer
  /// responder when rejoining.
  std::shared_ptr<const GroupInfo> latest_roles_;

  // Recovery state (transfer barrier).
  bool recovering_ = false;
  bool recovery_decided_ = false;  // first replication view classifies us
  sim::EventHandle recovery_retry_;
  sim::TimePoint recovery_started_at_ = sim::kEpoch;
  sim::TimePoint recovered_at_ = sim::kEpoch;
  sim::TimePoint first_read_request_at_ = sim::kEpoch;
  std::unique_ptr<runtime::PeriodicTask> stall_task_;
  core::Gsn last_stall_head_ = 0;

  // Sequential-consistency protocol state (Section 4.1).
  core::Gsn my_gsn_ = 0;
  core::Csn my_csn_ = 0;

  // Sequencer state.
  std::unordered_map<RequestId, core::Gsn> assigned_;  // dedup of retries
  std::deque<RequestId> assigned_order_;
  std::deque<std::pair<net::NodeId, std::shared_ptr<const net::Message>>>
      barrier_queue_;  // requests buffered while sequencing is inactive

  // Update commit pipeline.
  std::unordered_map<RequestId, std::shared_ptr<const UpdateRequest>>
      update_payload_;                              // awaiting GSN
  std::unordered_map<RequestId, net::NodeId> update_client_;
  std::map<core::Gsn, RequestId> update_gsn_;       // assigned, awaiting payload
  std::unordered_map<RequestId, core::Gsn> gsn_of_update_;
  core::Gsn next_enqueue_gsn_ = 0;  // last update GSN handed to the queue
  std::set<RequestId> committed_;   // dedup (bounded via committed_order_)
  std::deque<RequestId> committed_order_;

  // FIFO ordering: updates in arrival order, awaiting the transfer
  // barrier, and the per-client horizons (also the dedup summary).
  std::deque<RequestId> fifo_arrivals_;
  std::map<net::NodeId, std::uint64_t> horizons_;

  // Read pipeline.
  std::unordered_map<RequestId, core::Gsn> gsn_of_read_;
  std::deque<RequestId> gsn_of_read_order_;
  std::unordered_map<RequestId, PendingRead> pending_reads_;
  std::set<RequestId> waiting_reads_;  // staleness not yet satisfied

  // Reply cache for client retries.
  std::unordered_map<RequestId, std::shared_ptr<const Reply>> reply_cache_;
  std::deque<RequestId> reply_cache_order_;

  // Service queue.
  std::deque<Job> queue_;
  bool busy_ = false;
  /// In-flight service completion; cancelled on crash so a crashed (and
  /// possibly soon-destroyed) replica never completes a job posthumously.
  sim::EventHandle service_event_;

  // Lazy publisher bookkeeping.
  std::unique_ptr<runtime::PeriodicTask> lazy_task_;
  std::unique_ptr<runtime::PeriodicTask> perf_task_;
  std::uint64_t lazy_seq_ = 0;
  std::uint32_t updates_since_publish_ = 0;
  sim::TimePoint last_perf_publish_ = sim::kEpoch;
  std::uint32_t updates_since_lazy_ = 0;
  sim::TimePoint last_lazy_update_ = sim::kEpoch;

  /// Per-replica view (the `stats()` accessor); increments are mirrored
  /// into the registry-wide "repl.*" aggregates.
  ReplicaStats stats_;
  obs::Observability& obs_;
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& reg);
    obs::Counter& updates_committed;
    obs::Counter& reads_served;
    obs::Counter& deferred_reads;
    obs::Counter& gsn_assigned;
    obs::Counter& lazy_updates_published;
    obs::Counter& lazy_updates_installed;
    obs::Counter& duplicate_requests;
    obs::Counter& gsn_conflicts;
    obs::Counter& state_transfers_requested;
    obs::Counter& state_snapshots_served;
    obs::Counter& state_snapshots_installed;
    obs::Counter& recoveries_completed;
    obs::Counter& evictions;
    obs::Histogram& service_ms;
    obs::Histogram& queueing_ms;
    obs::Histogram& lazy_wait_ms;
  };
  Instruments metrics_;
};

}  // namespace aqueduct::replication
