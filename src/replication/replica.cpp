#include "replication/replica.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/check.hpp"

namespace aqueduct::replication {

ReplicaServer::Instruments::Instruments(obs::MetricsRegistry& reg)
    : updates_committed(reg.counter("repl.updates_committed")),
      reads_served(reg.counter("repl.reads_served")),
      deferred_reads(reg.counter("repl.deferred_reads")),
      gsn_assigned(reg.counter("repl.gsn_assigned")),
      lazy_updates_published(reg.counter("repl.lazy_updates_published")),
      lazy_updates_installed(reg.counter("repl.lazy_updates_installed")),
      duplicate_requests(reg.counter("repl.duplicate_requests")),
      gsn_conflicts(reg.counter("repl.gsn_conflicts")),
      state_transfers_requested(reg.counter("repl.state_transfers_requested")),
      state_snapshots_served(reg.counter("repl.state_snapshots_served")),
      state_snapshots_installed(reg.counter("repl.state_snapshots_installed")),
      recoveries_completed(reg.counter("repl.recoveries_completed")),
      evictions(reg.counter("repl.evictions")),
      service_ms(reg.histogram("repl.service_ms")),
      queueing_ms(reg.histogram("repl.queueing_ms")),
      lazy_wait_ms(reg.histogram("repl.lazy_wait_ms")) {}

ReplicaServer::ReplicaServer(runtime::Executor& exec, gcs::Endpoint& endpoint,
                             ServiceGroups groups, bool is_primary,
                             std::unique_ptr<ReplicatedObject> object,
                             ReplicaConfig config)
    : exec_(exec),
      endpoint_(endpoint),
      groups_(groups),
      is_primary_(is_primary),
      object_(std::move(object)),
      config_(std::move(config)),
      rng_(exec.rng().split()),
      obs_(endpoint.observability()),
      metrics_(obs_.metrics) {
  AQUEDUCT_CHECK(object_ != nullptr);
  AQUEDUCT_CHECK_MSG(config_.service_time != nullptr,
                     "ReplicaConfig.service_time must be set");
}

ReplicaServer::~ReplicaServer() {
  exec_.cancel(recovery_retry_);
  exec_.cancel(service_event_);
}

void ReplicaServer::start() {
  AQUEDUCT_CHECK(!started_ && !crashed_);
  started_ = true;

  qos_member_ = &endpoint_.member(groups_.qos);
  qos_member_->set_on_deliver(
      [this](net::NodeId from, const net::MessagePtr& msg) {
        on_qos_deliver(from, msg);
      });
  qos_member_->set_on_view([this](const gcs::View& v) { on_qos_view(v); });

  replication_member_ = &endpoint_.member(groups_.replication);
  replication_member_->set_on_deliver(
      [this](net::NodeId from, const net::MessagePtr& msg) {
        on_replication_deliver(from, msg);
      });
  replication_member_->set_on_view(
      [this](const gcs::View& v) { on_replication_view(v); });

  if (is_primary_) {
    primary_member_ = &endpoint_.member(groups_.primary);
    primary_member_->set_on_view(
        [this](const gcs::View& v) { on_primary_view(v); });
    // No application traffic flows on the primary group itself; it exists
    // to define primary membership and elect the sequencer.
  }

  if (is_primary_ && !fifo()) {
    stall_task_ = std::make_unique<runtime::PeriodicTask>(
        exec_, config_.commit_stall_check, [this] { check_commit_stall(); });
    stall_task_->start();
  }

  // Being ejected from any service group while still running (the failure
  // detector mistook a gray-failed process for dead) is fatal: the member
  // has stopped, so this replica would otherwise run on forever outside the
  // commit stream. Treat it as a crash; the harness reincarnates the slot.
  const auto evicted = [this, weak = std::weak_ptr<const bool>(alive_)] {
    if (weak.expired()) return;
    on_member_eviction();
  };
  qos_member_->set_on_eviction(evicted);
  replication_member_->set_on_eviction(evicted);
  if (primary_member_ != nullptr) primary_member_->set_on_eviction(evicted);

  qos_member_->join();
  replication_member_->join();
  if (primary_member_ != nullptr) primary_member_->join();
}

void ReplicaServer::on_member_eviction() {
  if (crashed_) return;
  ++stats_.evictions;
  metrics_.evictions.inc();
  crash();
  if (on_evicted_) on_evicted_();  // may destroy this server — return at once
}

void ReplicaServer::crash() {
  if (crashed_) return;
  crashed_ = true;
  lazy_task_.reset();
  perf_task_.reset();
  stall_task_.reset();
  exec_.cancel(recovery_retry_);
  exec_.cancel(service_event_);
  endpoint_.crash();
}

std::uint64_t ReplicaServer::horizon_of(net::NodeId client) const {
  auto it = horizons_.find(client);
  return it == horizons_.end() ? 0 : it->second;
}

void ReplicaServer::set_lazy_update_interval(sim::Duration interval) {
  AQUEDUCT_CHECK(interval > sim::Duration::zero());
  config_.lazy_update_interval = interval;
  if (lazy_task_ && lazy_task_->running()) {
    lazy_task_ = std::make_unique<runtime::PeriodicTask>(
        exec_, config_.lazy_update_interval, [this] { propagate_lazy_update(); });
    lazy_task_->start();
  }
}

// ---------------------------------------------------------------------------
// View handling and roles
// ---------------------------------------------------------------------------

void ReplicaServer::on_primary_view(const gcs::View& view) {
  if (crashed_ || view.empty()) return;

  const net::NodeId new_leader = view.leader();
  is_leader_ = (new_leader == id());
  const bool becoming_sequencer = is_leader_ && !fifo() && !is_sequencer_;

  is_sequencer_ = is_leader_ && !fifo();
  const net::NodeId lazy_publisher =
      view.size() >= 2 ? view.members.back() : view.leader();
  const bool was_publisher = is_lazy_publisher_;
  is_lazy_publisher_ = (lazy_publisher == id());

  if (becoming_sequencer) {
    // Hold new GSN assignments until the replication group has flushed the
    // previous sequencer out, so its in-flight GSN broadcasts are resolved
    // first and no GSN is reused for a different request.
    if (last_primary_leader_.valid() && last_primary_leader_ != id() &&
        replication_member_ != nullptr && replication_member_->joined() &&
        replication_member_->view().contains(last_primary_leader_)) {
      sequencer_barrier_ = last_primary_leader_;
    } else {
      sequencer_barrier_.reset();
    }
    // Resume sequencing from the highest GSN this replica has observed —
    // virtual synchrony guarantees all survivors agree on the delivered
    // GSN broadcasts of the crashed sequencer.
  }

  if (is_lazy_publisher_ && !was_publisher) {
    last_lazy_update_ = exec_.now();
    last_perf_publish_ = exec_.now();
    updates_since_lazy_ = 0;
    updates_since_publish_ = 0;
    lazy_task_ = std::make_unique<runtime::PeriodicTask>(
        exec_, config_.lazy_update_interval, [this] { propagate_lazy_update(); });
    lazy_task_->start();
    perf_task_ = std::make_unique<runtime::PeriodicTask>(
        exec_, config_.perf_publish_period,
        [this] { publish_perf(std::nullopt, std::nullopt, std::nullopt, false); });
    perf_task_->start();
  } else if (!is_lazy_publisher_ && was_publisher) {
    lazy_task_.reset();
    perf_task_.reset();
  }

  last_primary_leader_ = new_leader;
  maybe_activate_sequencer();
  if (is_leader_) publish_group_info();
}

void ReplicaServer::on_replication_view(const gcs::View& view) {
  if (crashed_ || view.empty()) return;
  if (!recovery_decided_) {
    // First view classifies this replica: the genesis member bootstraps a
    // singleton view and starts from empty state; anyone who lands in a
    // view with existing members is (re)joining a running service and must
    // synchronize before committing (the transfer barrier).
    recovery_decided_ = true;
    if (view.size() > 1) begin_recovery();
    // FIFO primaries hold every update until this decision.
    if (fifo()) try_enqueue_commits();
  }
  maybe_activate_sequencer();
  if (is_leader_) publish_group_info();
  if (is_lazy_publisher_) {
    // Bring freshly joined secondaries up to date without waiting a full
    // lazy interval.
    propagate_lazy_update();
  }
}

void ReplicaServer::on_qos_view(const gcs::View& view) {
  if (crashed_ || view.empty()) return;
  // A new client joined (or one left): re-publish the role map so it can
  // start issuing requests.
  if (is_leader_) publish_group_info();
}

void ReplicaServer::maybe_activate_sequencer() {
  // A recovering sequencer must not assign GSNs: its my_gsn_ may lag the
  // cluster and reassigning a used GSN would violate safety. Requests
  // buffer in barrier_queue_ until the snapshot installs.
  if (!is_sequencer_ || recovering_) return;
  if (sequencer_barrier_) {
    if (replication_member_ == nullptr || !replication_member_->joined()) return;
    if (replication_member_->view().contains(*sequencer_barrier_)) return;
    sequencer_barrier_.reset();
  }
  // Sequence the requests that arrived during the barrier, in order.
  auto queued = std::move(barrier_queue_);
  barrier_queue_.clear();
  for (auto& [from, msg] : queued) {
    if (auto update = net::message_cast<UpdateRequest>(msg)) {
      sequence_update(*update);
    } else if (auto read = net::message_cast<ReadRequest>(msg)) {
      sequence_read(*read);
    }
  }
}

void ReplicaServer::publish_group_info() {
  if (!is_leader_ || qos_member_ == nullptr || !qos_member_->joined()) return;
  if (primary_member_ == nullptr || !primary_member_->joined()) return;
  if (replication_member_ == nullptr || !replication_member_->joined()) return;

  auto info = std::make_shared<GroupInfo>();
  info->epoch = ++group_info_epoch_;
  // No sequencer tells clients the service is FIFO-ordered; the leader is
  // then an ordinary serving primary.
  if (!fifo()) info->sequencer = id();
  const gcs::View& primary_view = primary_member_->view();
  const gcs::View& replication_view = replication_member_->view();
  for (const net::NodeId m : primary_view.members) {
    if (m != info->sequencer) info->primaries.push_back(m);
  }
  for (const net::NodeId m : replication_view.members) {
    if (!primary_view.contains(m)) info->secondaries.push_back(m);
  }
  info->lazy_publisher = primary_view.size() >= 2 ? primary_view.members.back()
                                                  : primary_view.leader();
  qos_member_->multicast(info);
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void ReplicaServer::on_qos_deliver(net::NodeId from, const net::MessagePtr& msg) {
  if (crashed_) return;
  if (auto update = net::message_cast<UpdateRequest>(msg)) {
    handle_update_request(from, *update);
  } else if (auto read = net::message_cast<ReadRequest>(msg)) {
    handle_read_request(from, read);
  } else if (auto info = net::message_cast<GroupInfo>(msg)) {
    // Track the highest role-map epoch ever published so that a replica
    // taking over as sequencer continues the epoch sequence — clients
    // ignore GroupInfo with a non-increasing epoch.
    if (info->epoch >= group_info_epoch_) latest_roles_ = info;
    group_info_epoch_ = std::max(group_info_epoch_, info->epoch);
  }
  // PerfPublication / Reply multicasts are for clients; ignore.
}

void ReplicaServer::on_replication_deliver(net::NodeId from,
                                           const net::MessagePtr& msg) {
  if (crashed_) return;
  if (auto assign = net::message_cast<GsnAssign>(msg)) {
    handle_gsn_assign(*assign);
  } else if (auto lazy = net::message_cast<LazyUpdate>(msg)) {
    handle_lazy_update(*lazy);
  } else if (net::message_cast<StateRequest>(msg)) {
    handle_state_request(from);
  } else if (auto snap = net::message_cast<StateSnapshot>(msg)) {
    handle_state_snapshot(*snap);
  }
}

// ---------------------------------------------------------------------------
// Updates (Section 4.1.1)
// ---------------------------------------------------------------------------

void ReplicaServer::handle_update_request(net::NodeId /*from*/,
                                          const UpdateRequest& request) {
  if (!is_primary_) return;  // secondaries never service updates

  const RequestId id = request.id;
  // The payload stays in update_payload_ until the commit completes, so a
  // retried payload is recognized as a duplicate whether the update is
  // still waiting for its GSN, queued, or already committed.
  const bool duplicate = already_applied(id) || update_payload_.contains(id);
  span(obs::SpanKind::kDeliver, id, id.client, duplicate ? 1 : 0);
  if (duplicate) {
    ++stats_.duplicate_requests;
    metrics_.duplicate_requests.inc();
    if (auto it = reply_cache_.find(id); it != reply_cache_.end()) {
      send_reply(it->second, id.client);
    }
  } else {
    ++updates_since_publish_;
    ++updates_since_lazy_;
    auto copy = std::make_shared<UpdateRequest>(request);
    update_payload_.emplace(id, std::move(copy));
    if (fifo()) fifo_arrivals_.push_back(id);
  }

  if (is_sequencer_) sequence_update(request);
  if (!duplicate) try_enqueue_commits();
}

void ReplicaServer::sequence_update(const UpdateRequest& request) {
  if (sequencer_barrier_ || recovering_) {
    barrier_queue_.emplace_back(request.id.client,
                                std::make_shared<UpdateRequest>(request));
    return;
  }
  auto assign = std::make_shared<GsnAssign>();
  assign->id = request.id;
  assign->is_update = true;
  if (auto it = assigned_.find(request.id); it != assigned_.end()) {
    assign->gsn = it->second;  // retry: re-broadcast the original assignment
  } else {
    assign->gsn = ++my_gsn_;
    assigned_.emplace(request.id, assign->gsn);
    assigned_order_.push_back(request.id);
    if (assigned_order_.size() > config_.cache_limit) {
      assigned_.erase(assigned_order_.front());
      assigned_order_.pop_front();
    }
    ++stats_.gsn_assigned;
    metrics_.gsn_assigned.inc();
  }
  span(obs::SpanKind::kGsnAssign, request.id, request.id.client, assign->gsn);
  replication_member_->multicast(assign);
}

void ReplicaServer::handle_gsn_assign(const GsnAssign& assign) {
  my_gsn_ = std::max(my_gsn_, assign.gsn);

  if (!assign.is_update) {
    // Read GSN broadcast: remember it for the (possibly not yet received)
    // read request, and wake any read already waiting for it.
    if (!gsn_of_read_.contains(assign.id)) {
      gsn_of_read_.emplace(assign.id, assign.gsn);
      gsn_of_read_order_.push_back(assign.id);
      if (gsn_of_read_order_.size() > config_.cache_limit) {
        gsn_of_read_.erase(gsn_of_read_order_.front());
        gsn_of_read_order_.pop_front();
      }
    }
    if (auto it = pending_reads_.find(assign.id); it != pending_reads_.end()) {
      if (!it->second.gsn) {
        it->second.gsn = assign.gsn;
        it->second.gsn_at = exec_.now();
        try_ready_read(assign.id);
      }
    }
    return;
  }

  if (!is_primary_) return;  // secondaries track GSN only

  // Conflict safety net: a GSN must never be bound to two requests, and a
  // request must never receive two GSNs (the sequencer barrier prevents
  // both; the counter lets tests assert it).
  if (auto it = update_gsn_.find(assign.gsn);
      it != update_gsn_.end() && it->second != assign.id) {
    ++stats_.gsn_conflicts;
    metrics_.gsn_conflicts.inc();
    return;
  }
  if (auto it = gsn_of_update_.find(assign.id);
      it != gsn_of_update_.end() && it->second != assign.gsn) {
    ++stats_.gsn_conflicts;
    metrics_.gsn_conflicts.inc();
    return;
  }
  if (assign.gsn <= next_enqueue_gsn_) return;  // already consumed (retry)

  update_gsn_.emplace(assign.gsn, assign.id);
  gsn_of_update_.emplace(assign.id, assign.gsn);
  try_enqueue_commits();
}

void ReplicaServer::try_enqueue_commits() {
  // The transfer barrier: a recovering primary buffers assignments and
  // payloads but must not execute them — committing a mid-stream GSN onto
  // unsynchronized state would fork the committed prefix. The snapshot
  // install advances next_enqueue_gsn_ past everything it covers, so after
  // recovery each GSN is executed exactly once.
  if (!is_primary_ || recovering_) return;
  if (fifo()) {
    // Each client's updates apply in arrival order, which the service
    // queue keeps. Updates an installed snapshot already covers drop out.
    if (!recovery_decided_) return;
    for (const RequestId& rid : fifo_arrivals_) {
      if (already_applied(rid)) {
        update_payload_.erase(rid);
        continue;
      }
      Job job;
      job.is_update = true;
      job.id = rid;
      job.op = update_payload_.at(rid)->op;
      job.client = rid.client;
      job.arrival = exec_.now();
      enqueue_job(std::move(job));
    }
    fifo_arrivals_.clear();
    return;
  }
  while (true) {
    auto it = update_gsn_.find(next_enqueue_gsn_ + 1);
    if (it == update_gsn_.end()) break;
    const RequestId rid = it->second;
    Job job;
    job.is_update = true;
    job.id = rid;
    job.gsn = it->first;
    job.client = rid.client;
    job.arrival = exec_.now();
    if (committed_.contains(rid)) {
      // Retried request that a failed-over sequencer re-assigned: consume
      // the GSN as a no-op so the commit sequence stays contiguous.
      job.op = nullptr;
    } else {
      auto payload = update_payload_.find(rid);
      if (payload == update_payload_.end()) break;  // wait for the payload
      job.op = payload->second->op;
      // The payload entry is kept (for retry dedup) until the commit
      // completes in complete_job().
    }
    update_gsn_.erase(it);
    next_enqueue_gsn_ = job.gsn;
    enqueue_job(std::move(job));
  }
}

// ---------------------------------------------------------------------------
// Reads (Section 4.1.2)
// ---------------------------------------------------------------------------

void ReplicaServer::handle_read_request(
    net::NodeId from, const std::shared_ptr<const ReadRequest>& request) {
  const RequestId id = request->id;
  span(obs::SpanKind::kDeliver, id, from);
  if (auto it = reply_cache_.find(id); it != reply_cache_.end()) {
    ++stats_.duplicate_requests;
    metrics_.duplicate_requests.inc();
    send_reply(it->second, id.client);
    return;
  }

  if (is_sequencer_) {
    // The sequencer only broadcasts the current GSN; it does not service
    // the read itself.
    sequence_read(*request);
    return;
  }

  // Selection instant: a read addressed to this (non-sequencer) replica
  // means some client's Algorithm 1 picked it — for a reborn replica this
  // marks re-admission (the recovery plan's time-to-first-selection).
  if (first_read_request_at_ == sim::kEpoch) first_read_request_at_ = exec_.now();

  if (pending_reads_.contains(id)) {
    ++stats_.duplicate_requests;
    metrics_.duplicate_requests.inc();
    return;
  }
  PendingRead pending;
  pending.request = request;
  pending.client = from;
  pending.arrival = exec_.now();
  if (fifo()) {
    // No GSN to wait for: the client's horizon alone decides readiness.
    pending.gsn = 0;
    pending.gsn_at = exec_.now();
  } else if (auto it = gsn_of_read_.find(id); it != gsn_of_read_.end()) {
    pending.gsn = it->second;
    pending.gsn_at = exec_.now();
  }
  pending_reads_.emplace(id, std::move(pending));
  if (pending_reads_.at(id).gsn) try_ready_read(id);
}

void ReplicaServer::sequence_read(const ReadRequest& request) {
  if (sequencer_barrier_ || recovering_) {
    barrier_queue_.emplace_back(request.id.client,
                                std::make_shared<ReadRequest>(request));
    return;
  }
  auto assign = std::make_shared<GsnAssign>();
  assign->id = request.id;
  assign->is_update = false;
  if (auto it = assigned_.find(request.id); it != assigned_.end()) {
    assign->gsn = it->second;
  } else {
    assign->gsn = my_gsn_;  // current GSN, *not* advanced for reads
    assigned_.emplace(request.id, assign->gsn);
    assigned_order_.push_back(request.id);
    if (assigned_order_.size() > config_.cache_limit) {
      assigned_.erase(assigned_order_.front());
      assigned_order_.pop_front();
    }
  }
  replication_member_->multicast(assign);
}

void ReplicaServer::try_ready_read(const RequestId& id) {
  auto it = pending_reads_.find(id);
  if (it == pending_reads_.end()) return;
  PendingRead& pending = it->second;
  if (!pending.gsn) return;

  const bool fresh =
      fifo() ? horizon_of(id.client) >= pending.request->bound
             : core::staleness_of(*pending.gsn, my_csn_) <= pending.request->bound;
  if (!fresh) {
    // Too stale (or, under FIFO, missing the client's own writes): a
    // secondary defers until the next lazy update brings the state within
    // the bound; a primary simply waits for its in-flight commits (that
    // wait is part of the queueing delay W).
    if (!is_primary_) pending.deferred = true;
    waiting_reads_.insert(id);
    return;
  }

  Job job;
  job.is_update = false;
  job.id = id;
  job.op = pending.request->op;
  job.client = pending.client;
  job.arrival = pending.arrival;
  job.deferred = pending.deferred;
  job.tb = pending.deferred ? exec_.now() - pending.gsn_at : sim::Duration::zero();
  job.gsn = *pending.gsn;
  waiting_reads_.erase(id);
  pending_reads_.erase(it);
  enqueue_job(std::move(job));
}

void ReplicaServer::recheck_waiting_reads() {
  const std::vector<RequestId> waiting(waiting_reads_.begin(), waiting_reads_.end());
  for (const RequestId& id : waiting) try_ready_read(id);
}

// ---------------------------------------------------------------------------
// Lazy update propagation (Section 3 / 5.4.1)
// ---------------------------------------------------------------------------

void ReplicaServer::propagate_lazy_update() {
  if (crashed_ || replication_member_ == nullptr || !replication_member_->joined()) {
    return;
  }
  if (fifo()) {
    // A recovering publisher's horizons are partial; shipping them could
    // end a rejoining peer's recovery on a state that misses updates.
    if (recovering_) return;
    ++lazy_seq_;
    replication_member_->multicast(state_snapshot());
  } else {
    auto lazy = std::make_shared<LazyUpdate>();
    lazy->csn = my_csn_;
    lazy->snapshot = object_->snapshot();
    lazy->lazy_seq = ++lazy_seq_;
    replication_member_->multicast(lazy);
  }
  updates_since_lazy_ = 0;
  last_lazy_update_ = exec_.now();
  ++stats_.lazy_updates_published;
  metrics_.lazy_updates_published.inc();
  if (obs_.trace.active()) {
    // Lazy propagations are not tied to any client request; they trace
    // under the invalid TraceId so timelines still show them per node.
    obs::SpanEvent event;
    event.kind = obs::SpanKind::kLazyPublish;
    event.at = exec_.now();
    event.node = id();
    event.value = lazy_seq_;
    obs_.trace.span(event);
  }
  // Tell the clients immediately that a lazy update just happened, so
  // their <n_L, t_L> trackers re-synchronize.
  publish_perf(std::nullopt, std::nullopt, std::nullopt, false);
}

void ReplicaServer::handle_lazy_update(const LazyUpdate& lazy) {
  if (is_primary_) return;  // primaries are updated immediately
  // A rejoining secondary catches up from the first lazy propagation: any
  // LazyUpdate delivery (the publisher pushes one immediately on view
  // changes) re-synchronizes it, even if the CSN happens to match.
  if (recovering_) finish_recovery();
  if (lazy.csn <= my_csn_) return;
  object_->install_snapshot(lazy.snapshot);
  my_csn_ = lazy.csn;
  ++stats_.lazy_updates_installed;
  metrics_.lazy_updates_installed.inc();
  recheck_waiting_reads();
}

// ---------------------------------------------------------------------------
// Recovery / state transfer (rejoin after crash, or commit-stall repair)
// ---------------------------------------------------------------------------

void ReplicaServer::begin_recovery() {
  if (recovering_ || crashed_) return;
  recovering_ = true;
  recovery_started_at_ = exec_.now();
  last_stall_head_ = 0;
  // Secondaries synchronize passively from the next lazy propagation (the
  // publisher pushes one on every replication view change); only primaries
  // pull a snapshot, because they must also reconstruct the commit
  // position and dedup set.
  if (is_primary_) send_state_request();
}

void ReplicaServer::send_state_request() {
  if (!recovering_ || crashed_) return;
  exec_.cancel(recovery_retry_);
  recovery_retry_ = exec_.after(config_.state_transfer_retry,
                               [this] { send_state_request(); });
  const auto target = choose_transfer_target();
  if (!target) return;  // roles unknown yet; retry after the timer
  ++stats_.state_transfers_requested;
  metrics_.state_transfers_requested.inc();
  replication_member_->send_to(*target, std::make_shared<StateRequest>());
}

std::optional<net::NodeId> ReplicaServer::choose_transfer_target() const {
  if (replication_member_ == nullptr || !replication_member_->joined()) {
    return std::nullopt;
  }
  const gcs::View& view = replication_member_->view();
  std::vector<net::NodeId> candidates;
  if (latest_roles_) {
    // Prefer the lazy publisher (it snapshots anyway), then the sequencer,
    // then any other primary. The role map may be stale after a
    // simultaneous failure; the view filter plus the retry timer (the
    // sequencer republishes roles on every view change) converge on a live
    // responder.
    candidates.push_back(latest_roles_->lazy_publisher);
    candidates.push_back(latest_roles_->sequencer);
    candidates.insert(candidates.end(), latest_roles_->primaries.begin(),
                      latest_roles_->primaries.end());
  }
  for (const net::NodeId c : candidates) {
    if (c.valid() && c != id() && view.contains(c)) return c;
  }
  return std::nullopt;
}

void ReplicaServer::handle_state_request(net::NodeId from) {
  // Only a synchronized primary may serve a transfer; a recovering one
  // would hand out the very hole it is trying to fill.
  if (!is_primary_ || recovering_ || crashed_) return;
  if (replication_member_ == nullptr || !replication_member_->joined()) return;
  if (!replication_member_->view().contains(from)) return;
  ++stats_.state_snapshots_served;
  metrics_.state_snapshots_served.inc();
  replication_member_->send_to(from, state_snapshot());
}

std::shared_ptr<StateSnapshot> ReplicaServer::state_snapshot() const {
  auto snap = std::make_shared<StateSnapshot>();
  snap->csn = my_csn_;
  snap->gsn = my_gsn_;
  snap->snapshot = object_->snapshot();
  if (fifo()) {
    for (const auto& [client, seq] : horizons_) {
      snap->committed.push_back(RequestId{client, seq});
    }
  } else {
    snap->committed.assign(committed_order_.begin(), committed_order_.end());
  }
  return snap;
}

void ReplicaServer::handle_state_snapshot(const StateSnapshot& snap) {
  if (fifo()) {
    install_fifo_snapshot(snap);
    return;
  }
  if (!recovering_ || !is_primary_) return;  // late duplicate
  if (snap.csn > my_csn_) {
    object_->install_snapshot(snap.snapshot);
    my_csn_ = snap.csn;
    ++stats_.state_snapshots_installed;
    metrics_.state_snapshots_installed.inc();
  }
  my_gsn_ = std::max(my_gsn_, snap.gsn);
  // Transfer barrier bookkeeping: everything at or below the snapshot CSN
  // is already reflected in the installed state — consume those GSNs so
  // they are never executed again, and adopt the responder's dedup set so
  // re-broadcast assignments of old requests become no-op commits.
  next_enqueue_gsn_ = std::max(next_enqueue_gsn_, snap.csn);
  std::erase_if(update_gsn_,
                [&](const auto& kv) { return kv.first <= next_enqueue_gsn_; });
  for (const RequestId& rid : snap.committed) {
    if (committed_.contains(rid)) continue;
    remember_committed(rid);
    update_payload_.erase(rid);
    if (auto it = gsn_of_update_.find(rid);
        it != gsn_of_update_.end() && it->second <= next_enqueue_gsn_) {
      gsn_of_update_.erase(it);
    }
  }
  finish_recovery();
}

void ReplicaServer::install_fifo_snapshot(const StateSnapshot& snap) {
  // Lazy propagations reach the whole replication group; a synchronized
  // primary's own state is at least as current.
  if (is_primary_ && !recovering_) return;
  std::map<net::NodeId, std::uint64_t> horizons;
  for (const RequestId& h : snap.committed) horizons[h.client] = h.seq;
  // Never roll a client's session back: install only a state covering
  // every horizon this replica already holds. Primaries interleave clients
  // differently, so after a publisher failover a secondary may wait for
  // the new publisher to catch up.
  bool advances = false;
  for (const auto& [client, seq] : horizons) {
    advances = advances || seq > horizon_of(client);
  }
  for (const auto& [client, seq] : horizons_) {
    auto it = horizons.find(client);
    if (it == horizons.end() || it->second < seq) return;
  }
  if (!advances && !recovering_) return;
  object_->install_snapshot(snap.snapshot);
  my_csn_ = snap.csn;
  horizons_ = std::move(horizons);
  if (is_primary_) {
    ++stats_.state_snapshots_installed;
    metrics_.state_snapshots_installed.inc();
  } else {
    ++stats_.lazy_updates_installed;
    metrics_.lazy_updates_installed.inc();
  }
  if (recovering_) {
    finish_recovery();  // applies the updates held behind the barrier
  } else {
    recheck_waiting_reads();
  }
}

void ReplicaServer::finish_recovery() {
  if (!recovering_) return;
  recovering_ = false;
  recovered_at_ = exec_.now();
  exec_.cancel(recovery_retry_);
  ++stats_.recoveries_completed;
  metrics_.recoveries_completed.inc();
  // Drop the barrier: run everything that accumulated behind it.
  maybe_activate_sequencer();
  try_enqueue_commits();
  recheck_waiting_reads();
}

void ReplicaServer::check_commit_stall() {
  if (crashed_ || !is_primary_ || recovering_) {
    last_stall_head_ = 0;
    return;
  }
  const core::Gsn head = next_enqueue_gsn_ + 1;
  bool stalled = false;
  if (!update_gsn_.empty()) {
    const auto first = update_gsn_.begin();
    if (first->first > head) {
      // Assignment gap: GSNs below the first known assignment were
      // broadcast before this replica (re)joined and will never arrive.
      stalled = true;
    } else if (first->first == head && !committed_.contains(first->second) &&
               !update_payload_.contains(first->second)) {
      // Head assigned but its payload is missing (lost before the client
      // learned this replica exists, or the client gave up retrying).
      stalled = true;
    }
  }
  if (stalled && last_stall_head_ == head) {
    // Stuck on the same hole for a full check period: re-enter recovery
    // and jump past it via a snapshot from a synchronized primary.
    begin_recovery();
    return;
  }
  last_stall_head_ = stalled ? head : 0;
}

// ---------------------------------------------------------------------------
// Service queue (single FIFO server per replica)
// ---------------------------------------------------------------------------

void ReplicaServer::enqueue_job(Job job) {
  span(obs::SpanKind::kEnqueue, job.id, job.client, queue_.size());
  queue_.push_back(std::move(job));
  maybe_start_service();
}

void ReplicaServer::maybe_start_service() {
  if (busy_ || queue_.empty() || crashed_) return;
  busy_ = true;
  Job job = std::move(queue_.front());
  queue_.pop_front();
  // The sequencer's bookkeeping and no-op commits are free; real request
  // processing takes a sampled service delay (the paper's simulated
  // background load).
  const bool free = (job.is_update && job.op == nullptr) || is_sequencer_;
  const sim::Duration service_time =
      free ? sim::Duration::zero() : config_.service_time->sample(rng_);
  const sim::TimePoint service_start = exec_.now();
  service_event_ =
      exec_.after(service_time, [this, job = std::move(job), service_time,
                                service_start]() mutable {
        complete_job(job, service_time, service_start);
      });
}

void ReplicaServer::complete_job(const Job& job, sim::Duration service_time,
                                 sim::TimePoint service_start) {
  if (crashed_) return;
  span(obs::SpanKind::kExecute, job.id, job.client, job.is_update ? 1 : 0,
       service_time);
  if (job.is_update) {
    if (job.op != nullptr) {
      net::MessagePtr result = object_->apply_update(job.op);
      ++my_csn_;
      ++stats_.updates_committed;
      metrics_.updates_committed.inc();
      if (fifo()) {
        auto& horizon = horizons_[job.id.client];
        horizon = std::max(horizon, job.id.seq);
      } else {
        remember_committed(job.id);
      }
      update_payload_.erase(job.id);
      if (!is_sequencer_) {
        const sim::Duration tq = service_start - job.arrival;
        metrics_.service_ms.observe(sim::to_ms(service_time));
        metrics_.queueing_ms.observe(sim::to_ms(tq));
        auto reply = std::make_shared<Reply>();
        reply->id = job.id;
        reply->is_update = true;
        reply->result = std::move(result);
        reply->replica = id();
        reply->t1 = service_time + tq;
        reply->ts = service_time;
        reply->tq = tq;
        cache_reply(job.id, reply);
        send_reply(reply, job.client);
      }
    } else {
      ++my_csn_;  // no-op commit keeps the sequence contiguous
    }
    recheck_waiting_reads();
  } else {
    net::MessagePtr result = object_->apply_read(job.op);
    ++stats_.reads_served;
    metrics_.reads_served.inc();
    if (job.deferred) {
      ++stats_.deferred_reads;
      metrics_.deferred_reads.inc();
      metrics_.lazy_wait_ms.observe(sim::to_ms(job.tb));
    }
    const sim::Duration tq = (service_start - job.arrival) - job.tb;
    metrics_.service_ms.observe(sim::to_ms(service_time));
    metrics_.queueing_ms.observe(sim::to_ms(tq));
    auto reply = std::make_shared<Reply>();
    reply->id = job.id;
    reply->is_update = false;
    reply->result = std::move(result);
    reply->replica = id();
    reply->t1 = service_time + tq + job.tb;
    reply->ts = service_time;
    reply->tq = tq;
    reply->tb = job.tb;
    reply->deferred = job.deferred;
    reply->staleness = core::staleness_of(job.gsn, my_csn_);
    cache_reply(job.id, reply);
    send_reply(reply, job.client);
    publish_perf(service_time, tq, job.tb, job.deferred);
  }
  busy_ = false;
  maybe_start_service();
}

void ReplicaServer::send_reply(const std::shared_ptr<const Reply>& reply,
                               net::NodeId client) {
  if (qos_member_ == nullptr || !qos_member_->joined()) return;
  if (!qos_member_->view().contains(client)) return;  // client gone
  span(obs::SpanKind::kReply, reply->id, client, reply->deferred ? 1 : 0,
       reply->t1);
  qos_member_->send_to(client, reply);
}

void ReplicaServer::publish_perf(std::optional<sim::Duration> ts,
                                 std::optional<sim::Duration> tq,
                                 std::optional<sim::Duration> tb,
                                 bool deferred) {
  if (crashed_ || qos_member_ == nullptr || !qos_member_->joined()) return;
  auto perf = std::make_shared<PerfPublication>();
  perf->replica = id();
  if (ts) {
    perf->has_sample = true;
    perf->ts = *ts;
    perf->tq = tq.value_or(sim::Duration::zero());
    perf->tb = tb.value_or(sim::Duration::zero());
    perf->deferred = deferred;
  }
  if (is_lazy_publisher_) {
    perf->lazy = build_lazy_info();
    updates_since_publish_ = 0;
    last_perf_publish_ = exec_.now();
  }
  qos_member_->multicast(perf);
}

std::optional<LazyInfo> ReplicaServer::build_lazy_info() {
  LazyInfo info;
  info.n_u = updates_since_publish_;
  info.t_u = exec_.now() - last_perf_publish_;
  info.n_l = updates_since_lazy_;
  info.t_l = exec_.now() - last_lazy_update_;
  info.period = config_.lazy_update_interval;
  return info;
}

// ---------------------------------------------------------------------------
// Bounded caches
// ---------------------------------------------------------------------------

bool ReplicaServer::already_applied(const RequestId& id) const {
  return fifo() ? id.seq <= horizon_of(id.client) : committed_.contains(id);
}

void ReplicaServer::remember_committed(const RequestId& id) {
  committed_.insert(id);
  committed_order_.push_back(id);
  if (committed_order_.size() > config_.cache_limit) {
    const RequestId& oldest = committed_order_.front();
    committed_.erase(oldest);
    gsn_of_update_.erase(oldest);
    committed_order_.pop_front();
  }
}

void ReplicaServer::cache_reply(const RequestId& id,
                                std::shared_ptr<const Reply> reply) {
  reply_cache_[id] = std::move(reply);
  reply_cache_order_.push_back(id);
  if (reply_cache_order_.size() > config_.cache_limit) {
    reply_cache_.erase(reply_cache_order_.front());
    reply_cache_order_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

void ReplicaServer::span(obs::SpanKind kind, const RequestId& request,
                         net::NodeId peer, std::uint64_t value,
                         sim::Duration duration) {
  if (!obs_.trace.active()) return;
  obs::SpanEvent event;
  event.trace = trace_of(request);
  event.kind = kind;
  event.at = exec_.now();
  event.duration = duration;
  event.node = id();
  event.peer = peer;
  event.value = value;
  obs_.trace.span(event);
}

}  // namespace aqueduct::replication
