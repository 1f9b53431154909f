#include "client/handler.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/check.hpp"

namespace aqueduct::client {

namespace {
/// How long a completed request's bookkeeping lingers so late replies from
/// the other selected replicas still contribute t_g / ert measurements.
constexpr sim::Duration kLinger = std::chrono::seconds(10);

/// Bucket size for the response-time pmfs.
constexpr sim::Duration kPmfResolution = std::chrono::milliseconds(1);

/// Retry backoff (see arm_retry): growth factor per failed attempt, cap on
/// any single delay, and symmetric jitter fraction.
constexpr double kRetryBackoffFactor = 2.0;
constexpr sim::Duration kRetryBackoffCap = std::chrono::seconds(15);
constexpr double kRetryJitter = 0.1;
}  // namespace

ClientHandler::ClientHandler(runtime::Executor& exec, gcs::Endpoint& endpoint,
                             replication::ServiceGroups groups,
                             ClientConfig config)
    : exec_(exec),
      endpoint_(endpoint),
      groups_(groups),
      config_(std::move(config)),
      rng_(exec.rng().split()),
      repository_(config_.window_size, kPmfResolution),
      obs_(endpoint.observability()),
      stats_(&obs_.metrics, "client."),
      backoff_(&obs_.metrics, "client."),
      read_response_ms_(obs_.metrics.histogram("client.read_response_ms")),
      update_response_ms_(obs_.metrics.histogram("client.update_response_ms")),
      gateway_ms_(obs_.metrics.histogram("client.gateway_ms")) {
  if (config_.selector == nullptr) {
    config_.selector = std::make_unique<core::ProbabilisticSelector>();
  }
  AQUEDUCT_CHECK(config_.window_size > 0);
  AQUEDUCT_CHECK(config_.retry_timeout > sim::Duration::zero());
}

ClientHandler::~ClientHandler() = default;

void ClientHandler::start() {
  qos_member_ = &endpoint_.member(groups_.qos);
  qos_member_->set_on_deliver(
      [this](net::NodeId from, const net::MessagePtr& msg) {
        on_deliver(from, msg);
      });
  qos_member_->join(gcs::Role::kListener);
}

// ---------------------------------------------------------------------------
// Application entry points
// ---------------------------------------------------------------------------

void ClientHandler::read(net::MessagePtr op, const core::QoSSpec& qos,
                         ReadCallback done) {
  qos.validate();
  AQUEDUCT_CHECK(op != nullptr);
  OutstandingRequest req;
  req.is_read = true;
  req.op = std::move(op);
  req.qos = qos;
  req.read_done = std::move(done);
  issue(std::move(req));
}

void ClientHandler::update(net::MessagePtr op, UpdateCallback done) {
  AQUEDUCT_CHECK(op != nullptr);
  OutstandingRequest req;
  req.op = std::move(op);
  req.update_done = std::move(done);
  issue(std::move(req));
}

void ClientHandler::issue(OutstandingRequest request) {
  if (!ready()) {
    pending_.push_back(std::move(request));
    return;
  }
  const replication::RequestId id{this->id(), ++next_seq_};
  if (!request.is_read) last_update_seq_ = id.seq;
  OutstandingRequest& req = outstanding_[id] = std::move(request);
  req.t0 = exec_.now();
  stats_.inc(req.is_read ? &ClientStats::reads_issued
                         : &ClientStats::updates_issued);
  span(obs::SpanKind::kIssue, id, net::NodeId{},
       req.is_read ? static_cast<std::uint64_t>(sim::to_ms(req.qos.deadline))
                   : 0);
  transmit(id, req);
  if (req.is_read) {
    req.deadline_timer =
        exec_.at(req.t0 + req.qos.deadline, [this, id] { on_deadline(id); });
  }
}

void ClientHandler::drain_pending() {
  std::vector<OutstandingRequest> pending;
  pending.swap(pending_);
  // t0 restarts at issue (a start-up transient only).
  for (OutstandingRequest& req : pending) issue(std::move(req));
}

// ---------------------------------------------------------------------------
// Transmission and retries
// ---------------------------------------------------------------------------

void ClientHandler::transmit(const replication::RequestId& id,
                             OutstandingRequest& req) {
  const auto& roles = repository_.roles();
  const sim::TimePoint now = exec_.now();
  // Updates go to every member of the primary group (Section 4.1.1); reads
  // to the selected set K (Algorithm 1 lines 13/16). Either set is
  // extended with the sequencer below.
  const std::vector<net::NodeId>* dests = &roles.primaries;
  std::uint64_t fanout = roles.primaries.size() + 1;
  core::SelectionResult selection;
  net::MessagePtr message;
  if (req.is_read) {
    // No sequencer in the role map: a FIFO service. There, threshold 0 asks
    // for read-your-writes (this client's latest update seq) and any other
    // threshold waives the session bound.
    const bool fifo = !roles.sequencer.valid();
    std::uint64_t bound = req.qos.staleness_threshold;
    if (fifo) bound = req.qos.staleness_threshold == 0 ? last_update_seq_ : 0;
    auto ctx = repository_.selection_context(req.qos, now, rng_);
    if (fifo) {
      // FIFO has no global version count. Without a session bound every
      // secondary is fresh enough; with one, a secondary holds this client's
      // latest write only after a lazy propagation, so it counts through its
      // deferred-read distribution alone.
      ctx.stale_factor = bound == 0 ? 1.0 : 0.0;
    }
    selection = config_.selector->select(ctx);
    dests = &selection.selected;
    fanout = selection.selected.size();

    req.replicas_selected = selection.selected.size();
    req.selection_satisfied = selection.satisfied;
    req.predicted_probability = selection.predicted_probability;
    // Every attempt runs a selection; retries count too, so the average
    // reported per attempt matches what the selector actually chose.
    stats_.inc(&ClientStats::selection_attempts);
    stats_.inc(&ClientStats::replicas_selected_total,
               selection.selected.size());

    auto request = std::make_shared<replication::ReadRequest>();
    request->id = id;
    request->op = req.op;
    request->bound = bound;
    message = std::move(request);
  } else {
    auto request = std::make_shared<replication::UpdateRequest>();
    request->id = id;
    request->op = req.op;
    message = std::move(request);
  }

  req.tm = now;
  ++req.attempts;
  stats_.inc(&ClientStats::transmit_attempts);
  span(obs::SpanKind::kSend, id, roles.sequencer, fanout);
  qos_member_->send_to_set(*dests, message);
  // A GroupInfo's primaries never list the sequencer; a selection might.
  if (roles.sequencer.valid() &&
      std::find(dests->begin(), dests->end(), roles.sequencer) ==
          dests->end()) {
    qos_member_->send_to(roles.sequencer, message);
  }
  arm_retry(id);
}

void ClientHandler::arm_retry(const replication::RequestId& id) {
  OutstandingRequest& req = outstanding_.at(id);
  exec_.cancel(req.retry_timer);
  // Exponential backoff with seeded jitter: attempt n waits
  // base * factor^(n-1) (capped), scaled by 1 ± U*jitter so concurrent
  // clients don't stampede a recovering service in lockstep.
  const double base_ms = sim::to_ms(config_.retry_timeout);
  const double cap_ms = sim::to_ms(kRetryBackoffCap);
  const std::uint32_t exponent = req.attempts > 0 ? req.attempts - 1 : 0;
  double delay_ms = std::min(
      cap_ms, base_ms * std::pow(kRetryBackoffFactor,
                                 static_cast<double>(exponent)));
  delay_ms *= 1.0 + kRetryJitter * (2.0 * rng_.uniform() - 1.0);
  delay_ms = std::max(delay_ms, 1.0);
  const auto delay = std::chrono::duration_cast<sim::Duration>(
      std::chrono::duration<double, std::milli>(delay_ms));
  stats_.add(&ClientStats::total_retry_backoff, delay);
  backoff_.inc(&BackoffStats::retry_backoff_ms,
               static_cast<std::uint64_t>(delay_ms));
  req.retry_timer = exec_.after(delay, [this, id] { on_retry(id); });
}

void ClientHandler::on_retry(const replication::RequestId& id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end() || it->second.completed) return;
  OutstandingRequest& req = it->second;
  if (req.attempts > config_.max_retries) {
    finish(id, req, nullptr);  // give up: report failure to the application
    return;
  }
  stats_.inc(&ClientStats::retries);
  span(obs::SpanKind::kRetry, id, net::NodeId{}, req.attempts);
  transmit(id, req);
}

void ClientHandler::on_deadline(const replication::RequestId& id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end() || it->second.completed) return;
  // No response within d: a timing failure for this client, regardless of
  // when (or whether) a reply eventually arrives.
  it->second.timing_failure = true;
  span(obs::SpanKind::kTimingFailure, id, net::NodeId{}, it->second.attempts,
       exec_.now() - it->second.t0);
}

// ---------------------------------------------------------------------------
// Replies and publications
// ---------------------------------------------------------------------------

void ClientHandler::on_deliver(net::NodeId from, const net::MessagePtr& msg) {
  const sim::TimePoint now = exec_.now();
  if (auto reply = net::message_cast<replication::Reply>(msg)) {
    handle_reply(*reply);
  } else if (auto perf = net::message_cast<replication::PerfPublication>(msg)) {
    // A replica publishes only its own samples.
    if (perf->replica == from) repository_.record_publication(*perf, now);
  } else if (auto info = net::message_cast<replication::GroupInfo>(msg)) {
    const bool was_ready = ready();
    repository_.record_group_info(*info);
    if (!was_ready && ready()) drain_pending();
  }
}

void ClientHandler::handle_reply(const replication::Reply& reply) {
  auto it = outstanding_.find(reply.id);
  if (it == outstanding_.end()) return;  // linger expired
  OutstandingRequest& req = it->second;

  // Gateway-delay measurement: t_g = t_p - t_m - t_1 (Section 5.4). A reply
  // from an earlier attempt can make this negative after a retry; clamp.
  const sim::TimePoint tp = exec_.now();
  const sim::Duration tg =
      std::max(sim::Duration::zero(), (tp - req.tm) - reply.t1());
  repository_.record_reply(reply.replica, tg, tp);
  gateway_ms_.observe(sim::to_ms(tg));
  span(obs::SpanKind::kReceive, reply.id, reply.replica,
       req.completed ? 1 : 0, tp - req.tm);

  if (req.completed) return;  // later replies only feed the repository
  finish(reply.id, req, &reply);
}

void ClientHandler::finish(const replication::RequestId& id,
                           OutstandingRequest& req,
                           const replication::Reply* reply) {
  req.completed = true;
  exec_.cancel(req.retry_timer);
  exec_.cancel(req.deadline_timer);
  const sim::Duration tr = exec_.now() - req.t0;

  // Reads and updates alike fill a ReadOutcome; an update's callback gets
  // its result and response time.
  ReadOutcome outcome;
  outcome.response_time = tr;
  outcome.replicas_selected = req.replicas_selected;
  outcome.selection_satisfied = req.selection_satisfied;
  outcome.predicted_probability = req.predicted_probability;
  outcome.timing_failure =
      req.is_read &&
      (reply == nullptr || req.timing_failure || tr > req.qos.deadline);
  if (reply == nullptr) {
    span(obs::SpanKind::kAbandon, id, net::NodeId{}, req.attempts, tr);
    stats_.inc(req.is_read ? &ClientStats::reads_abandoned
                           : &ClientStats::updates_abandoned);
  } else {
    outcome.result = reply->result;
    outcome.deferred = reply->deferred;
    outcome.staleness = reply->staleness;
    outcome.responder = reply->replica;
    // Breakdown per Eq. 5/6: the server components are piggybacked on the
    // reply; the gateway delay is the exact remainder so the parts always
    // sum to response_time.
    outcome.client_overhead = req.tm - req.t0;
    outcome.service = reply->ts;
    outcome.queueing = reply->tq;
    outcome.lazy_wait = reply->tb;
    outcome.gateway = tr - outcome.client_overhead - reply->ts - reply->tq -
                      reply->tb;
    if (req.is_read) {
      stats_.inc(&ClientStats::reads_completed);
      stats_.add(&ClientStats::total_response_time, tr);
      read_response_ms_.observe(sim::to_ms(tr));
      if (outcome.timing_failure) stats_.inc(&ClientStats::timing_failures);
      if (outcome.deferred) stats_.inc(&ClientStats::deferred_replies);
      if (outcome.staleness > req.qos.staleness_threshold) {
        stats_.inc(&ClientStats::staleness_violations);
      }
    } else {
      stats_.inc(&ClientStats::updates_completed);
      stats_.add(&ClientStats::total_update_response_time, tr);
      update_response_ms_.observe(sim::to_ms(tr));
    }
    span(obs::SpanKind::kComplete, id, reply->replica,
         outcome.timing_failure ? 1 : 0, tr);
    emit_breakdown(id, req, outcome);
  }

  if (req.is_read) {
    obs_.sla.record_read(
        this->id(),
        obs::SlaSpec{req.qos.staleness_threshold, req.qos.deadline,
                     req.qos.min_probability},
        exec_.now(), outcome.timing_failure, outcome.staleness, req.attempts,
        config_.shard);
    // QoS alarm (Section 5.4) on the observed frequency of timely replies;
    // an abandoned read is not a reply.
    if (reply != nullptr && alarm_) {
      const ClientStats& stats = stats_.get();
      const double timely_rate =
          static_cast<double>(stats.reads_completed - stats.timing_failures) /
          static_cast<double>(stats.reads_completed);
      if (timely_rate < req.qos.min_probability) alarm_(1.0 - timely_rate);
    }
    if (req.read_done) req.read_done(outcome);
  } else if (req.update_done) {
    req.update_done(UpdateOutcome{outcome.result, tr});
  }

  if (reply == nullptr) {
    outstanding_.erase(id);
  } else {
    forget_later(id);
  }
}

void ClientHandler::forget_later(const replication::RequestId& id) {
  exec_.after(kLinger, [this, id] { outstanding_.erase(id); });
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

void ClientHandler::span(obs::SpanKind kind, const replication::RequestId& id,
                         net::NodeId peer, std::uint64_t value,
                         sim::Duration duration) {
  if (!obs_.trace.active()) return;
  obs::SpanEvent event;
  event.trace = replication::trace_of(id);
  event.kind = kind;
  event.at = exec_.now();
  event.duration = duration;
  event.node = this->id();
  event.peer = peer;
  event.value = value;
  obs_.trace.span(event);
}

void ClientHandler::emit_breakdown(const replication::RequestId& id,
                                   const OutstandingRequest& req,
                                   const ReadOutcome& outcome) {
  if (!obs_.trace.active()) return;
  obs::BreakdownEvent event;
  event.trace = replication::trace_of(id);
  event.at = exec_.now();
  event.client = this->id();
  event.replica = outcome.responder;
  event.is_read = req.is_read;
  event.deferred = outcome.deferred;
  event.timing_failure = outcome.timing_failure;
  event.total = outcome.response_time;
  event.client_overhead = outcome.client_overhead;
  event.gateway = outcome.gateway;
  event.queueing = outcome.queueing;
  event.service = outcome.service;
  event.lazy_wait = outcome.lazy_wait;
  obs_.trace.breakdown(event);
}

}  // namespace aqueduct::client
