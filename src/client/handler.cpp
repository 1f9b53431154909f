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
}  // namespace

ClientHandler::Instruments::Instruments(obs::MetricsRegistry& reg)
    : reads_issued(reg.counter("client.reads_issued")),
      reads_completed(reg.counter("client.reads_completed")),
      reads_abandoned(reg.counter("client.reads_abandoned")),
      updates_issued(reg.counter("client.updates_issued")),
      updates_completed(reg.counter("client.updates_completed")),
      timing_failures(reg.counter("client.timing_failures")),
      deferred_replies(reg.counter("client.deferred_replies")),
      retries(reg.counter("client.retries")),
      transmit_attempts(reg.counter("client.transmit_attempts")),
      retry_backoff_ms(reg.counter("client.retry_backoff_ms")),
      staleness_violations(reg.counter("client.staleness_violations")),
      replicas_selected_total(reg.counter("client.replicas_selected_total")),
      selection_attempts(reg.counter("client.selection_attempts")),
      read_response_ms(reg.histogram("client.read_response_ms")),
      update_response_ms(reg.histogram("client.update_response_ms")),
      gateway_ms(reg.histogram("client.gateway_ms")) {}

ClientHandler::ClientHandler(runtime::Executor& exec, gcs::Endpoint& endpoint,
                             replication::ServiceGroups groups,
                             ClientConfig config)
    : exec_(exec),
      endpoint_(endpoint),
      groups_(groups),
      config_(std::move(config)),
      rng_(exec.rng().split()),
      repository_(config_.window_size, config_.pmf_resolution),
      obs_(endpoint.observability()),
      metrics_(obs_.metrics) {
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
  qos_member_->join();
}

// ---------------------------------------------------------------------------
// Application entry points
// ---------------------------------------------------------------------------

void ClientHandler::read(net::MessagePtr op, const core::QoSSpec& qos,
                         ReadCallback done) {
  qos.validate();
  AQUEDUCT_CHECK(op != nullptr);
  const sim::TimePoint t0 = exec_.now();
  if (!ready()) {
    pending_.push_back({true, std::move(op), qos, std::move(done), {}, t0});
    return;
  }
  const replication::RequestId id{this->id(), ++next_seq_};
  OutstandingRequest& req = outstanding_[id];
  req.is_read = true;
  req.op = std::move(op);
  req.qos = qos;
  req.read_done = std::move(done);
  req.t0 = t0;
  ++stats_.reads_issued;
  metrics_.reads_issued.inc();
  span(obs::SpanKind::kIssue, id, net::NodeId{},
       static_cast<std::uint64_t>(sim::to_ms(qos.deadline)));
  transmit_read(id, req);
  req.deadline_timer = exec_.at(t0 + qos.deadline, [this, id] { on_deadline(id); });
}

void ClientHandler::update(net::MessagePtr op, UpdateCallback done) {
  AQUEDUCT_CHECK(op != nullptr);
  const sim::TimePoint t0 = exec_.now();
  if (!ready()) {
    pending_.push_back({false, std::move(op), {}, {}, std::move(done), t0});
    return;
  }
  const replication::RequestId id{this->id(), ++next_seq_};
  last_update_seq_ = id.seq;
  OutstandingRequest& req = outstanding_[id];
  req.is_read = false;
  req.op = std::move(op);
  req.update_done = std::move(done);
  req.t0 = t0;
  ++stats_.updates_issued;
  metrics_.updates_issued.inc();
  span(obs::SpanKind::kIssue, id, net::NodeId{});
  transmit_update(id, req);
}

void ClientHandler::drain_pending() {
  std::deque<PendingApp> pending;
  pending.swap(pending_);
  for (PendingApp& p : pending) {
    // Re-enter through the public API; t0 conservatively restarts now
    // (start-up transient only).
    if (p.is_read) {
      read(std::move(p.op), p.qos, std::move(p.read_done));
    } else {
      update(std::move(p.op), std::move(p.update_done));
    }
  }
}

// ---------------------------------------------------------------------------
// Transmission and retries
// ---------------------------------------------------------------------------

void ClientHandler::transmit_read(const replication::RequestId& id,
                                  OutstandingRequest& req) {
  const auto& roles = repository_.roles();
  const sim::TimePoint now = exec_.now();

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
  auto selection = config_.selector->select(ctx);

  req.replicas_selected = selection.selected.size();
  req.selection_satisfied = selection.satisfied;
  req.predicted_probability = selection.predicted_probability;
  // Every attempt runs a selection; retries count too, so the average
  // reported per attempt matches what the selector actually chose.
  ++stats_.selection_attempts;
  metrics_.selection_attempts.inc();
  stats_.replicas_selected_total += selection.selected.size();
  metrics_.replicas_selected_total.inc(selection.selected.size());

  auto request = std::make_shared<replication::ReadRequest>();
  request->id = id;
  request->op = req.op;
  request->bound = bound;

  req.tm = now;
  ++req.attempts;
  ++stats_.transmit_attempts;
  metrics_.transmit_attempts.inc();
  span(obs::SpanKind::kSend, id, roles.sequencer, selection.selected.size());
  // The selected set K plus the sequencer (Algorithm 1 lines 13/16).
  qos_member_->send_to_set(selection.selected, request);
  if (roles.sequencer.valid() &&
      std::find(selection.selected.begin(), selection.selected.end(),
                roles.sequencer) == selection.selected.end()) {
    qos_member_->send_to(roles.sequencer, request);
  }
  arm_retry(id);
}

void ClientHandler::transmit_update(const replication::RequestId& id,
                                    OutstandingRequest& req) {
  const auto& roles = repository_.roles();
  auto request = std::make_shared<replication::UpdateRequest>();
  request->id = id;
  request->op = req.op;

  req.tm = exec_.now();
  ++req.attempts;
  ++stats_.transmit_attempts;
  metrics_.transmit_attempts.inc();
  span(obs::SpanKind::kSend, id, roles.sequencer, roles.primaries.size() + 1);
  // Updates go to every member of the primary group, sequencer included
  // (Section 4.1.1).
  qos_member_->send_to_set(roles.primaries, request);
  if (roles.sequencer.valid()) qos_member_->send_to(roles.sequencer, request);
  arm_retry(id);
}

void ClientHandler::arm_retry(const replication::RequestId& id) {
  OutstandingRequest& req = outstanding_.at(id);
  exec_.cancel(req.retry_timer);
  // Exponential backoff with seeded jitter: attempt n waits
  // base * factor^(n-1) (capped), scaled by 1 ± U*jitter so concurrent
  // clients don't stampede a recovering service in lockstep.
  const double base_ms = sim::to_ms(config_.retry_timeout);
  const double cap_ms = sim::to_ms(config_.retry_backoff_cap);
  const std::uint32_t exponent = req.attempts > 0 ? req.attempts - 1 : 0;
  double delay_ms = std::min(
      cap_ms, base_ms * std::pow(config_.retry_backoff_factor,
                                 static_cast<double>(exponent)));
  if (config_.retry_jitter > 0.0) {
    delay_ms *= 1.0 + config_.retry_jitter * (2.0 * rng_.uniform() - 1.0);
  }
  delay_ms = std::max(delay_ms, 1.0);
  const auto delay = std::chrono::duration_cast<sim::Duration>(
      std::chrono::duration<double, std::milli>(delay_ms));
  stats_.total_retry_backoff += delay;
  metrics_.retry_backoff_ms.inc(static_cast<std::uint64_t>(delay_ms));
  req.retry_timer = exec_.after(delay, [this, id] { on_retry(id); });
}

void ClientHandler::on_retry(const replication::RequestId& id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end() || it->second.completed) return;
  OutstandingRequest& req = it->second;
  if (req.attempts > config_.max_retries) {
    // Give up: report failure to the application.
    req.completed = true;
    exec_.cancel(req.deadline_timer);
    span(obs::SpanKind::kAbandon, id, net::NodeId{}, req.attempts,
         exec_.now() - req.t0);
    if (req.is_read) {
      ++stats_.reads_abandoned;
      metrics_.reads_abandoned.inc();
      ReadOutcome outcome;
      outcome.response_time = exec_.now() - req.t0;
      outcome.timing_failure = true;
      outcome.replicas_selected = req.replicas_selected;
      outcome.selection_satisfied = req.selection_satisfied;
      outcome.predicted_probability = req.predicted_probability;
      obs_.sla.record_read(
          this->id(),
          obs::SlaSpec{req.qos.staleness_threshold, req.qos.deadline,
                       req.qos.min_probability},
          exec_.now(), /*timing_failure=*/true, /*staleness=*/0, req.attempts,
          config_.shard);
      if (req.read_done) req.read_done(outcome);
    } else if (req.update_done) {
      UpdateOutcome outcome;
      outcome.response_time = exec_.now() - req.t0;
      req.update_done(outcome);
    }
    outstanding_.erase(it);
    return;
  }
  ++stats_.retries;
  metrics_.retries.inc();
  span(obs::SpanKind::kRetry, id, net::NodeId{}, req.attempts);
  if (req.is_read) {
    transmit_read(id, req);
  } else {
    transmit_update(id, req);
  }
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

void ClientHandler::on_deliver(net::NodeId /*from*/, const net::MessagePtr& msg) {
  const sim::TimePoint now = exec_.now();
  if (auto reply = net::message_cast<replication::Reply>(msg)) {
    handle_reply(reply);
  } else if (auto perf = net::message_cast<replication::PerfPublication>(msg)) {
    repository_.record_publication(*perf, now);
  } else if (auto info = net::message_cast<replication::GroupInfo>(msg)) {
    const bool was_ready = ready();
    repository_.record_group_info(*info);
    if (!was_ready && ready()) drain_pending();
  }
}

void ClientHandler::handle_reply(
    const std::shared_ptr<const replication::Reply>& reply) {
  auto it = outstanding_.find(reply->id);
  if (it == outstanding_.end()) return;  // linger expired
  OutstandingRequest& req = it->second;

  // Gateway-delay measurement: t_g = t_p - t_m - t_1 (Section 5.4). A reply
  // from an earlier attempt can make this negative after a retry; clamp.
  const sim::TimePoint tp = exec_.now();
  const sim::Duration tg =
      std::max(sim::Duration::zero(), (tp - req.tm) - reply->t1);
  repository_.record_reply(reply->replica, tg, tp);
  metrics_.gateway_ms.observe(sim::to_ms(tg));
  span(obs::SpanKind::kReceive, reply->id, reply->replica,
       req.completed ? 1 : 0, tp - req.tm);

  if (req.completed) return;  // later replies only feed the repository
  req.completed = true;
  exec_.cancel(req.retry_timer);
  exec_.cancel(req.deadline_timer);

  if (req.is_read) {
    complete_read(reply->id, req, reply.get());
  } else {
    ++stats_.updates_completed;
    metrics_.updates_completed.inc();
    stats_.total_update_response_time += tp - req.t0;
    metrics_.update_response_ms.observe(sim::to_ms(tp - req.t0));
    UpdateOutcome outcome;
    outcome.result = reply->result;
    outcome.response_time = tp - req.t0;
    span(obs::SpanKind::kComplete, reply->id, reply->replica, 0,
         outcome.response_time);
    emit_breakdown(reply->id, req, *reply, outcome.response_time, false);
    if (req.update_done) req.update_done(outcome);
  }
  forget_later(reply->id);
}

void ClientHandler::complete_read(const replication::RequestId& id,
                                  OutstandingRequest& req,
                                  const replication::Reply* reply) {
  const sim::Duration tr = exec_.now() - req.t0;
  ReadOutcome outcome;
  outcome.result = reply->result;
  outcome.response_time = tr;
  outcome.timing_failure = req.timing_failure || tr > req.qos.deadline;
  outcome.deferred = reply->deferred;
  outcome.staleness = reply->staleness;
  outcome.responder = reply->replica;
  outcome.replicas_selected = req.replicas_selected;
  outcome.selection_satisfied = req.selection_satisfied;
  outcome.predicted_probability = req.predicted_probability;
  // Breakdown per Eq. 5/6: the server components are piggybacked on the
  // reply; the gateway delay is the exact remainder so the parts always
  // sum to response_time.
  outcome.client_overhead = req.tm - req.t0;
  outcome.service = reply->ts;
  outcome.queueing = reply->tq;
  outcome.lazy_wait = reply->tb;
  outcome.gateway = tr - outcome.client_overhead - reply->ts - reply->tq -
                    reply->tb;

  ++stats_.reads_completed;
  metrics_.reads_completed.inc();
  stats_.total_response_time += tr;
  metrics_.read_response_ms.observe(sim::to_ms(tr));
  if (outcome.timing_failure) {
    ++stats_.timing_failures;
    metrics_.timing_failures.inc();
  } else {
    ++timely_reads_;
  }
  if (outcome.deferred) {
    ++stats_.deferred_replies;
    metrics_.deferred_replies.inc();
  }
  if (outcome.staleness > req.qos.staleness_threshold) {
    ++stats_.staleness_violations;
    metrics_.staleness_violations.inc();
  }
  span(obs::SpanKind::kComplete, id, reply->replica,
       outcome.timing_failure ? 1 : 0, tr);
  emit_breakdown(id, req, *reply, tr, outcome.timing_failure);
  obs_.sla.record_read(
      this->id(),
      obs::SlaSpec{req.qos.staleness_threshold, req.qos.deadline,
                   req.qos.min_probability},
      exec_.now(), outcome.timing_failure, outcome.staleness, req.attempts,
      config_.shard);
  check_alarm(req.qos);
  if (req.read_done) req.read_done(outcome);
}

void ClientHandler::check_alarm(const core::QoSSpec& qos) {
  if (!alarm_ || stats_.reads_completed == 0) return;
  const double timely_rate = static_cast<double>(timely_reads_) /
                             static_cast<double>(stats_.reads_completed);
  if (timely_rate < qos.min_probability) {
    alarm_(1.0 - timely_rate);
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
                                   const replication::Reply& reply,
                                   sim::Duration total, bool timing_failure) {
  if (!obs_.trace.active()) return;
  obs::BreakdownEvent event;
  event.trace = replication::trace_of(id);
  event.at = exec_.now();
  event.client = this->id();
  event.replica = reply.replica;
  event.is_read = req.is_read;
  event.deferred = reply.deferred;
  event.timing_failure = timing_failure;
  event.total = total;
  event.client_overhead = req.tm - req.t0;
  event.queueing = reply.tq;
  event.service = reply.ts;
  event.lazy_wait = reply.tb;
  // Exact remainder — the breakdown always sums to `total`.
  event.gateway = total - event.client_overhead - event.queueing -
                  event.service - event.lazy_wait;
  obs_.trace.breakdown(event);
}

}  // namespace aqueduct::client
