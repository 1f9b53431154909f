#include "net/chaos.hpp"

#include <algorithm>
#include <utility>

#include "sim/check.hpp"

namespace aqueduct::net {

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> inner)
    : inner_(std::move(inner)),
      exec_(inner_->executor()),
      rng_(exec_.rng().split()),
      alive_(std::make_shared<const bool>(true)),
      c_sent_(inner_->metrics().counter("net.messages_sent")),
      c_dropped_loss_(inner_->metrics().counter("net.messages_dropped_loss")),
      c_dropped_partition_(
          inner_->metrics().counter("net.messages_dropped_partition")),
      c_duplicated_(inner_->metrics().counter("net.messages_duplicated")),
      c_reordered_(inner_->metrics().counter("net.messages_reordered")),
      c_delayed_(inner_->metrics().counter("net.messages_delayed")) {}

ChaosTransport::~ChaosTransport() = default;

TransportStats ChaosTransport::stats() const {
  // The drop counters are shared with the backend, but only the loopback
  // reports them; the gray-only tallies are never the backend's.
  TransportStats s = inner_->stats();
  s.messages_dropped_loss = c_dropped_loss_.value();
  s.messages_dropped_partition = c_dropped_partition_.value();
  s.messages_duplicated = c_duplicated_.value();
  s.messages_reordered = c_reordered_.value();
  s.messages_delayed = c_delayed_.value();
  return s;
}

// ---- crash-era core ------------------------------------------------------

void ChaosTransport::set_node_latency(
    NodeId node, std::shared_ptr<sim::DurationDistribution> latency) {
  AQUEDUCT_CHECK(latency != nullptr);
  node_delay_[node] = std::move(latency);
}

void ChaosTransport::clear_node_latency(NodeId node) { node_delay_.erase(node); }

void ChaosTransport::set_loss_probability(double p) {
  AQUEDUCT_CHECK(p >= 0.0 && p <= 1.0);
  loss_probability_ = p;
}

void ChaosTransport::set_link_loss(NodeId from, NodeId to, double p) {
  AQUEDUCT_CHECK(p >= 0.0 && p <= 1.0);
  link_loss_[{from, to}] = p;
}

void ChaosTransport::clear_link_loss(NodeId from, NodeId to) {
  link_loss_.erase({from, to});
}

void ChaosTransport::set_inbound_loss(NodeId node, double p) {
  AQUEDUCT_CHECK(p >= 0.0 && p <= 1.0);
  if (p == 0.0) {
    inbound_loss_.erase(node);
  } else {
    inbound_loss_[node] = p;
  }
}

void ChaosTransport::set_outbound_loss(NodeId node, double p) {
  AQUEDUCT_CHECK(p >= 0.0 && p <= 1.0);
  if (p == 0.0) {
    outbound_loss_.erase(node);
  } else {
    outbound_loss_[node] = p;
  }
}

double ChaosTransport::loss_probability(NodeId from, NodeId to) const {
  // A per-link override is authoritative (it can also *lower* loss below
  // the node/global level); otherwise the pessimistic max of outbound,
  // inbound, and global loss governs.
  if (auto it = link_loss_.find({from, to}); it != link_loss_.end()) {
    return it->second;
  }
  double p = loss_probability_;
  if (auto it = outbound_loss_.find(from); it != outbound_loss_.end()) {
    p = std::max(p, it->second);
  }
  if (auto it = inbound_loss_.find(to); it != inbound_loss_.end()) {
    p = std::max(p, it->second);
  }
  return p;
}

void ChaosTransport::partition(std::vector<NodeId> side_a,
                               std::vector<NodeId> side_b) {
  partition_a_.clear();
  partition_b_.clear();
  partition_a_.insert(side_a.begin(), side_a.end());
  partition_b_.insert(side_b.begin(), side_b.end());
}

void ChaosTransport::heal() {
  partition_a_.clear();
  partition_b_.clear();
  blackholes_.clear();
}

bool ChaosTransport::partitioned(NodeId a, NodeId b) const {
  if (blackholes_.contains({a, b})) return true;
  const bool a_in_a = partition_a_.contains(a);
  const bool a_in_b = partition_b_.contains(a);
  const bool b_in_a = partition_a_.contains(b);
  const bool b_in_b = partition_b_.contains(b);
  return (a_in_a && b_in_b) || (a_in_b && b_in_a);
}

// ---- gray-failure surface ------------------------------------------------

void ChaosTransport::set_default_delay(
    std::shared_ptr<sim::DurationDistribution> extra) {
  default_delay_ = std::move(extra);
}

void ChaosTransport::set_link_delay(
    NodeId from, NodeId to, std::shared_ptr<sim::DurationDistribution> extra) {
  AQUEDUCT_CHECK(extra != nullptr);
  link_delay_[{from, to}] = std::move(extra);
}

void ChaosTransport::clear_link_delay(NodeId from, NodeId to) {
  link_delay_.erase({from, to});
}

void ChaosTransport::set_duplicate_probability(double p) {
  AQUEDUCT_CHECK(p >= 0.0 && p <= 1.0);
  duplicate_probability_ = p;
}

void ChaosTransport::set_link_duplicate(NodeId from, NodeId to, double p) {
  AQUEDUCT_CHECK(p >= 0.0 && p <= 1.0);
  link_duplicate_[{from, to}] = p;
}

void ChaosTransport::clear_link_duplicate(NodeId from, NodeId to) {
  link_duplicate_.erase({from, to});
}

double ChaosTransport::duplicate_probability(NodeId from, NodeId to) const {
  if (auto it = link_duplicate_.find({from, to}); it != link_duplicate_.end()) {
    return it->second;
  }
  return duplicate_probability_;
}

void ChaosTransport::set_reorder_probability(double p) {
  AQUEDUCT_CHECK(p >= 0.0 && p <= 1.0);
  reorder_probability_ = p;
}

void ChaosTransport::set_reorder_window(sim::Duration window) {
  AQUEDUCT_CHECK(window > sim::Duration::zero());
  reorder_window_ = window;
}

void ChaosTransport::set_link_throttle(NodeId from, NodeId to,
                                       sim::Duration min_gap) {
  AQUEDUCT_CHECK(min_gap >= sim::Duration::zero());
  if (min_gap == sim::Duration::zero()) {
    throttle_gap_.erase({from, to});
    throttle_next_free_.erase({from, to});
  } else {
    throttle_gap_[{from, to}] = min_gap;
  }
}

void ChaosTransport::partial_partition(NodeId a, NodeId b) {
  blackholes_.insert({a, b});
  blackholes_.insert({b, a});
}

void ChaosTransport::heal_link(NodeId a, NodeId b) {
  for (const Link& link : {Link{a, b}, Link{b, a}}) {
    blackholes_.erase(link);
    link_delay_.erase(link);
    link_loss_.erase(link);
    link_duplicate_.erase(link);
    throttle_gap_.erase(link);
    throttle_next_free_.erase(link);
  }
}

void ChaosTransport::heal_gray() {
  loss_probability_ = 0.0;
  link_loss_.clear();
  inbound_loss_.clear();
  outbound_loss_.clear();
  partition_a_.clear();
  partition_b_.clear();
  blackholes_.clear();
  default_delay_.reset();
  link_delay_.clear();
  node_delay_.clear();
  duplicate_probability_ = 0.0;
  link_duplicate_.clear();
  reorder_probability_ = 0.0;
  throttle_gap_.clear();
  throttle_next_free_.clear();
}

// ---- send pipeline -------------------------------------------------------

sim::Duration ChaosTransport::sample_extra_delay(NodeId from, NodeId to) {
  if (auto it = link_delay_.find({from, to}); it != link_delay_.end()) {
    return it->second->sample(rng_);
  }
  auto f = node_delay_.find(from);
  auto t = node_delay_.find(to);
  if (f != node_delay_.end() || t != node_delay_.end()) {
    sim::Duration d = sim::Duration::zero();
    if (f != node_delay_.end()) d = std::max(d, f->second->sample(rng_));
    if (t != node_delay_.end()) d = std::max(d, t->second->sample(rng_));
    return d;
  }
  if (default_delay_ != nullptr) return default_delay_->sample(rng_);
  return sim::Duration::zero();
}

void ChaosTransport::forward_copy(NodeId from, NodeId to, MessagePtr msg) {
  sim::Duration extra = std::max(sim::Duration::zero(),
                                 sample_extra_delay(from, to));
  if (reorder_probability_ > 0.0 && rng_.bernoulli(reorder_probability_)) {
    extra += sim::from_ms(rng_.uniform(0.0, sim::to_ms(reorder_window_)));
    c_reordered_.inc();
  }
  if (auto it = throttle_gap_.find({from, to}); it != throttle_gap_.end()) {
    const sim::TimePoint now = exec_.now();
    sim::TimePoint ready = now + extra;
    if (auto nf = throttle_next_free_.find({from, to});
        nf != throttle_next_free_.end()) {
      ready = std::max(ready, nf->second);
    }
    throttle_next_free_[{from, to}] = ready + it->second;
    extra = ready - now;
  }
  if (extra <= sim::Duration::zero()) {
    inner_->send(from, to, std::move(msg));
    return;
  }
  c_delayed_.inc();
  exec_.after(extra, [this, weak = std::weak_ptr<const bool>(alive_), from, to,
                      msg = std::move(msg)] {
    if (weak.expired()) return;
    inner_->send(from, to, msg);
  });
}

void ChaosTransport::drop(NodeId from, NodeId to, const MessagePtr& msg,
                          obs::Counter& reason_counter, const char* reason) {
  c_sent_.inc();
  reason_counter.inc();
  obs::TraceHub& trace = inner_->tracing();
  if (!trace.active()) return;
  obs::MessageEvent event;
  event.at = exec_.now();
  event.from = from;
  event.to = to;
  event.type_name = msg->type_name();
  event.wire_size = msg->wire_size();
  event.dropped = reason;
  trace.message(event);
}

void ChaosTransport::send(NodeId from, NodeId to, MessagePtr msg) {
  AQUEDUCT_CHECK(msg != nullptr);
  if (partitioned(from, to)) {
    drop(from, to, msg, c_dropped_partition_, "partition");
    return;
  }
  const double loss = loss_probability(from, to);
  if (loss > 0.0 && rng_.bernoulli(loss)) {
    drop(from, to, msg, c_dropped_loss_, "loss");
    return;
  }
  const double dup = duplicate_probability(from, to);
  const bool duplicate = dup > 0.0 && rng_.bernoulli(dup);
  if (duplicate) c_duplicated_.inc();
  forward_copy(from, to, msg);
  if (duplicate) forward_copy(from, to, std::move(msg));
}

std::unique_ptr<Transport> make_chaos_transport(
    std::unique_ptr<Transport> inner) {
  AQUEDUCT_CHECK(inner != nullptr);
  return std::make_unique<ChaosTransport>(std::move(inner));
}

}  // namespace aqueduct::net
