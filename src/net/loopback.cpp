#include "net/loopback.hpp"

#include <utility>

#include "sim/check.hpp"

namespace aqueduct::net {

LoopbackTransport::LoopbackTransport(
    runtime::Executor& exec,
    std::unique_ptr<sim::DurationDistribution> default_latency)
    : exec_(exec),
      rng_(exec.rng().split()),
      default_latency_(std::move(default_latency)),
      c_sent_(obs_.metrics.counter("net.messages_sent")),
      c_delivered_(obs_.metrics.counter("net.messages_delivered")),
      c_dropped_loss_(obs_.metrics.counter("net.messages_dropped_loss")),
      c_dropped_partition_(obs_.metrics.counter("net.messages_dropped_partition")),
      c_dropped_detached_(obs_.metrics.counter("net.messages_dropped_detached")),
      c_bytes_sent_(obs_.metrics.counter("net.bytes_sent")),
      h_delivery_latency_ms_(obs_.metrics.histogram("net.delivery_latency_ms")) {
  AQUEDUCT_CHECK(default_latency_ != nullptr);
}

TransportStats LoopbackTransport::stats() const {
  TransportStats s;
  s.messages_sent = c_sent_.value();
  s.messages_delivered = c_delivered_.value();
  s.messages_dropped_loss = c_dropped_loss_.value();
  s.messages_dropped_partition = c_dropped_partition_.value();
  s.messages_dropped_detached = c_dropped_detached_.value();
  s.bytes_sent = c_bytes_sent_.value();
  return s;
}

NodeId LoopbackTransport::attach(Endpoint& endpoint) {
  const NodeId id{next_id_++};
  endpoints_.emplace(id, &endpoint);
  return id;
}

void LoopbackTransport::detach(NodeId id) { endpoints_.erase(id); }

void LoopbackTransport::tap(NodeId from, NodeId to, const MessagePtr& msg,
                  const char* dropped) {
  if (!obs_.trace.active()) return;
  obs::MessageEvent event;
  event.at = exec_.now();
  event.from = from;
  event.to = to;
  event.type_name = msg->type_name();
  event.wire_size = msg->wire_size();
  event.dropped = dropped;
  obs_.trace.message(event);
}

void LoopbackTransport::send(NodeId from, NodeId to, MessagePtr msg) {
  AQUEDUCT_CHECK(msg != nullptr);
  AQUEDUCT_CHECK_MSG(from.valid() && to.valid(), "send with invalid node id");
  c_sent_.inc();
  c_bytes_sent_.inc(msg->wire_size());
  if (!endpoints_.contains(from)) {
    // A detached (crashed) node cannot send.
    c_dropped_detached_.inc();
    tap(from, to, msg, "detached");
    return;
  }
  tap(from, to, msg, "");
  const sim::Duration latency = default_latency_->sample(rng_);
  h_delivery_latency_ms_.observe(sim::to_ms(latency));
  exec_.after(latency, [this, from, to, msg = std::move(msg)] {
    auto it = endpoints_.find(to);
    if (it == endpoints_.end()) {
      c_dropped_detached_.inc();
      return;
    }
    c_delivered_.inc();
    it->second->on_message(from, msg);
  });
}

std::unique_ptr<Transport> make_loopback_transport(
    runtime::Executor& exec,
    std::unique_ptr<sim::DurationDistribution> default_latency) {
  return std::make_unique<LoopbackTransport>(exec, std::move(default_latency));
}

}  // namespace aqueduct::net
