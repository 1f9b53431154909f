// The transport abstraction every protocol layer is written against.
//
// A Transport moves immutable messages between attached endpoints. The
// protocol stack (gcs, replication, client, fault, harness) names only
// this interface — never a concrete backend — so the same gateway logic
// runs unmodified over
//
//   * LoopbackTransport (net/loopback.hpp) — in-process delivery through
//     the executor's timer queue after a sampled LAN latency; detaching an
//     endpoint models a crash. Under a SimExecutor this is the paper's
//     deterministic simulated LAN; under a RealTimeExecutor it is a
//     loopback with real injected latency.
//   * UdpTransport (net/udp_transport.hpp) — non-blocking UDP sockets
//     between OS processes, with a per-peer address book and the wire
//     codec (net/codec.hpp) for framing. Used by live_cli's multi-process
//     deployment.
//   * ChaosTransport (net/chaos.hpp) — a decorator that wraps either
//     backend and owns every injected network fault (loss, partitions,
//     extra delay, reordering, duplication, partial partitions, link
//     throttling), decided on the send path from a seeded RNG. Built
//     through make_chaos_transport(); the only FaultInjection.
//
// The layering lint (tools/check_layering.py) enforces that protocol code
// includes this header and not the concrete transport headers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "net/node.hpp"
#include "obs/observability.hpp"
#include "runtime/executor.hpp"
#include "sim/random.hpp"

namespace aqueduct::net {

/// Implemented by anything that can receive messages from a transport.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Invoked (on the executor's loop thread, at the delivery time) for
  /// each message addressed to this endpoint.
  virtual void on_message(NodeId from, MessagePtr msg) = 0;
};

/// Snapshot of the transport counters (assembled from the registry-backed
/// instruments; see metrics "net.*").
struct TransportStats {
  /// send() calls, including the ones a fault dropped.
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  /// Injected drops, counted by the chaos decorator (net/chaos.hpp); on
  /// bare backends these stay 0.
  std::uint64_t messages_dropped_loss = 0;
  std::uint64_t messages_dropped_partition = 0;
  std::uint64_t messages_dropped_detached = 0;
  /// Sends to a destination the transport has no route for (UDP: not in
  /// the address book). Always 0 on the loopback.
  std::uint64_t messages_dropped_unroutable = 0;
  /// Inbound frames rejected by the wire codec (bad magic/version/type,
  /// truncation, trailing bytes). Always 0 on the loopback, which never
  /// serializes.
  std::uint64_t decode_errors = 0;
  std::uint64_t bytes_sent = 0;
  /// Gray-failure counters. Only the chaos decorator (net/chaos.hpp)
  /// duplicates, reorders, or injects extra delay on purpose; on bare
  /// backends these stay 0.
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_reordered = 0;
  std::uint64_t messages_delayed = 0;
};

/// Fault-injection surface of a transport that can misbehave on demand.
/// The chaos decorator (make_chaos_transport) is its one implementation:
/// bare backends (the loopback LAN model, UDP sockets) return nullptr
/// from Transport::fault_injection() and suffer only genuine faults, so
/// a run scripts network faults by wrapping its backend. Every delay knob
/// adds to the wrapped backend's own delivery latency. Protocol layers
/// and fault schedules name only this interface, never the decorator.
class FaultInjection {
 public:
  virtual ~FaultInjection() = default;

  /// Extra delay on every link touching `node` (both directions), sampled
  /// per message; when both ends have one the larger sample applies.
  /// Models a slow host/NIC, as in the paper's heterogeneous 300 MHz–1 GHz
  /// testbed.
  virtual void set_node_latency(
      NodeId node, std::shared_ptr<sim::DurationDistribution> latency) = 0;

  /// Removes a node-level delay installed by set_node_latency(). Used by
  /// fault schedules to end a latency spike.
  virtual void clear_node_latency(NodeId node) = 0;

  /// Probability in [0, 1] that any given message is silently dropped.
  virtual void set_loss_probability(double p) = 0;

  /// Directional per-link loss: messages from `from` to `to` (and only in
  /// that direction) are dropped with probability `p`, overriding the
  /// global probability for that link. heal_link() or heal_gray() removes
  /// the override.
  virtual void set_link_loss(NodeId from, NodeId to, double p) = 0;

  /// Effective drop probability the send path would use for (from, to):
  /// the per-link override, else the global probability.
  virtual double loss_probability(NodeId from, NodeId to) const = 0;

  /// Blackholes every link between the two sides, both directions, until
  /// heal() (or heal_link() on one pair). A later partition adds its links
  /// to the ones already cut. Nodes in neither set are untouched.
  virtual void partition(std::vector<NodeId> side_a,
                         std::vector<NodeId> side_b) = 0;

  /// Lifts every blackholed link (partition() and partial_partition()).
  virtual void heal() = 0;

  // --- Gray failures: slow-but-alive links, duplicated/reordered
  // delivery, partial partitions.

  /// Extra delay added to every message without a more specific override,
  /// sampled per message. nullptr clears.
  virtual void set_default_delay(
      std::shared_ptr<sim::DurationDistribution> extra) = 0;

  /// Directional extra delay for messages from `from` to `to`, sampled per
  /// message — the primitive behind asymmetric links and WAN latency
  /// matrices. Overrides node-level and default extra delay for that link.
  virtual void set_link_delay(
      NodeId from, NodeId to,
      std::shared_ptr<sim::DurationDistribution> extra) = 0;

  /// Probability in [0, 1] that a message is sent twice (each copy delayed
  /// independently, so duplicates also reorder), on every link.
  virtual void set_duplicate_probability(double p) = 0;

  /// Holds back each message with probability `p` in [0, 1] by an extra
  /// uniform delay in [0, window), letting later sends overtake it.
  /// `window` must be positive.
  virtual void set_reorder(double p, sim::Duration window) = 0;

  /// Serializes the directional link `from` → `to` so consecutive messages
  /// enter the wrapped backend at least `min_gap` apart — a slow-but-alive
  /// link that stays connected but cannot sustain throughput. Zero clears.
  virtual void set_link_throttle(NodeId from, NodeId to,
                                 sim::Duration min_gap) = 0;

  /// Blackholes traffic between `a` and `b` (both directions) without
  /// touching any other link — a partial partition: partition({a}, {b}).
  virtual void partial_partition(NodeId a, NodeId b) = 0;

  /// Restores the (a, b) pair: lifts its blackhole (whether partition()
  /// or partial_partition() cut it) and removes any per-link
  /// delay/loss/throttle override, both directions.
  virtual void heal_link(NodeId a, NodeId b) = 0;

  /// Resets every knob: delays, duplication, reordering, throttles, all
  /// loss settings and every partition.
  virtual void heal_gray() = 0;
};

/// Abstract message mover: endpoint attach/detach, unreliable datagram
/// send/multicast, counters, and the per-process observability context
/// (metrics registry + multi-subscriber trace hub).
///
/// Delivery guarantees: none beyond best effort. Messages can be
/// reordered, dropped, and (over real sockets) duplicated; reliable
/// virtually synchronous FIFO delivery is built on top by the gcs layer,
/// exactly as AQuA builds on Maestro/Ensemble over a physical LAN.
class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  /// Registers an endpoint and returns its id. The loopback assigns fresh
  /// ids; socket transports return the process's configured identity. The
  /// endpoint must outlive the transport or call detach() first.
  virtual NodeId attach(Endpoint& endpoint) = 0;

  /// Removes the endpoint: all in-flight and future messages to or from it
  /// are dropped. Used to model fail-stop crashes.
  virtual void detach(NodeId id) = 0;

  virtual bool is_attached(NodeId id) const = 0;

  /// Sends `msg` from `from` to `to`. Sending to an unknown or detached
  /// node silently drops (the sender cannot know the destination crashed —
  /// that is the failure detector's job).
  virtual void send(NodeId from, NodeId to, MessagePtr msg) = 0;

  /// Sends to each destination individually (unreliable multicast).
  virtual void multicast(NodeId from, const std::vector<NodeId>& to,
                         const MessagePtr& msg) {
    for (NodeId dest : to) send(from, dest, msg);
  }

  virtual TransportStats stats() const = 0;

  /// Per-process observability context. The transport owns it because it
  /// is the one object every component of a deployment shares.
  virtual obs::Observability& observability() = 0;
  obs::MetricsRegistry& metrics() { return observability().metrics; }
  obs::TraceHub& tracing() { return observability().trace; }

  virtual runtime::Executor& executor() = 0;

  /// The transport's fault-injection surface, or nullptr on a bare backend
  /// (only the chaos decorator injects faults).
  virtual FaultInjection* fault_injection() { return nullptr; }
};

/// Reports one send() to the trace hub's message sinks, if any: `dropped`
/// is empty for a message handed on toward delivery, else the drop reason
/// ("loss", "partition", "detached", "unroutable", "encode_error"). Every
/// backend and the chaos decorator trace their sends through this.
inline void trace_send(obs::TraceHub& trace, sim::TimePoint at, NodeId from,
                       NodeId to, const Message& msg, const char* dropped) {
  if (!trace.active()) return;
  obs::MessageEvent event;
  event.at = at;
  event.from = from;
  event.to = to;
  event.type_name = msg.type_name();
  event.wire_size = msg.wire_size();
  event.dropped = dropped;
  trace.message(event);
}

/// Builds the in-process loopback backend (a LoopbackTransport) without
/// naming its header. `default_latency` is sampled independently per
/// message on every link. This is the
/// factory composition roots that must stay backend-agnostic (e.g.
/// harness::Scenario) construct through.
std::unique_ptr<Transport> make_loopback_transport(
    runtime::Executor& exec,
    std::unique_ptr<sim::DurationDistribution> default_latency);

/// Wraps any backend (loopback or UDP) in the chaos decorator
/// (a ChaosTransport, net/chaos.hpp): the returned transport's
/// fault_injection() is the full FaultInjection surface, with
/// seeded-deterministic decisions drawn from `exec.rng().split()` of the
/// wrapped backend's executor. Messages the chaos layer lets through are
/// forwarded to `inner` unchanged.
std::unique_ptr<Transport> make_chaos_transport(std::unique_ptr<Transport> inner);

}  // namespace aqueduct::net
