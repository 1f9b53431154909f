// Structured tracing for the request pipeline.
//
// Every client request carries a TraceId (derived deterministically from its
// RequestId) from interception at the client gateway through selection,
// multicast, sequencing, replica service, and reply. Each hop emits a typed
// SpanEvent timestamped in simulated time; the network additionally emits a
// MessageEvent per send (delivered or dropped). Sinks subscribe to a
// TraceHub — any number of subscribers, added and removed at runtime — which
// subsumes the old single-slot Network::set_tap.
//
// When a request completes, the client gateway emits a BreakdownEvent
// decomposing the end-to-end response time into the components of the
// paper's response-time model (Eqs. 5/6 in src/core/response_model):
// service S, queueing W, lazy wait U, two-way gateway delay G, plus the
// client-side overhead before the last transmission. The components sum to
// the end-to-end response time exactly, by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "sim/time.hpp"

namespace aqueduct::obs {

/// Identifies one client request across all layers. Value 0 is "no trace"
/// (used by spans not tied to a request, e.g. lazy-update propagation).
struct TraceId {
  std::uint64_t value = 0;

  constexpr bool valid() const { return value != 0; }
  friend constexpr auto operator<=>(TraceId, TraceId) = default;
};

/// Derives the TraceId for a request: issuing client in the high bits, the
/// client's sequence number in the low 40. No coordination needed — the
/// pair is already globally unique.
constexpr TraceId make_trace_id(net::NodeId client, std::uint64_t seq) {
  return TraceId{(static_cast<std::uint64_t>(client.value()) << 40) |
                 (seq & ((std::uint64_t{1} << 40) - 1))};
}

enum class SpanKind : std::uint8_t {
  kIssue,          // client: application handed the request to the gateway (t_0)
  kSend,           // client: transmitted to the selected replicas (t_m)
  kRetry,          // client: re-selection after the retry timeout
  kDeliver,        // replica: request delivered at the server-side gateway
  kGsnAssign,      // sequencer: GSN broadcast for this request
  kEnqueue,        // replica: job entered the FIFO service queue
  kExecute,        // replica: service completed (duration = sampled S)
  kReply,          // replica: reply sent back to the client
  kReceive,        // client: first reply arrived (t_p)
  kComplete,       // client: outcome delivered to the app (duration = t_r)
  kTimingFailure,  // client: deadline d passed before any reply
  kAbandon,        // client: gave up after max_retries
  kLazyPublish,    // lazy publisher pushed a state snapshot (no trace id)
};

const char* to_string(SpanKind kind);

struct SpanEvent {
  TraceId trace;
  SpanKind kind = SpanKind::kIssue;
  sim::TimePoint at;  // end of the span for duration-carrying kinds
  sim::Duration duration = sim::Duration::zero();
  net::NodeId node;  // where the event happened
  net::NodeId peer;  // counterpart (destination/source), if meaningful
  std::uint64_t value = 0;  // kind-specific: GSN, |K|, attempt number, ...
};

/// One observed network send (delivered or dropped), for protocol-overhead
/// accounting and timeline visualization. Emitted at *send* time.
struct MessageEvent {
  sim::TimePoint at;
  net::NodeId from;
  net::NodeId to;
  std::string type_name;
  std::size_t wire_size = 0;
  /// Empty if sent on; otherwise the drop reason (see net::trace_send).
  std::string dropped;
};

/// Per-request latency decomposition, emitted by the client gateway when a
/// request completes with a reply. Invariant:
///   total == client_overhead + gateway + queueing + service + lazy_wait.
struct BreakdownEvent {
  TraceId trace;
  sim::TimePoint at;  // completion time (t_p)
  net::NodeId client;
  net::NodeId replica;  // the responder
  bool is_read = true;
  bool deferred = false;
  bool timing_failure = false;
  sim::Duration total = sim::Duration::zero();            // t_r = t_p - t_0
  sim::Duration client_overhead = sim::Duration::zero();  // t_m - t_0
  /// Two-way gateway delay G = t_p - t_m - t_1. Can be negative when the
  /// winning reply belongs to an earlier attempt than the last retransmit.
  sim::Duration gateway = sim::Duration::zero();
  sim::Duration queueing = sim::Duration::zero();   // W (t_q)
  sim::Duration service = sim::Duration::zero();    // S (t_s)
  sim::Duration lazy_wait = sim::Duration::zero();  // U (t_b)
};

/// SLA boundary crossing (entered or left violation), emitted by the
/// SlaMonitor. Defined in obs/sla.hpp.
struct SlaEvent;

/// Subscriber interface. Override only what you need.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_message(const MessageEvent&) {}
  virtual void on_span(const SpanEvent&) {}
  virtual void on_breakdown(const BreakdownEvent&) {}
  virtual void on_sla(const SlaEvent&) {}
};

/// Multi-subscriber dispatch point. Sinks are notified in subscription
/// order; they must outlive their subscription (remove() before dying).
class TraceHub {
 public:
  TraceHub() = default;
  TraceHub(const TraceHub&) = delete;
  TraceHub& operator=(const TraceHub&) = delete;

  void add(TraceSink* sink);
  void remove(TraceSink* sink);

  /// Cheap emptiness check so instrumented layers can skip building events.
  bool active() const { return !sinks_.empty(); }
  std::size_t num_sinks() const { return sinks_.size(); }

  void message(const MessageEvent& e) const {
    for (TraceSink* s : sinks_) s->on_message(e);
  }
  void span(const SpanEvent& e) const {
    for (TraceSink* s : sinks_) s->on_span(e);
  }
  void breakdown(const BreakdownEvent& e) const {
    for (TraceSink* s : sinks_) s->on_breakdown(e);
  }
  void sla(const SlaEvent& e) const {
    for (TraceSink* s : sinks_) s->on_sla(e);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace aqueduct::obs
