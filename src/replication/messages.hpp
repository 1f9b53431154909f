// Middleware protocol messages exchanged between client and server gateway
// handlers (paper Sections 4 and 5.4).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/qos.hpp"
#include "net/message.hpp"
#include "net/node.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace aqueduct::replication {

// Wire type ids of the replication protocol (block 0x2*, shared by every
// ordering guarantee) and the example replicated objects (0x4*,
// objects.hpp). Append-only: never renumber, never reuse. Retired, never
// to be reused: 0x31-0x35 (the former FIFO handler's own update, read,
// reply, lazy-update and role-map messages; FIFO now speaks 0x2*).
inline constexpr net::WireTypeId kWireUpdate = 0x21;
inline constexpr net::WireTypeId kWireRead = 0x22;
inline constexpr net::WireTypeId kWireGsnAssign = 0x23;
inline constexpr net::WireTypeId kWireReply = 0x24;
inline constexpr net::WireTypeId kWireLazyUpdate = 0x25;
inline constexpr net::WireTypeId kWireStateRequest = 0x26;
inline constexpr net::WireTypeId kWireStateSnapshot = 0x27;
inline constexpr net::WireTypeId kWirePerf = 0x28;
inline constexpr net::WireTypeId kWireGroupInfo = 0x29;

/// Registers every replication-layer decoder (replication protocol,
/// example objects) in the global net::CodecRegistry, plus the
/// gcs decoders the transport needs below them. Idempotent.
void register_wire_codecs();

/// Globally unique request identity: issuing client plus a per-client
/// counter. Used for GSN assignment, deduplication of retries, and
/// matching replies.
struct RequestId {
  net::NodeId client;
  std::uint64_t seq = 0;

  friend constexpr auto operator<=>(const RequestId&, const RequestId&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const RequestId& id) {
  return os << id.client << "#" << id.seq;
}

/// The request's trace identity: derived, not stored, so every layer that
/// sees the RequestId can emit span events without extra plumbing.
constexpr obs::TraceId trace_of(const RequestId& id) {
  return obs::make_trace_id(id.client, id.seq);
}

/// Update operation, sent point-to-point to every member of the primary
/// group (including the sequencer, which assigns the GSN, under sequential
/// ordering).
struct UpdateRequest final : net::Message {
  RequestId id;
  net::MessagePtr op;
  std::string type_name() const override { return "repl.update"; }
  net::WireTypeId wire_type() const override { return kWireUpdate; }
  void encode(net::Writer& w) const override;
};

/// Read-only operation, sent to the selected replica subset K (plus the
/// sequencer, under sequential ordering).
struct ReadRequest final : net::Message {
  RequestId id;
  net::MessagePtr op;
  /// The read's freshness bound; its meaning is the service's ordering.
  ///   * Sequential: the client's staleness threshold `a`; the replica
  ///     serves only once its state is at most `a` versions stale.
  ///   * FIFO: the client's update horizon, the seq of its latest update
  ///     (read-your-writes); the replica serves only once it has applied
  ///     that client's updates up to it. 0 = no session bound.
  std::uint64_t bound = 0;
  std::string type_name() const override { return "repl.read"; }
  net::WireTypeId wire_type() const override { return kWireRead; }
  void encode(net::Writer& w) const override;
};

/// Sequencer broadcast on the replication group. For an update the GSN was
/// advanced; for a read it is the current GSN (not advanced) that replicas
/// use to measure their staleness.
struct GsnAssign final : net::Message {
  RequestId id;
  core::Gsn gsn = 0;
  bool is_update = false;
  std::string type_name() const override { return "repl.gsn"; }
  net::WireTypeId wire_type() const override { return kWireGsnAssign; }
  void encode(net::Writer& w) const override;
};

/// Reply from a replica to the issuing client. Carries the piggybacked
/// server-side latency t1 = ts + tq + tb used by the client to compute the
/// two-way gateway delay tg = tp - tm - t1 (Section 5.4).
struct Reply final : net::Message {
  RequestId id;
  bool is_update = false;
  net::MessagePtr result;
  net::NodeId replica;
  sim::Duration t1 = sim::Duration::zero();
  /// Decomposition of t1 (t1 == ts + tq + tb), piggybacked so the client
  /// gateway can report the per-request latency breakdown of the paper's
  /// response-time model without a second round trip.
  sim::Duration ts = sim::Duration::zero();  // service time S
  sim::Duration tq = sim::Duration::zero();  // queueing delay W
  sim::Duration tb = sim::Duration::zero();  // lazy wait U (deferred reads)
  /// True if the replica performed a deferred read (waited for a lazy
  /// update before responding).
  bool deferred = false;
  /// Staleness of the replica state the response was served from
  /// (my_GSN - my_CSN at service time); lets clients and tests verify the
  /// staleness bound end to end.
  core::Staleness staleness = 0;
  std::string type_name() const override { return "repl.reply"; }
  net::WireTypeId wire_type() const override { return kWireReply; }
  void encode(net::Writer& w) const override;
};

/// Lazy state propagation from the lazy publisher to the secondary group
/// (multicast on the replication group; primaries ignore it).
struct LazyUpdate final : net::Message {
  core::Csn csn = 0;
  net::MessagePtr snapshot;
  std::uint64_t lazy_seq = 0;  // ordinal of this propagation
  std::string type_name() const override { return "repl.lazy"; }
  net::WireTypeId wire_type() const override { return kWireLazyUpdate; }
  void encode(net::Writer& w) const override;
};

/// Recovery: a rejoining primary asks a live primary for its state
/// (point-to-point on the replication group). The responder is chosen from
/// the latest GroupInfo role map; any non-recovering primary may answer.
struct StateRequest final : net::Message {
  std::string type_name() const override { return "repl.state_req"; }
  net::WireTypeId wire_type() const override { return kWireStateRequest; }
  void encode(net::Writer& w) const override;
};

/// Recovery: full state handed to a rejoining primary. Carries everything
/// the transfer barrier needs to guarantee no update is executed twice:
/// the object snapshot with its CSN/GSN position, plus `committed`, whose
/// meaning is the service's ordering.
///   * Sequential: the responder's committed request ids, so re-broadcast
///     assignments of already-committed updates dedup instead of
///     re-executing.
///   * FIFO: one id per client, {client, horizon} (the seq of its newest
///     applied update) — the whole FIFO dedup summary. FIFO's lazy
///     publisher also multicasts this message to the secondaries in place
///     of LazyUpdate, so both catch-up paths share one install (gsn is 0).
struct StateSnapshot final : net::Message {
  core::Csn csn = 0;
  core::Gsn gsn = 0;
  net::MessagePtr snapshot;
  std::vector<RequestId> committed;
  std::string type_name() const override { return "repl.state_snap"; }
  net::WireTypeId wire_type() const override { return kWireStateSnapshot; }
  void encode(net::Writer& w) const override;
};

/// Extra fields in the lazy publisher's performance broadcasts
/// (Section 5.4.1): <n_u, t_u> feeds the arrival-rate estimator,
/// <n_L, t_L> plus the lazy-update period T_L feed the elapsed-interval
/// tracker.
struct LazyInfo {
  std::uint32_t n_u = 0;
  sim::Duration t_u = sim::Duration::zero();
  std::uint32_t n_l = 0;
  sim::Duration t_l = sim::Duration::zero();
  sim::Duration period = sim::Duration::zero();  // T_L
};

/// Performance measurements published by a replica to all clients whenever
/// it completes servicing a read (Section 5.4), and periodically by the
/// lazy publisher to keep the staleness estimators fresh.
struct PerfPublication final : net::Message {
  net::NodeId replica;
  /// True when this publication carries a fresh (ts, tq, tb) sample.
  bool has_sample = false;
  sim::Duration ts = sim::Duration::zero();
  sim::Duration tq = sim::Duration::zero();
  sim::Duration tb = sim::Duration::zero();
  bool deferred = false;
  std::optional<LazyInfo> lazy;
  std::string type_name() const override { return "repl.perf"; }
  net::WireTypeId wire_type() const override { return kWirePerf; }
  void encode(net::Writer& w) const override;
};

/// Service configuration published by the primary-group leader on the QoS
/// group so clients learn the current roles (stand-in for the AQuA
/// dependability manager's configuration distribution).
struct GroupInfo final : net::Message {
  std::uint64_t epoch = 0;
  /// Invalid when the service is FIFO-ordered (there is no sequencer);
  /// that is how clients learn the ordering.
  net::NodeId sequencer;
  std::vector<net::NodeId> primaries;  // excluding the sequencer
  std::vector<net::NodeId> secondaries;
  net::NodeId lazy_publisher;
  std::string type_name() const override { return "repl.groupinfo"; }
  net::WireTypeId wire_type() const override { return kWireGroupInfo; }
  void encode(net::Writer& w) const override;
};

}  // namespace aqueduct::replication

template <>
struct std::hash<aqueduct::replication::RequestId> {
  std::size_t operator()(const aqueduct::replication::RequestId& id) const noexcept {
    return std::hash<aqueduct::net::NodeId>{}(id.client) * 1000003u ^
           std::hash<std::uint64_t>{}(id.seq);
  }
};
