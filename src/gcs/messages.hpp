// Wire messages of the group-communication protocol.
//
// In the simulator they travel as immutable heap objects shared between
// sender buffers and receivers; over a socket transport they are framed by
// the wire codec. Each type derives from net::Wire with its stable wire id
// (kWire* below) and name, and lists its fields once, in wire order, in
// fields(); the codec's walkers encode, decode and size it from that list
// (net/codec.hpp). gcs::register_wire_codecs() (gcs/codec.cpp) registers
// the types. Wire ids are append-only: never renumber, never reuse.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "gcs/types.hpp"
#include "net/codec.hpp"
#include "net/message.hpp"
#include "net/node.hpp"

namespace aqueduct::gcs {

// Wire type ids of the gcs layer (block 0x1*).
inline constexpr net::WireTypeId kWireData = 0x11;
inline constexpr net::WireTypeId kWireHeartbeat = 0x12;
inline constexpr net::WireTypeId kWireNack = 0x13;
inline constexpr net::WireTypeId kWireJoin = 0x14;
inline constexpr net::WireTypeId kWireLeave = 0x15;
inline constexpr net::WireTypeId kWireSuspect = 0x16;
inline constexpr net::WireTypeId kWirePropose = 0x17;
inline constexpr net::WireTypeId kWireFlush = 0x18;
inline constexpr net::WireTypeId kWireInstall = 0x19;

/// Whether `id` is in the gcs block: a gcs message, never an application
/// payload.
constexpr bool is_gcs_wire(net::WireTypeId id) { return (id >> 4) == 0x1; }

/// Registers every gcs message type in the global net::CodecRegistry.
/// Idempotent; composition roots that receive serialized frames call it
/// once at startup.
void register_wire_codecs();

/// Application payload wrapped for reliable FIFO delivery.
///
/// Sequence numbers are per sender and persist across views, so receivers
/// deduplicate and order by (sender, seq) alone; a message carries no view
/// id. `is_mcast` selects the stream: the group-wide multicast stream, or
/// the per-destination point-to-point stream.
struct DataMsg final : net::Wire<DataMsg, kWireData, "gcs.data"> {
  GroupId group;
  bool is_mcast = true;
  net::NodeId sender;
  std::uint64_t seq = 0;
  net::MessagePtr payload;

  template <typename V>
  void fields(V& v) {
    v(group, is_mcast, sender, seq, payload);
    // Every receiver reads the payload's type.
    v.check(payload != nullptr, "gcs.data: no payload");
  }
};

using DataMsgPtr = std::shared_ptr<const DataMsg>;

/// The part of a member's heartbeat that is the same for every destination:
/// built once per member per tick and shared by all of its sections. The
/// acks are a NodeId-sorted flat vector, encoded exactly like the std::maps
/// of the other messages, and list only senders whose multicasts this
/// member has delivered: a sender missing from it reads as 0, so a member
/// that delivered nothing heartbeats an empty vector, and a node that left
/// the view drops out of it.
struct HeartbeatShared {
  /// Sender's own multicast stream high-water mark (for trailing-loss
  /// detection at receivers).
  std::uint64_t my_mcast_seq = 0;
  /// Cumulative contiguous-delivery acknowledgements: for each sender whose
  /// multicasts this member has delivered, the highest delivered seq.
  net::NodeU64Pairs mcast_acks;

  template <typename V>
  void fields(V& v) {
    v(my_mcast_seq, mcast_acks);
  }

  friend bool operator==(const HeartbeatShared&, const HeartbeatShared&) = default;
};

/// One group's share of a periodic heartbeat to one destination: the two
/// marks of the p2p streams between the sender and that destination, and
/// the member's shared part. A stream that carries nothing has 0 marks (one
/// byte each, as every integer is a varint). So a section's size depends on
/// the number of senders in mcast_acks and on the magnitudes of the values
/// it carries, not on how many other nodes the member exchanges p2p
/// messages with.
struct HeartbeatSection {
  GroupId group;
  /// The sender's p2p stream high-water mark towards the destination while
  /// it holds an unacked copy for it, else 0 (trailing-loss detection on
  /// that stream; a section with a mark asks the destination to answer).
  std::uint64_t p2p_sent = 0;
  /// The highest p2p seq on the destination->sender stream that the sender
  /// has delivered (garbage-collects the destination's send buffer).
  std::uint64_t p2p_acked = 0;
  /// Never null; encoded inline, so a decoded section owns its own copy.
  std::shared_ptr<const HeartbeatShared> shared;

  template <typename V>
  void fields(V& v) {
    v(group, p2p_sent, p2p_acked, shared);
  }

  /// Compares the shared parts by value.
  friend bool operator==(const HeartbeatSection& a, const HeartbeatSection& b) {
    return a.group == b.group && a.p2p_sent == b.p2p_sent && a.p2p_acked == b.p2p_acked &&
           (a.shared == b.shared || (a.shared && b.shared && *a.shared == *b.shared));
  }
};

/// The periodic heartbeat from one process to another: the section of the
/// lowest GroupId the two share, plus the other shared groups' sections as
/// riders. The riders fill the rest of the frame body with no count, so a
/// single-group heartbeat has the same bytes as a bare section. A rider
/// carries no riders of its own.
struct HeartbeatMsg final : net::Wire<HeartbeatMsg, kWireHeartbeat, "gcs.heartbeat">,
                            HeartbeatSection {
  std::vector<HeartbeatSection> riders;

  template <typename V>
  void fields(V& v) {
    HeartbeatSection::fields(v);
    v(net::rest(riders));
  }
};

/// Retransmission request: "re-send your {mcast|p2p} messages in
/// [from_seq, to_seq] to me".
struct NackMsg final : net::Wire<NackMsg, kWireNack, "gcs.nack"> {
  GroupId group;
  bool is_mcast = true;
  std::uint64_t from_seq = 0;
  std::uint64_t to_seq = 0;

  template <typename V>
  void fields(V& v) {
    v(group, is_mcast, from_seq, to_seq);
  }
};

/// Sent by a process that wants to join the group, to the coordinator.
struct JoinMsg final : net::Wire<JoinMsg, kWireJoin, "gcs.join"> {
  GroupId group;
  Role role = Role::kMember;  // the joiner's role in every view it is in

  template <typename V>
  void fields(V& v) {
    v(group, role);
    v.check(role <= Role::kListener, "gcs.join: unknown role");
  }
};

/// Graceful leave notice, to the coordinator.
struct LeaveMsg final : net::Wire<LeaveMsg, kWireLeave, "gcs.leave"> {
  GroupId group;

  template <typename V>
  void fields(V& v) {
    v(group);
  }
};

/// Failure notification: "I suspect `suspect` has crashed", sent to the
/// acting coordinator.
struct SuspectMsg final : net::Wire<SuspectMsg, kWireSuspect, "gcs.suspect"> {
  GroupId group;
  net::NodeId suspect;

  template <typename V>
  void fields(V& v) {
    v(group, suspect);
  }
};

/// Phase 1 of the view change: the coordinator opens a flush round for a
/// new membership, which only the install names. Receivers block new
/// application sends and reply with FlushMsg.
struct ProposeMsg final : net::Wire<ProposeMsg, kWirePropose, "gcs.propose"> {
  GroupId group;
  std::uint64_t proposal = 0;  // monotone per group; becomes the new ViewId

  template <typename V>
  void fields(V& v) {
    v(group, proposal);
  }
};

/// Phase 1 reply: everything this member knows about the multicast streams,
/// so the coordinator can compute the virtually synchronous cut.
struct FlushMsg final : net::Wire<FlushMsg, kWireFlush, "gcs.flush"> {
  GroupId group;
  std::uint64_t proposal = 0;
  /// Highest contiguously delivered mcast seq per sender; senders with
  /// nothing delivered are omitted (read as 0).
  std::map<net::NodeId, std::uint64_t> delivered;
  /// All unstable messages this member holds copies of: retained delivered
  /// messages, buffered out-of-order messages, and its own unstable sends.
  std::vector<DataMsgPtr> held;

  template <typename V>
  void fields(V& v) {
    v(group, proposal, delivered, held);
  }
};

/// Phase 2: the coordinator installs the new view. Members first deliver
/// the resolution messages they are missing (up to deliver_up_to per
/// sender), then switch to the new view and unblock sends.
struct InstallMsg final : net::Wire<InstallMsg, kWireInstall, "gcs.install"> {
  GroupId group;
  View view;  // its id is the proposal that installed it
  /// Virtually synchronous cut: deliver the mcast stream of each sender up
  /// to this seq before installing.
  std::map<net::NodeId, std::uint64_t> deliver_up_to;
  /// Copies of every unstable message known to any flushed member.
  std::vector<DataMsgPtr> resolution;

  template <typename V>
  void fields(V& v) {
    v(group, view, deliver_up_to, resolution);
  }
};

}  // namespace aqueduct::gcs
