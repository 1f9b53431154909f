// Per-(process, group) protocol state machine.
//
// A Member provides, within one group, the guarantees AQuA obtains from
// Maestro/Ensemble (paper Section 3):
//   * reliable FIFO multicast: per-sender sequence numbers that persist
//     across views, receiver-side reordering, NACK-driven retransmission,
//     and stability-based garbage collection;
//   * reliable FIFO point-to-point sends within the group (used for
//     client->replica requests and replica->client replies);
//   * best-effort point-to-point sends (a seq-0 DataMsg, outside every
//     stream) for soft state that the next message supersedes (used for
//     replica->client performance publications);
//   * virtual synchrony: a coordinator-driven two-phase flush on every
//     membership change agrees on a delivery cut, redistributes unstable
//     messages, and installs the new view at all surviving members;
//   * rank-based leader election: the leader is the first member of the
//     view, and the first non-suspected member acts as view-change
//     coordinator, so leadership fails over automatically;
//   * failure detection by heartbeat timeout, once per process.
//
// A Member owns no timer and no time of contact with any node: its
// process's Endpoint ticks every heartbeat_period, takes each joined
// member's heartbeat() (one section per destination, paired with it), sends
// one message per destination node, hands
// each received section to handle_heartbeat(), and calls suspect() for
// each destination that fell silent (gcs/endpoint.hpp). So a member picks
// the nodes that heartbeat and its process times them. heartbeat() walks
// a per-view neighbor list: no monitors() call or peer lookup per tick.
//
// A process joins either as a full member or as a listener (gcs::Role). A
// listener receives the group's multicasts and sends and receives p2p, but
// never multicasts. Standing heartbeats flow between full members and
// between the view's leader and everyone else, so a group of m full members
// and l listeners sends O(m^2 + l) heartbeats per period. Only the leader
// monitors the listeners, because it installs the view that removes one;
// the other members learn of a listener's departure from that view.
// Clients join their service's QoS group as listeners.
//
// Any other pair sends sections only while its p2p streams have something
// to ack. A section's p2p_sent is the sender's p2p high-water mark while it
// holds an unacked copy for the destination, and 0 otherwise. A member asks
// a non-monitored neighbor (sends it a section) on every tick while it holds
// an unacked copy for it, and answers once for each section with
// p2p_sent > 0 that the neighbor sent it since the last tick. An answer with
// nothing to ask ends the exchange; a lost ask or answer is repaired by the
// next ask, which also announces the mark a trailing loss is NACKed up to.
// An ask is a section, so a neighbor that answers no ask for
// suspect_timeout is suspected: a copy to a crashed or unreachable listener
// is freed by the view change that follows even when the leader still
// hears it, and a coordinator that is not the leader learns that a listener
// is gone from the propose it asks about (so a view change never waits on
// a crashed listener that nobody monitors).
//
// Stability goes through the leader: a full member frees a retained copy
// once every view member has delivered it, a listener once every full
// member has. A full member counts the rows of the full members and the
// leader. The leader counts the full members in acks_ and, when its view
// has listeners, itself and the listeners in listener_acks_; its section to
// a full member carries listener_acks_'s stable() values as its row, so that
// row stands for the listeners too, and its section to a listener carries
// acks_'s stable() values. A listener counts itself and the leader, and
// NACK-checks every sender up to the leader's announced value, which the
// sender still holds. Full members therefore hold every message some
// listener still lacks, and the flush redistributes every delivered message
// while a full member survives. Copies are collected on a heartbeat only
// after an ack update moved some stable() value (AckMatrix reports it),
// which frees exactly what a collection on every heartbeat would.
//
// Assumed failure model: fail-stop crashes (no Byzantine behaviour); the
// network may delay, reorder, and drop messages.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "gcs/directory.hpp"
#include "gcs/messages.hpp"
#include "gcs/stability.hpp"
#include "gcs/types.hpp"
#include "net/message.hpp"
#include "net/node.hpp"
#include "obs/mirrored_stats.hpp"
#include "obs/observability.hpp"
#include "runtime/executor.hpp"

namespace aqueduct::gcs {

/// One section of a member's heartbeat, paired with the node it goes to.
using HeartbeatRoute = std::pair<net::NodeId, HeartbeatSection>;

/// Protocol statistics used by tests and traces, mirrored to "gcs.<name>".
struct MemberStats {
  std::uint64_t mcasts_sent = 0;
  std::uint64_t p2p_sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t flush_gaps = 0;  // messages lost despite flush (crash loss)

  template <typename V>
  void fields(V& v) {
    v("mcasts_sent", mcasts_sent);
    v("p2p_sent", p2p_sent);
    v("delivered", delivered);
    v("duplicates_dropped", duplicates_dropped);
    v("nacks_sent", nacks_sent);
    v("retransmissions", retransmissions);
    v("view_changes", view_changes);
    v("flush_gaps", flush_gaps);
  }
};

class Member {
 public:
  /// `send` transmits a raw message to a peer (provided by the Endpoint).
  using SendFn = std::function<void(net::NodeId to, net::MessagePtr msg)>;
  using DeliverFn =
      std::function<void(net::NodeId from, const net::MessagePtr& payload)>;
  using ViewFn = std::function<void(const View& view)>;
  using EvictionFn = std::function<void()>;

  /// `obs` is the simulation's observability context (aggregate "gcs.*"
  /// metrics are mirrored into its registry).
  Member(runtime::Executor& exec, Directory& directory, GroupId group,
         net::NodeId self, SendFn send, obs::Observability& obs);
  ~Member();

  Member(const Member&) = delete;
  Member& operator=(const Member&) = delete;

  /// Registers the application delivery callback (FIFO per sender, save
  /// best-effort messages, which come as they arrive).
  void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }

  /// Registers the view-change callback. Fired on every installed view,
  /// including the first one after join().
  void set_on_view(ViewFn fn) { on_view_ = std::move(fn); }

  /// Registers the eviction callback: fired (deferred, via the executor)
  /// when a view that *excludes* this still-running member is installed and
  /// leave() was never called — i.e. the failure detector ejected a live
  /// process it mistook for dead. Only reachable over intact links, so
  /// it signals a gray failure (slow or partially partitioned member), not
  /// a crash: a fully partitioned member never receives the install at all.
  /// The member has already stop()ped when the callback runs; the owner
  /// typically treats it as a crash and reincarnates the process.
  void set_on_eviction(EvictionFn fn) { on_eviction_ = std::move(fn); }

  /// Starts the join protocol in `role`. If the group is empty this member
  /// bootstraps a singleton view immediately; otherwise a view including
  /// this member is installed asynchronously.
  void join(Role role = Role::kMember);

  /// Gracefully leaves the group (the coordinator excludes us from the next
  /// view). Local delivery stops immediately.
  void leave();

  /// Stops all activity (fail-stop crash or teardown). Idempotent.
  void stop();

  /// Reliable FIFO multicast of `payload` to the current view (including
  /// self-delivery). Requires an installed view; sends issued during a
  /// flush are queued and transmitted in order in the next view. A listener
  /// may not multicast.
  void multicast(net::MessagePtr payload);

  /// Reliable FIFO point-to-point send to a group member.
  void send_to(net::NodeId dest, net::MessagePtr payload);

  /// send_to() each destination.
  void send_to_set(const std::vector<net::NodeId>& dests, const net::MessagePtr& payload);

  /// Best-effort send of `payload` to each destination but this member: one
  /// p2p DataMsg with seq 0, outside every stream. No copy is kept, no
  /// sequence number taken and nothing acked, so a lost, duplicated or
  /// reordered copy stays so. It goes out during a flush as well, and is
  /// dropped by a member that is not joined. For soft state only.
  void send_best_effort(const std::vector<net::NodeId>& dests, net::MessagePtr payload);

  /// Dispatches a raw network message belonging to this group (called by
  /// the Endpoint demultiplexer): a data, NACK, join or install message.
  /// Any other type is dropped; the control messages count only when they
  /// arrive inside the reliable p2p stream. A data message whose sender is
  /// not `from` is dropped too. A seq-0 (best-effort) data message is
  /// delivered at once if its sender is in the view and its payload is no
  /// gcs message. Heartbeats come in through handle_heartbeat() instead.
  void handle(net::NodeId from, const net::MessagePtr& msg);

  /// This member's heartbeat for the current tick: appends one section per
  /// node it goes to, none when it is not in a view. Those are every
  /// view member it monitors(), plus each other view member it holds an
  /// unacked p2p copy for or owes an answer. A member builds one shared
  /// part per tick, the leader of a view with listeners two.
  void heartbeat(std::vector<HeartbeatRoute>& routes);

  /// Processes the heartbeat section `from` sent for this group: its acks
  /// (stability, p2p garbage collection), its sequence numbers (loss
  /// detection) and whether it asks for an answer.
  void handle_heartbeat(net::NodeId from, const HeartbeatSection& section);

  /// Starts a view change without `node`, or asks the coordinator to. A
  /// no-op for a member that is not joined or has stopped, for a node
  /// outside its view, and for one already suspected.
  void suspect(net::NodeId node);

  bool joined() const { return joined_; }
  bool stopped() const { return stopped_; }
  const View& view() const { return view_; }
  net::NodeId self() const { return self_; }
  bool is_leader() const { return joined_ && view_.leader() == self_; }
  const MemberStats& stats() const { return stats_.get(); }

  /// Copies this member still holds: delivered multicasts retained for the
  /// flush protocol (all senders) and its own multicasts not yet stable,
  /// both shrinking as stability garbage collection runs, plus its p2p sends
  /// (all destinations) not yet acked by a heartbeat.
  struct BufferSizes {
    std::size_t retained = 0;
    std::size_t sent = 0;
    std::size_t p2p = 0;
  };
  BufferSizes buffer_sizes() const;

 private:
  // ---- receive-side channel state, one per (sender, stream) ----
  struct InChannel {
    std::uint64_t delivered = 0;  // contiguous high-water mark
    std::map<std::uint64_t, DataMsgPtr> buffered;  // out-of-order holdbacks
    // Delivered-but-unstable copies kept for the flush protocol
    // (mcast stream only).
    std::map<std::uint64_t, DataMsgPtr> retained;
    std::optional<std::uint64_t> nack_pending_up_to;
  };

  /// Everything this member knows about one node (itself included): the
  /// node's two inbound streams and this member's p2p stream towards it.
  /// Created on first contact; erased when a view that excludes the node is
  /// installed.
  struct Peer {
    InChannel mcast_in;
    InChannel p2p_in;
    std::uint64_t p2p_send_seq = 0;
    std::map<std::uint64_t, DataMsgPtr> sent_p2p;  // unacked copies to it
    /// It sent a section with p2p_sent > 0 since the last tick, so the next
    /// tick sends it one.
    bool answer = false;

    InChannel& in(bool is_mcast) { return is_mcast ? mcast_in : p2p_in; }
  };

  // ---- message handlers ----
  /// Dispatches membership control messages carried over the reliable p2p
  /// channels; returns false for application payloads.
  bool dispatch_control(net::NodeId from, const net::MessagePtr& payload);
  /// Whether membership control from `from` is acted on: from a member of
  /// the current view, or from anyone before the first view. A joiner hears
  /// its first install from a coordinator outside any view it has, raw or,
  /// when the coordinator's view already lists it, inside the p2p stream.
  bool heeds(net::NodeId from) const { return !joined_ || view_.contains(from); }
  void handle_nack(net::NodeId from, const NackMsg& msg);
  void handle_join(net::NodeId from, const JoinMsg& msg);
  void handle_leave(net::NodeId from);
  void handle_propose(net::NodeId from, const ProposeMsg& msg);
  void handle_flush(net::NodeId from, const std::shared_ptr<const FlushMsg>& msg);
  /// Installs a view newer than the current one: a joiner starts at the
  /// agreed cut, a survivor first delivers up to it. join() bootstraps an
  /// empty group through here with view 1.
  void handle_install(const std::shared_ptr<const InstallMsg>& msg);

  // ---- data path ----
  /// Reliable FIFO p2p send, past the flush send-block: send_to() once the
  /// view allows it, and the membership control messages, which must go
  /// out during a flush.
  void send_p2p(net::NodeId dest, net::MessagePtr payload);
  /// Accepts `msg` at this member in an immediate event, so the caller's
  /// stack unwinds first.
  void deliver_locally(const DataMsgPtr& msg);
  /// Delivers every contiguous buffered message on the sender's channel.
  /// Looks the peer up afresh each iteration — a delivered control message
  /// can install a view that erases it.
  void deliver_ready(net::NodeId sender, bool is_mcast);
  void accept(net::NodeId sender, const DataMsgPtr& msg);
  void schedule_nack_check(net::NodeId sender, bool is_mcast, std::uint64_t up_to);
  void transmit_mcast(const DataMsgPtr& msg);
  /// Frees the retained and sent copies that became stable. Runs on a
  /// heartbeat only when some stable() value moved since the last run;
  /// otherwise it would free nothing.
  void collect_stability();
  /// Highest seq of `sender` this member may free: every row it counts has
  /// delivered it.
  std::uint64_t stable(net::NodeId sender) const;
  /// Records this member's own delivery of `sender` up to `delivered`.
  void ack_own(net::NodeId sender, std::uint64_t delivered);
  /// This member's delivery acks: each sender it delivered from, with the
  /// highest delivered seq, in NodeId order.
  net::NodeU64Pairs own_acks() const;
  /// The matrix that counts `from`'s acks here, or nullptr when none does.
  /// Before the first view every row is kept, to count once a view admits
  /// its node.
  AckMatrix* rows_of(net::NodeId from);
  /// Points acks_ (and, at a leader of listeners, listener_acks_) at the
  /// current view: the rows this member counts and the full members'
  /// columns.
  void reset_acks();

  // ---- membership / flush ----
  void send_join_request();
  void start_view_change();
  void finish_flush();
  std::shared_ptr<FlushMsg> build_flush(std::uint64_t proposal) const;
  net::NodeId acting_coordinator() const;
  /// Whether this member and `node` heartbeat each other on every tick, so
  /// each end's process suspects the other when it falls silent: every pair
  /// of the current view of two full members or with the view's leader in
  /// it. A function of the view alone, so both ends agree on it.
  bool monitors(net::NodeId node) const;
  /// Rebuilds neighbors_ from view_ and peers_; called wherever view_ is
  /// set, once peers_ holds every view member.
  void rebuild_neighbors();

  runtime::Executor& exec_;
  Directory& directory_;
  GroupId group_;
  net::NodeId self_;
  SendFn send_;
  DeliverFn on_deliver_;
  ViewFn on_view_;
  EvictionFn on_eviction_;

  /// Liveness token captured (weakly) by self-scheduled simulator events so
  /// they become no-ops if the member is destroyed before they fire — a
  /// reincarnated endpoint destroys the dead incarnation's members while
  /// such events may still be queued.
  std::shared_ptr<const bool> alive_ = std::make_shared<bool>(true);

  bool stopped_ = false;
  bool joined_ = false;
  bool join_requested_ = false;
  bool leave_requested_ = false;  // distinguishes leave() from eviction
  Role role_ = Role::kMember;     // set by join()
  bool blocked_ = false;
  View view_;

  // send side
  std::uint64_t mcast_send_seq_ = 0;
  std::map<std::uint64_t, DataMsgPtr> sent_mcast_;  // unstable own multicasts
  struct PendingSend {
    bool is_mcast;
    net::NodeId dest;
    net::MessagePtr payload;
  };
  std::deque<PendingSend> pending_sends_;  // queued while blocked

  /// Per-node state, in NodeId order (heartbeat and flush vectors come out
  /// sorted).
  std::map<net::NodeId, Peer> peers_;

  /// The other members of view_, in view order, with their peers_ entries,
  /// whether this member monitors() them and whether they are listeners:
  /// what the heartbeat tick walks. peers_ loses entries only when a view
  /// is installed, and the list is rebuilt right after, so the pointers
  /// stay valid.
  struct Neighbor {
    net::NodeId node;
    Peer* peer;
    bool monitored;
    bool listener;
  };
  std::vector<Neighbor> neighbors_;

  // stability: the counted members' cumulative mcast acks, with per-sender
  // minima kept incrementally
  AckMatrix acks_;
  /// Whether this member leads a view with listeners; only then does
  /// listener_acks_ count {self, listeners}.
  bool leads_listeners_ = false;
  AckMatrix listener_acks_;
  /// Whether some stable() value may have moved since collect_stability()
  /// last ran.
  bool stability_moved_ = false;

  // failure detection
  std::set<net::NodeId> suspects_;

  // membership coordination
  std::uint64_t last_proposal_seen_ = 0;
  std::map<net::NodeId, Role> pending_joiners_;
  std::set<net::NodeId> pending_leavers_;
  bool coordinating_ = false;
  bool rerun_change_after_install_ = false;
  std::uint64_t my_proposal_ = 0;
  View proposed_;
  std::set<net::NodeId> flush_waiting_;
  std::map<net::NodeId, std::shared_ptr<const FlushMsg>> flush_replies_;
  sim::EventHandle flush_timeout_;
  sim::EventHandle join_retry_;
  std::shared_ptr<const InstallMsg> last_install_;  // for lost-install repair

  obs::MirroredStats<MemberStats> stats_;
};

}  // namespace aqueduct::gcs
