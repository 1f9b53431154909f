// Per-(process, group) protocol state machine.
//
// A Member provides, within one group, the guarantees AQuA obtains from
// Maestro/Ensemble (paper Section 3):
//   * reliable FIFO multicast: per-sender sequence numbers that persist
//     across views, receiver-side reordering, NACK-driven retransmission,
//     and stability-based garbage collection;
//   * reliable FIFO point-to-point sends within the group (used for
//     client->replica requests and replica->client replies);
//   * virtual synchrony: a coordinator-driven two-phase flush on every
//     membership change agrees on a delivery cut, redistributes unstable
//     messages, and installs the new view at all surviving members;
//   * rank-based leader election: the leader is the first member of the
//     view, and the first non-suspected member acts as view-change
//     coordinator, so leadership fails over automatically;
//   * failure detection by heartbeat timeout.
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
#include <vector>

#include "gcs/config.hpp"
#include "gcs/directory.hpp"
#include "gcs/messages.hpp"
#include "gcs/stability.hpp"
#include "gcs/types.hpp"
#include "net/message.hpp"
#include "net/node.hpp"
#include "obs/observability.hpp"
#include "runtime/executor.hpp"
#include "runtime/periodic_task.hpp"

namespace aqueduct::gcs {

/// Protocol statistics used by tests and traces.
struct MemberStats {
  std::uint64_t mcasts_sent = 0;
  std::uint64_t p2p_sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t flush_gaps = 0;  // messages lost despite flush (crash loss)
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
  Member(runtime::Executor& exec, Directory& directory, Config config,
         GroupId group, net::NodeId self, SendFn send,
         obs::Observability& obs);
  ~Member();

  Member(const Member&) = delete;
  Member& operator=(const Member&) = delete;

  /// Registers the application delivery callback (FIFO per sender).
  void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }

  /// Registers the view-change callback. Fired on every installed view,
  /// including the first one after join().
  void set_on_view(ViewFn fn) { on_view_ = std::move(fn); }

  /// Registers the eviction callback: fired (deferred, via the executor)
  /// when a view that *excludes* this still-running member is installed and
  /// leave() was never called — i.e. the group's failure detector ejected a
  /// live process it mistook for dead. Only reachable over intact links, so
  /// it signals a gray failure (slow or partially partitioned member), not
  /// a crash: a fully partitioned member never receives the install at all.
  /// The member has already stop()ped when the callback runs; the owner
  /// typically treats it as a crash and reincarnates the process.
  void set_on_eviction(EvictionFn fn) { on_eviction_ = std::move(fn); }

  /// Starts the join protocol. If the group is empty this member bootstraps
  /// a singleton view immediately; otherwise a view including this member
  /// is installed asynchronously.
  void join();

  /// Gracefully leaves the group (the coordinator excludes us from the next
  /// view). Local delivery stops immediately.
  void leave();

  /// Stops all activity (fail-stop crash or teardown). Idempotent.
  void stop();

  /// Reliable FIFO multicast of `payload` to the current view (including
  /// self-delivery). Requires an installed view; sends issued during a
  /// flush are queued and transmitted in order in the next view.
  void multicast(net::MessagePtr payload);

  /// Reliable FIFO point-to-point send to a group member.
  void send_to(net::NodeId dest, net::MessagePtr payload);

  /// send_to() each destination.
  void send_to_set(const std::vector<net::NodeId>& dests, const net::MessagePtr& payload);

  /// Dispatches a raw network message belonging to this group (called by
  /// the Endpoint demultiplexer).
  void handle(net::NodeId from, const net::MessagePtr& msg);

  bool joined() const { return joined_; }
  const View& view() const { return view_; }
  net::NodeId self() const { return self_; }
  GroupId group() const { return group_; }
  bool is_leader() const { return joined_ && view_.leader() == self_; }
  const MemberStats& stats() const { return stats_; }
  const Config& config() const { return config_; }

  /// Unstable multicast copies this member still holds: delivered messages
  /// retained for the flush protocol (all senders), and its own multicasts
  /// not yet stable. Both shrink as stability garbage collection runs.
  struct BufferSizes {
    std::size_t retained = 0;
    std::size_t sent = 0;
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

  // ---- message handlers ----
  void handle_data(net::NodeId from, const std::shared_ptr<const DataMsg>& msg);
  /// Dispatches membership control messages carried over the reliable p2p
  /// channels; returns false for application payloads.
  bool dispatch_control(net::NodeId from, const net::MessagePtr& payload);
  void handle_heartbeat(net::NodeId from, const HeartbeatMsg& msg);
  void handle_nack(net::NodeId from, const NackMsg& msg);
  void handle_join(net::NodeId from);
  void handle_leave(net::NodeId from);
  void handle_suspect(net::NodeId from, const SuspectMsg& msg);
  void handle_propose(net::NodeId from, const ProposeMsg& msg);
  void handle_flush(net::NodeId from, const std::shared_ptr<const FlushMsg>& msg);
  void handle_install(const std::shared_ptr<const InstallMsg>& msg);

  // ---- data path ----
  void send_p2p(net::NodeId dest, net::MessagePtr payload);
  void send_control(net::NodeId dest, net::MessagePtr payload);
  /// Delivers every contiguous buffered message on the sender's channel.
  /// Looks the channel up afresh each iteration — a delivered control
  /// message can install a view whose GC erases the channel.
  void deliver_ready(net::NodeId sender, bool is_mcast);
  void accept(net::NodeId sender, const DataMsgPtr& msg);
  void schedule_nack_check(net::NodeId sender, bool is_mcast, std::uint64_t up_to);
  void transmit_mcast(const DataMsgPtr& msg);
  void collect_stability();

  // ---- membership / flush ----
  void bootstrap_singleton();
  void send_join_request();
  void start_view_change();
  void finish_flush();
  void install_view(const std::shared_ptr<const InstallMsg>& msg);
  std::shared_ptr<FlushMsg> build_flush(std::uint64_t proposal) const;
  void suspect(net::NodeId node);
  net::NodeId acting_coordinator() const;
  void fd_tick();
  void send_heartbeat();

  runtime::Executor& exec_;
  Directory& directory_;
  Config config_;
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
  bool blocked_ = false;
  View view_;

  // send side
  std::uint64_t mcast_send_seq_ = 0;
  std::map<std::uint64_t, DataMsgPtr> sent_mcast_;  // unstable own multicasts
  std::map<net::NodeId, std::uint64_t> p2p_send_seq_;
  std::map<net::NodeId, std::map<std::uint64_t, DataMsgPtr>> sent_p2p_;
  struct PendingSend {
    bool is_mcast;
    net::NodeId dest;
    net::MessagePtr payload;
  };
  std::deque<PendingSend> pending_sends_;  // queued while blocked

  // receive side
  std::map<net::NodeId, InChannel> mcast_in_;
  std::map<net::NodeId, InChannel> p2p_in_;

  // stability: every member's cumulative mcast acks, with per-sender
  // minima over the current view kept incrementally
  AckMatrix acks_;

  // failure detection
  std::map<net::NodeId, sim::TimePoint> last_heard_;
  std::set<net::NodeId> suspects_;

  // membership coordination
  std::uint64_t last_proposal_seen_ = 0;
  std::set<net::NodeId> pending_joiners_;
  std::set<net::NodeId> pending_leavers_;
  bool coordinating_ = false;
  bool rerun_change_after_install_ = false;
  std::uint64_t my_proposal_ = 0;
  std::vector<net::NodeId> proposed_members_;
  std::set<net::NodeId> flush_waiting_;
  std::map<net::NodeId, std::shared_ptr<const FlushMsg>> flush_replies_;
  sim::EventHandle flush_timeout_;
  sim::EventHandle join_retry_;
  std::shared_ptr<const InstallMsg> last_install_;  // for lost-install repair

  /// Each tick sends a heartbeat, then runs the failure detector.
  std::unique_ptr<runtime::PeriodicTask> heartbeat_task_;

  /// Per-member view (the `stats()` accessor); the same increments are
  /// mirrored into the registry-wide "gcs.*" aggregates below.
  MemberStats stats_;
  struct Instruments {
    explicit Instruments(obs::MetricsRegistry& reg);
    obs::Counter& mcasts_sent;
    obs::Counter& p2p_sent;
    obs::Counter& delivered;
    obs::Counter& duplicates_dropped;
    obs::Counter& nacks_sent;
    obs::Counter& retransmissions;
    obs::Counter& view_changes;
    obs::Counter& flush_gaps;
  };
  Instruments metrics_;
};

}  // namespace aqueduct::gcs
