// Per-process attachment point to the group-communication substrate.
//
// One Endpoint per process. It owns the process's network identity,
// demultiplexes incoming messages to the process's group Members, and
// models fail-stop crashes.
//
// It also owns the process's one heartbeat timer. Every heartbeat_period it
// collects each joined member's heartbeat sections, each paired with its
// destination, and sends one HeartbeatMsg per destination node: the section
// of the lowest GroupId that goes there, carrying the other groups'
// sections for that node as riders. A section is its group, the
// destination's two p2p marks and a pointer to a shared part its member
// built for the tick, so the per-tick work that grows with the group (the
// ack vector) is done once or twice per member, not once per destination.
// On receipt each section goes to its own member, so a process in three
// groups with a peer sends it one heartbeat per period, not three.
//
// The tick is also the process's one failure detector, since a crash
// belongs to a process, not to a group: a node it sends a section to must
// have sent some gcs message within suspect_timeout of the later of its
// last message and the first tick of the current run of sections to it,
// or every member suspects it. A node the tick sends nothing to is
// forgotten.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "gcs/config.hpp"
#include "gcs/directory.hpp"
#include "gcs/member.hpp"
#include "gcs/types.hpp"
#include "net/transport.hpp"
#include "runtime/executor.hpp"
#include "runtime/periodic_task.hpp"

namespace aqueduct::gcs {

class Endpoint final : public net::Endpoint {
 public:
  /// Attaches a new process to `transport`. All processes of one simulation
  /// share the same Directory (the bootstrap name service).
  Endpoint(runtime::Executor& exec, net::Transport& transport, Directory& directory,
           Config config = {});
  ~Endpoint() override;

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// The member object for `group`, creating it on first use (and starting
  /// the heartbeat tick if it is idle). Call Member::join() to actually
  /// enter the group.
  Member& member(GroupId group);

  /// True if this process participates in `group` (join() was called).
  bool has_member(GroupId group) const { return members_.contains(group); }

  /// Fail-stop crash: detaches from the transport and stops all members.
  /// A crashed endpoint never resumes its old identity — recovery goes
  /// through reincarnate(), which makes it a *new* process.
  void crash();

  /// Rebirth after crash(): discards all group members of the dead
  /// incarnation and re-attaches to the transport under a fresh NodeId
  /// (NodeIds are never reused, so the id tags the incarnation). The reborn process shares nothing with
  /// its predecessor but the Endpoint object itself — it must join its
  /// groups again, and the GCS garbage-collects the dead incarnation's
  /// heartbeat/suspect state once views merge. Returns the new id.
  ///
  /// Any raw Member pointers taken before the crash dangle after this
  /// call; destroy the protocol objects built on this endpoint first.
  net::NodeId reincarnate();

  bool crashed() const { return crashed_; }
  net::NodeId id() const { return id_; }
  /// The simulation-wide observability context (owned by the transport).
  obs::Observability& observability() { return transport_.observability(); }

  // net::Endpoint
  void on_message(net::NodeId from, net::MessagePtr msg) override;

 private:
  /// One heartbeat period: sends every member's sections, one message per
  /// destination node, then has every member suspect each silent
  /// destination. Stops the tick once every member has stopped.
  void heartbeat_tick();

  /// A node the last tick sent a section to, and when it was last heard
  /// from, or the first tick of the current run of sections to it if later.
  struct Watched {
    net::NodeId node;
    sim::TimePoint heard = sim::kEpoch;
  };

  runtime::Executor& exec_;
  net::Transport& transport_;
  Directory& directory_;
  Config config_;
  net::NodeId id_;
  bool crashed_ = false;
  /// In GroupId order, which is the order of a bundle's sections.
  std::map<GroupId, std::unique_ptr<Member>> members_;
  runtime::PeriodicTask heartbeat_task_;
  // Reused by every tick: every member's sections with their destinations,
  // and the watched nodes (NodeId order) of the last tick and of this one.
  std::vector<HeartbeatRoute> routes_;
  std::vector<Watched> watched_;
  std::vector<Watched> next_watched_;
};

}  // namespace aqueduct::gcs
