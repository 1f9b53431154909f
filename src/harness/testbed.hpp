// The one in-process replica pool: the paper's Section 6 testbed of a
// sequencer, primaries, secondaries and QoS clients on one LAN.
//
// A Testbed owns the executor, the transport (a loopback, optionally
// wrapped in the chaos decorator), the gcs directory, every endpoint, the
// replicas and the bare client handlers, declared so that they tear down
// in a safe order: handlers and replicas before the endpoints they hold
// pointers into, endpoints before the transport they are attached to.
// It also owns the replica lifecycle: one staggered start, crash, and
// restart under a fresh NodeId with the directory clean-up a rejoin needs.
//
// harness::Scenario is a config-driven layer over one Testbed; runner
// plans, examples and tests that want a bare pool build it here directly.
// Construction order fixes NodeIds and RNG splits, so a caller that adds
// the same replicas and clients in the same order gets the same run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "client/handler.hpp"
#include "gcs/config.hpp"
#include "gcs/directory.hpp"
#include "gcs/endpoint.hpp"
#include "net/transport.hpp"
#include "replication/replica.hpp"
#include "replication/replicated_object.hpp"
#include "replication/service.hpp"
#include "runtime/executor.hpp"
#include "sim/check.hpp"
#include "sim/random.hpp"

namespace aqueduct::harness {

class Testbed {
 public:
  /// `latency` is the LAN's per-message delay model. `chaos` wraps the
  /// transport in the chaos decorator, whose fault_injection() adds the
  /// gray-failure surface; `gcs` configures every endpoint.
  Testbed(std::uint64_t seed, std::unique_ptr<sim::DurationDistribution> latency,
          runtime::Kind runtime = runtime::Kind::kSim, bool chaos = false,
          gcs::Config gcs = {});
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Builds a replica of the service `groups` on a fresh endpoint. It
  /// joins its groups when started (start_replicas(), or start() on the
  /// returned server); the first primary-group joiner is the sequencer.
  /// `object` builds the hosted object, once per incarnation.
  replication::ReplicaServer& add_replica(const replication::ServiceGroups& groups,
                                          bool primary,
                                          replication::ReplicaConfig config,
                                          replication::ObjectFactory object);

  /// Builds a client handler of the service `groups` on a fresh endpoint
  /// and starts it: it joins the QoS group now.
  client::ClientHandler& add_client(const replication::ServiceGroups& groups,
                                    client::ClientConfig config = {});

  /// A fresh endpoint for a client that builds its own handlers (a
  /// WorkloadClient, or one gateway hosting handlers of several
  /// services). It counts as an attached client, like add_client()'s.
  gcs::Endpoint& add_client_endpoint();

  /// Staggered start: schedules start() of every replica not scheduled
  /// yet, in index order, the first `first` from now and the rest 10 ms
  /// apart, so each service's first primary boots before its followers.
  /// Returns the offset just past the last one, where clients can follow.
  /// Test fixtures pass a 10 ms `first` so that a client they attach right
  /// after this call joins 10 ms before the first replica boots. Running
  /// the executor for 10 ms instead would delay that client too, and two
  /// fixture tests fail when their client joins with the sequencer.
  sim::Duration start_replicas(sim::Duration first = sim::Duration::zero());

  /// Fail-stop crash of replica `index` now (no-op if already crashed).
  void crash_replica(std::size_t index);

  /// Restarts replica `index` now: crashes it if still live, destroys the
  /// dead server, reincarnates its endpoint under a fresh NodeId, and
  /// starts a new server (same groups, role, config and a fresh object)
  /// that rejoins its groups and runs the state-transfer protocol. A
  /// group's directory entry naming the dead incarnation is forgotten when
  /// no other live member is left in it: for the QoS group, no other
  /// replica of the service and no client endpoint that joined it.
  void restart_replica(std::size_t index);

  /// Hook fired with the replica's index when a group evicts a replica
  /// that was still running (it has already crash()ed itself), for every
  /// replica and incarnation.
  void set_on_evicted(std::function<void(std::size_t)> fn) {
    on_evicted_ = std::move(fn);
  }

  std::size_t num_replicas() const { return slots_.size(); }
  replication::ReplicaServer& replica(std::size_t index) {
    return *slot(index).server;
  }
  /// How many times replica `index` has been reborn (0 = original).
  std::uint32_t incarnation(std::size_t index) const {
    return slot(index).incarnation;
  }
  /// Current NodeId of replica `index` (changes across restarts).
  net::NodeId replica_node(std::size_t index) const {
    AQUEDUCT_CHECK(index < replica_endpoints_.size());
    return replica_endpoints_[index]->id();
  }
  /// Live = not crashed (a replica not started yet counts as live).
  bool replica_alive(std::size_t index) const {
    return !slot(index).server->crashed();
  }

  runtime::Executor& executor() { return *exec_; }
  /// The transport every endpoint is attached to; its fault_injection()
  /// scripts loss, partitions and latency overrides.
  net::Transport& transport() { return *transport_; }
  const net::Transport& transport() const { return *transport_; }
  gcs::Directory& directory() { return directory_; }

 private:
  /// What restart_replica() needs to rebuild a replica, plus its server.
  struct Slot {
    replication::ServiceGroups groups;
    bool primary = false;
    replication::ReplicaConfig config;
    replication::ObjectFactory object;
    std::unique_ptr<replication::ReplicaServer> server;
    std::uint32_t incarnation = 0;
  };

  const Slot& slot(std::size_t index) const {
    AQUEDUCT_CHECK(index < slots_.size());
    return slots_[index];
  }
  std::unique_ptr<replication::ReplicaServer> make_server(std::size_t index);
  /// Replicas of `index`'s service, other than `index`, that are not
  /// crashed; only primaries when `primaries_only`.
  std::size_t live_peers(std::size_t index, bool primaries_only) const;
  /// Whether any live client endpoint has joined group `qos`.
  bool client_attached(gcs::GroupId qos) const;

  std::unique_ptr<runtime::Executor> exec_;
  std::unique_ptr<net::Transport> transport_;
  gcs::Config gcs_;
  gcs::Directory directory_;
  /// Indexed like slots_.
  std::vector<std::unique_ptr<gcs::Endpoint>> replica_endpoints_;
  std::vector<std::unique_ptr<gcs::Endpoint>> client_endpoints_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<client::ClientHandler>> clients_;
  std::function<void(std::size_t)> on_evicted_;
  std::size_t started_ = 0;  // replicas start_replicas() has scheduled
};

}  // namespace aqueduct::harness
