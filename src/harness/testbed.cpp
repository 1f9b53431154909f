#include "harness/testbed.hpp"

#include <algorithm>
#include <utility>

#include "runtime/sim_executor.hpp"

namespace aqueduct::harness {

Testbed::Testbed(std::uint64_t seed,
                 std::unique_ptr<sim::DurationDistribution> latency,
                 runtime::Kind runtime, bool chaos, gcs::Config gcs)
    : exec_(runtime::make_executor(runtime, seed)),
      transport_(net::make_loopback_transport(*exec_, std::move(latency))),
      gcs_(gcs) {
  if (chaos) transport_ = net::make_chaos_transport(std::move(transport_));
}

Testbed::~Testbed() = default;

replication::ReplicaServer& Testbed::add_replica(
    const replication::ServiceGroups& groups, bool primary,
    replication::ReplicaConfig config, replication::ObjectFactory object) {
  replica_endpoints_.push_back(
      std::make_unique<gcs::Endpoint>(*exec_, *transport_, directory_, gcs_));
  slots_.push_back(Slot{.groups = groups,
                        .primary = primary,
                        .config = std::move(config),
                        .object = std::move(object)});
  slots_.back().server = make_server(slots_.size() - 1);
  return *slots_.back().server;
}

client::ClientHandler& Testbed::add_client(const replication::ServiceGroups& groups,
                                           client::ClientConfig config) {
  gcs::Endpoint& endpoint = add_client_endpoint();
  clients_.push_back(std::make_unique<client::ClientHandler>(
      *exec_, endpoint, groups, std::move(config)));
  clients_.back()->start();
  return *clients_.back();
}

gcs::Endpoint& Testbed::add_client_endpoint() {
  client_endpoints_.push_back(
      std::make_unique<gcs::Endpoint>(*exec_, *transport_, directory_, gcs_));
  return *client_endpoints_.back();
}

sim::Duration Testbed::start_replicas(sim::Duration first) {
  // Relative offsets: under kSim now() is the epoch at boot (the same
  // schedule as an absolute one); under kRealTime construction already
  // consumed wall time, so relative is the only correct choice. The index
  // is resolved when the start fires.
  sim::Duration at = first;
  for (; started_ < slots_.size(); ++started_) {
    exec_->after(at, [this, i = started_] { slots_[i].server->start(); });
    at += std::chrono::milliseconds(10);
  }
  return at;
}

void Testbed::crash_replica(std::size_t index) {
  replication::ReplicaServer& server = replica(index);
  if (!server.crashed()) server.crash();
}

std::unique_ptr<replication::ReplicaServer> Testbed::make_server(std::size_t index) {
  Slot& slot = slots_[index];
  auto server = std::make_unique<replication::ReplicaServer>(
      *exec_, *replica_endpoints_[index], slot.groups, slot.primary,
      slot.object(), slot.config);
  server->set_on_evicted([this, index] {
    if (on_evicted_) on_evicted_(index);
  });
  return server;
}

std::size_t Testbed::live_peers(std::size_t index, bool primaries_only) const {
  const replication::ServiceGroups& groups = slots_[index].groups;
  std::size_t live = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& peer = slots_[i];
    if (i == index || peer.groups.replication != groups.replication) continue;
    if (primaries_only && !peer.primary) continue;
    if (!peer.server->crashed()) ++live;
  }
  return live;
}

bool Testbed::client_attached(gcs::GroupId qos) const {
  return std::ranges::any_of(client_endpoints_, [qos](const auto& endpoint) {
    return !endpoint->crashed() && endpoint->has_member(qos);
  });
}

void Testbed::restart_replica(std::size_t index) {
  crash_replica(index);
  Slot& slot = slots_[index];
  gcs::Endpoint& endpoint = *replica_endpoints_[index];
  const net::NodeId old_id = endpoint.id();

  // Destroy the dead server before reincarnating the endpoint: it holds
  // raw pointers into the endpoint's Member objects.
  slot.server.reset();

  // Clear directory entries that still name the dead incarnation and have
  // no surviving member to fail over to (a joiner chasing such an entry
  // would retry against a dead process forever). When any other member is
  // alive its failover coordinator refreshes the entry itself, and erasing
  // it here could split the group into two disjoint views. A client, bare
  // or workload, is a member of the QoS group of each service it joined.
  if (slot.primary && live_peers(index, /*primaries_only=*/true) == 0) {
    directory_.forget_if(slot.groups.primary, old_id);
  }
  if (live_peers(index, /*primaries_only=*/false) == 0) {
    directory_.forget_if(slot.groups.replication, old_id);
    if (!client_attached(slot.groups.qos)) {
      directory_.forget_if(slot.groups.qos, old_id);
    }
  }

  endpoint.reincarnate();
  slot.server = make_server(index);
  slot.server->start();
  ++slot.incarnation;
}

}  // namespace aqueduct::harness
