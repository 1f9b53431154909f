#include "gcs/endpoint.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "gcs/messages.hpp"
#include "sim/check.hpp"

namespace aqueduct::gcs {

namespace {

template <typename T>
GroupId group_field(const net::Message& msg) {
  return static_cast<const T&>(msg).group;
}

/// The GroupId of a gcs message that travels unwrapped, for demux. The
/// stable wire id names the concrete type, so no downcast is tried. Leave,
/// suspect, propose and flush travel only inside a DataMsg of the reliable
/// p2p stream, so an unwrapped one is dropped like any other type: nullopt.
std::optional<GroupId> group_of(const net::Message& msg) {
  switch (msg.wire_type()) {
    case kWireData: return group_field<DataMsg>(msg);
    case kWireHeartbeat: return group_field<HeartbeatMsg>(msg);
    case kWireNack: return group_field<NackMsg>(msg);
    case kWireJoin: return group_field<JoinMsg>(msg);
    case kWireInstall: return group_field<InstallMsg>(msg);
    default: return std::nullopt;
  }
}

}  // namespace

Endpoint::Endpoint(runtime::Executor& exec, net::Transport& transport,
                   Directory& directory, Config config)
    : exec_(exec),
      transport_(transport),
      directory_(directory),
      config_(config),
      heartbeat_task_(exec, config.heartbeat_period, [this] { heartbeat_tick(); }) {
  id_ = transport_.attach(*this);
}

Endpoint::~Endpoint() {
  if (!crashed_) transport_.detach(id_);
}

Member& Endpoint::member(GroupId group) {
  // Allowed after crash() for post-mortem inspection: the member is
  // stopped, and the send callback below drops everything once crashed.
  auto it = members_.find(group);
  if (it == members_.end()) {
    auto member = std::make_unique<Member>(
        exec_, directory_, group, id_,
        [this](net::NodeId to, net::MessagePtr msg) {
          if (!crashed_) transport_.send(id_, to, std::move(msg));
        },
        transport_.observability());
    it = members_.emplace(group, std::move(member)).first;
    if (!crashed_) heartbeat_task_.start();
  }
  return *it->second;
}

void Endpoint::heartbeat_tick() {
  routes_.clear();
  bool live = false;
  for (const auto& [group, member] : members_) {
    if (member->stopped()) continue;
    live = true;
    member->heartbeat(routes_);
  }
  if (!live) {
    heartbeat_task_.stop();
    watched_.clear();  // the runs of sections end with the tick
    return;
  }

  // Sorted by destination, then group, the routes give each destination a
  // run that lists its sections in GroupId order: one message per
  // destination, the first section at its head and the others as riders.
  std::sort(routes_.begin(), routes_.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first : a.second.group < b.second.group;
  });
  // One merge walk over the destinations and watched_, both in NodeId
  // order, keeps each clock that runs on and starts one per new node.
  const sim::TimePoint now = exec_.now();
  next_watched_.clear();
  auto old = watched_.cbegin();
  for (std::size_t begin = 0, end = 0; begin < routes_.size(); begin = end) {
    const net::NodeId dest = routes_[begin].first;
    end = begin + 1;
    while (end < routes_.size() && routes_[end].first == dest) ++end;
    auto msg = std::make_shared<HeartbeatMsg>();
    static_cast<HeartbeatSection&>(*msg) = std::move(routes_[begin].second);
    msg->riders.reserve(end - begin - 1);
    for (std::size_t k = begin + 1; k < end; ++k) msg->riders.push_back(std::move(routes_[k].second));
    transport_.send(id_, dest, std::move(msg));

    while (old != watched_.cend() && old->node < dest) ++old;
    const bool watched = old != watched_.cend() && old->node == dest;
    next_watched_.push_back(watched ? *old : Watched{dest, now});
  }
  watched_.swap(next_watched_);

  // A suspicion can run a view change whose callbacks create members; a
  // std::map keeps the iteration valid across those inserts.
  for (const auto& [group, member] : members_) {
    for (std::size_t k = 0; k < watched_.size() && !crashed_; ++k) {
      if (now - watched_[k].heard > config_.suspect_timeout) member->suspect(watched_[k].node);
    }
  }
}

void Endpoint::crash() {
  if (crashed_) return;
  crashed_ = true;
  heartbeat_task_.stop();
  watched_.clear();
  transport_.detach(id_);
  for (auto& [group, member] : members_) member->stop();
}

net::NodeId Endpoint::reincarnate() {
  AQUEDUCT_CHECK_MSG(crashed_, "reincarnate() requires a crashed endpoint");
  // The dead incarnation's members are unreachable from here on: they are
  // stopped and their send callbacks would use the *new* id, so they must
  // not survive into the new incarnation.
  members_.clear();
  id_ = transport_.attach(*this);
  crashed_ = false;
  return id_;
}

void Endpoint::on_message(net::NodeId from, net::MessagePtr msg) {
  if (crashed_) return;
  // A socket can deliver a well-formed frame of another layer's type (say
  // a stray kv.put datagram); it is not for any member, so it is dropped.
  const std::optional<GroupId> group = group_of(*msg);
  if (!group) return;
  AQUEDUCT_CHECK_MSG(group->valid(), "gcs message without a group");
  const auto heard = std::lower_bound(
      watched_.begin(), watched_.end(), from,
      [](const Watched& w, net::NodeId node) { return w.node < node; });
  if (heard != watched_.end() && heard->node == from) heard->heard = exec_.now();
  if (msg->wire_type() == kWireHeartbeat) {
    const auto& hb = static_cast<const HeartbeatMsg&>(*msg);
    const auto deliver = [&](const HeartbeatSection& section) {
      auto it = members_.find(section.group);
      if (it != members_.end()) it->second->handle_heartbeat(from, section);
    };
    deliver(hb);
    for (const HeartbeatSection& rider : hb.riders) deliver(rider);
    return;
  }
  auto it = members_.find(*group);
  if (it == members_.end()) return;  // no member for this group (e.g. left)
  it->second->handle(from, msg);
}

}  // namespace aqueduct::gcs
