#include "gcs/endpoint.hpp"

#include <utility>

#include "gcs/messages.hpp"
#include "sim/check.hpp"

namespace aqueduct::gcs {

namespace {

template <typename T>
GroupId group_field(const net::Message& msg) {
  return static_cast<const T&>(msg).group;
}

/// Every gcs wire message carries its GroupId; extract it for demux. The
/// stable wire id names the concrete type, so no downcast is tried.
GroupId group_of(const net::Message& msg) {
  switch (msg.wire_type()) {
    case kWireData: return group_field<DataMsg>(msg);
    case kWireHeartbeat: return group_field<HeartbeatMsg>(msg);
    case kWireNack: return group_field<NackMsg>(msg);
    case kWireJoin: return group_field<JoinMsg>(msg);
    case kWireLeave: return group_field<LeaveMsg>(msg);
    case kWireSuspect: return group_field<SuspectMsg>(msg);
    case kWirePropose: return group_field<ProposeMsg>(msg);
    case kWireFlush: return group_field<FlushMsg>(msg);
    case kWireInstall: return group_field<InstallMsg>(msg);
    default: return GroupId{};
  }
}

}  // namespace

Endpoint::Endpoint(runtime::Executor& exec, net::Transport& transport,
                   Directory& directory, Config config)
    : exec_(exec), transport_(transport), directory_(directory), config_(config) {
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
        exec_, directory_, config_, group, id_,
        [this](net::NodeId to, net::MessagePtr msg) {
          if (!crashed_) transport_.send(id_, to, std::move(msg));
        },
        transport_.observability());
    it = members_.emplace(group, std::move(member)).first;
  }
  return *it->second;
}

void Endpoint::crash() {
  if (crashed_) return;
  crashed_ = true;
  transport_.detach(id_);
  for (auto& [group, member] : members_) member->stop();
}

net::NodeId Endpoint::reincarnate() {
  AQUEDUCT_CHECK_MSG(crashed_, "reincarnate() requires a crashed endpoint");
  // The dead incarnation's members are unreachable from here on: their
  // PeriodicTasks are already stopped and their send callbacks would use
  // the *new* id, so they must not survive into the new incarnation.
  members_.clear();
  id_ = transport_.attach(*this);
  crashed_ = false;
  ++incarnation_;
  return id_;
}

void Endpoint::on_message(net::NodeId from, net::MessagePtr msg) {
  if (crashed_) return;
  const GroupId group = group_of(*msg);
  AQUEDUCT_CHECK_MSG(group.valid(), "non-gcs message on gcs endpoint");
  auto it = members_.find(group);
  if (it == members_.end()) return;  // no member for this group (e.g. left)
  it->second->handle(from, msg);
}

}  // namespace aqueduct::gcs
