// Group-communication identities and views.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "sim/check.hpp"

namespace aqueduct::gcs {

/// Identifies a process group (e.g. the primary replication group).
class GroupId {
 public:
  constexpr GroupId() = default;
  constexpr explicit GroupId(std::uint32_t value) : value_(value) {}
  constexpr std::uint32_t value() const { return value_; }
  constexpr bool valid() const { return value_ != 0; }
  friend constexpr auto operator<=>(GroupId, GroupId) = default;

  /// Wire layout (net/codec.hpp). Every gcs message names a real group, so
  /// a frame naming group 0 is malformed.
  template <typename V>
  void fields(V& v) {
    v(value_);
    v.check(valid(), "gcs: group id 0");
  }

 private:
  std::uint32_t value_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, GroupId id) {
  return os << "g" << id.value();
}

/// Monotonically increasing view identifier within a group.
using ViewId = std::uint64_t;

/// How a process takes part in a group, fixed when it joins. A full member
/// multicasts, and heartbeats to and monitors the other full members. A
/// listener never multicasts; it heartbeats to and monitors only the view's
/// leader, which monitors everyone. Any other pair exchanges heartbeats only
/// while a p2p copy between them is unacked (member.hpp).
enum class Role : std::uint8_t { kMember = 0, kListener = 1 };

/// A group view: the agreed membership at a point in the group's history.
/// Member order is significant — it defines rank, and the member at rank 0
/// is the leader (as with Ensemble's rank-based leader election).
struct View {
  GroupId group;
  ViewId id = 0;
  std::vector<net::NodeId> members;
  /// The members that joined as listeners, sorted; every other member is a
  /// full member.
  std::vector<net::NodeId> listeners;

  template <typename V>
  void fields(V& v) {
    v(group, id, members, listeners);
  }

  bool contains(net::NodeId node) const {
    return std::find(members.begin(), members.end(), node) != members.end();
  }

  bool is_listener(net::NodeId node) const {
    return std::binary_search(listeners.begin(), listeners.end(), node);
  }

  /// The members that are not listeners, in rank order.
  std::vector<net::NodeId> full_members() const {
    std::vector<net::NodeId> full;
    for (const net::NodeId m : members) {
      if (!is_listener(m)) full.push_back(m);
    }
    return full;
  }

  /// Rank of `node` in this view; requires contains(node).
  std::size_t rank_of(net::NodeId node) const {
    auto it = std::find(members.begin(), members.end(), node);
    AQUEDUCT_CHECK_MSG(it != members.end(), "rank_of: node not in view");
    return static_cast<std::size_t>(it - members.begin());
  }

  /// The elected leader: the first member. Requires a non-empty view.
  net::NodeId leader() const {
    AQUEDUCT_CHECK(!members.empty());
    return members.front();
  }

  std::size_t size() const { return members.size(); }
  bool empty() const { return members.empty(); }
};

inline std::ostream& operator<<(std::ostream& os, const View& v) {
  os << v.group << "/v" << v.id << "{";
  for (std::size_t i = 0; i < v.members.size(); ++i) {
    if (i) os << ",";
    os << v.members[i];
  }
  return os << "}";
}

}  // namespace aqueduct::gcs

template <>
struct std::hash<aqueduct::gcs::GroupId> {
  std::size_t operator()(aqueduct::gcs::GroupId id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};
