// Bounded memory of recent requests (paper Section 4: every replica keeps
// the recent requests it has seen so that client retries are absorbed).
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>

#include "replication/messages.hpp"

namespace aqueduct::replication {

/// How many requests a RecentLog remembers.
inline constexpr std::size_t kCacheLimit = 16384;

/// The newest kCacheLimit request ids a replica has recorded, each with a
/// value, forgotten oldest first.
template <typename V>
class RecentLog {
 public:
  /// Records `id` with `value`; a no-op if `id` is already present (its
  /// value and place stay). Returns the oldest id, dropped to stay within
  /// the bound.
  std::optional<RequestId> add(const RequestId& id, V value = V{}) {
    if (!values_.try_emplace(id, std::move(value)).second) return std::nullopt;
    order_.push_back(id);
    if (order_.size() <= kCacheLimit) return std::nullopt;
    const RequestId dropped = order_.front();
    order_.pop_front();
    values_.erase(dropped);
    return dropped;
  }

  bool contains(const RequestId& id) const { return values_.contains(id); }

  /// The value recorded with `id`, or null if it is not present.
  const V* find(const RequestId& id) const {
    auto it = values_.find(id);
    return it == values_.end() ? nullptr : &it->second;
  }

  /// The recorded ids, oldest first.
  const std::deque<RequestId>& order() const { return order_; }

 private:
  std::unordered_map<RequestId, V> values_;
  std::deque<RequestId> order_;
};

}  // namespace aqueduct::replication
