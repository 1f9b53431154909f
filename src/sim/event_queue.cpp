#include "sim/event_queue.hpp"

#include <utility>

#include "sim/check.hpp"

namespace aqueduct::sim {

EventHandle EventQueue::schedule(TimePoint at, Callback cb) {
  AQUEDUCT_CHECK(cb != nullptr);
  const auto key = std::make_pair(at, next_seq_++);
  events_.emplace(key, std::move(cb));
  return EventHandle(key);
}

bool EventQueue::cancel(const EventHandle& handle) {
  // extract() unlinks the node before it is destroyed, so a callback
  // whose captures touch the queue as they die sees it consistent.
  return !events_.extract(handle.key_).empty();
}

TimePoint EventQueue::next_time() const {
  AQUEDUCT_CHECK(!events_.empty());
  return events_.begin()->first.first;
}

std::pair<TimePoint, EventQueue::Callback> EventQueue::pop() {
  AQUEDUCT_CHECK(!events_.empty());
  auto node = events_.extract(events_.begin());
  return {node.key().first, std::move(node.mapped())};
}

}  // namespace aqueduct::sim
