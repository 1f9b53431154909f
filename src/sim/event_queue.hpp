// Ordered event queue for the discrete-event simulator.
//
// Events scheduled for the same time point fire in scheduling order
// (FIFO tie-break by sequence number) so simulations are fully
// deterministic for a given seed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "sim/time.hpp"

namespace aqueduct::sim {

/// Handle to a scheduled event, usable for cancellation: the event's
/// (time, scheduling sequence number) key, as plain data.
class EventHandle {
 public:
  EventHandle() = default;
  /// True if this handle ever referred to an event (cancelled or not).
  bool valid() const { return key_.second != 0; }

 private:
  friend class EventQueue;
  explicit EventHandle(std::pair<TimePoint, std::uint64_t> key) : key_(key) {}
  std::pair<TimePoint, std::uint64_t> key_{};
};

/// Timed callbacks in one map ordered by (time, sequence number). A fired
/// or cancelled event leaves the map, so cancellation is exact.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` to fire at time `at`.
  EventHandle schedule(TimePoint at, Callback cb);

  /// Cancels the event behind `handle` and destroys its callback. Returns
  /// false if the event already fired, was already cancelled, or the
  /// handle is empty.
  bool cancel(const EventHandle& handle);

  /// True if no events remain.
  bool empty() const { return events_.empty(); }

  /// Time of the earliest event. Requires !empty().
  TimePoint next_time() const;

  /// Removes the earliest event and returns its (time, callback).
  /// Requires !empty().
  std::pair<TimePoint, Callback> pop();

  /// Number of events currently queued.
  std::size_t size() const { return events_.size(); }

 private:
  std::map<std::pair<TimePoint, std::uint64_t>, Callback> events_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace aqueduct::sim
