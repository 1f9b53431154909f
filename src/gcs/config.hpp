// Tunables for the group-communication substrate.
#pragma once

#include "sim/time.hpp"

namespace aqueduct::gcs {

struct Config {
  /// Period of the per-process heartbeat tick, which sends every group's
  /// heartbeat section. Sections carry cumulative acknowledgements (for
  /// stability/garbage collection) and the sender's current sequence
  /// numbers (for trailing-loss detection), and the tick runs the process's
  /// failure detector.
  sim::Duration heartbeat_period = std::chrono::milliseconds(250);

  /// A node the tick sends sections to is suspected in every group once no
  /// gcs message from it has arrived for this long, counted from the first
  /// of those sections at the earliest. A few multiples of heartbeat_period.
  sim::Duration suspect_timeout = std::chrono::milliseconds(1500);
};

}  // namespace aqueduct::gcs
