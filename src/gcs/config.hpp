// Tunables for the group-communication substrate.
#pragma once

#include "sim/time.hpp"

namespace aqueduct::gcs {

struct Config {
  /// Period of the per-process heartbeat tick, which sends every group's
  /// heartbeat section. Sections carry cumulative acknowledgements (for
  /// stability/garbage collection), the sender's current sequence numbers
  /// (for trailing-loss detection), and feed each group's failure detector.
  sim::Duration heartbeat_period = std::chrono::milliseconds(250);

  /// A member is suspected crashed if nothing is heard from it for this
  /// long. Must be a few multiples of heartbeat_period.
  sim::Duration suspect_timeout = std::chrono::milliseconds(1500);
};

}  // namespace aqueduct::gcs
