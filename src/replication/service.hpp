// Replica organization (paper Section 3, Figure 1).
//
// A replicated service uses three process groups:
//   * the primary replication group — the sequencer (leader) plus the
//     primary replicas; updates are multicast here and committed in GSN
//     order (strong consistency). Under FIFO ordering the leader is an
//     ordinary primary and updates apply in per-client arrival order;
//   * the replication group — every replica of the service; the sequencer
//     broadcasts GSN assignments here and the lazy publisher propagates
//     state updates here;
//   * the QoS group — every replica plus every client; requests, replies
//     and performance publications travel here.
#pragma once

#include <cstdint>

#include "gcs/types.hpp"

namespace aqueduct::replication {

/// The three group ids of one replicated service.
struct ServiceGroups {
  gcs::GroupId primary;      // sequencer + primary replicas
  gcs::GroupId replication;  // all replicas
  gcs::GroupId qos;          // all replicas + all clients

  /// Convenience: carve three group ids out of a small integer service id.
  static ServiceGroups for_service(std::uint32_t service_id) {
    return ServiceGroups{gcs::GroupId{service_id * 16 + 1},
                         gcs::GroupId{service_id * 16 + 2},
                         gcs::GroupId{service_id * 16 + 3}};
  }
};

}  // namespace aqueduct::replication
