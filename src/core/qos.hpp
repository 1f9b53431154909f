// The paper's QoS model (Section 2).
//
// Consistency is two-dimensional: <ordering guarantee, staleness threshold>.
// The ordering guarantee is a property of the service; the staleness
// threshold is chosen per client. Timeliness is <deadline, probability>.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "sim/check.hpp"
#include "sim/time.hpp"

namespace aqueduct::core {

/// Logical version number ("Global Sequence Number" / GSN). Assigned by the
/// sequencer using a logical clock — no synchronized wall clocks needed
/// (paper Section 2, citing Lamport).
using Gsn = std::uint64_t;

/// Commit sequence number: the GSN of the most recent update a replica has
/// committed. Strictly monotonic per replica.
using Csn = std::uint64_t;

/// Staleness measured in versions: a replica with staleness x has not yet
/// applied the most recent x updates.
using Staleness = std::uint64_t;

/// Staleness of a replica with local view `gsn` of the global sequence and
/// commit number `csn`.
constexpr Staleness staleness_of(Gsn gsn, Csn csn) {
  return gsn > csn ? gsn - csn : 0;
}

/// Ordering guarantee offered by a replicated service to all its clients
/// (service-specific attribute of the consistency dimension).
/// Chosen per service by replication::ReplicaConfig::ordering.
enum class Ordering {
  kSequential,  // total order: a sequencer assigns GSNs
  kFifo,        // per-client FIFO order: no sequencer, no GSNs
};

std::string to_string(Ordering o);

/// Per-request quality-of-service specification.
///
/// Example from the paper: "a copy of the document that is not more than
/// 5 versions old, within 2.0 seconds, with probability at least 0.7" is
/// QoSSpec{.staleness_threshold = 5, .deadline = 2s, .min_probability = 0.7}.
struct QoSSpec {
  /// Maximum acceptable staleness `a`, in versions, under sequential
  /// ordering. A FIFO-ordered service has no global version count, so
  /// there `a` only picks the session bound: 0 means read-your-writes (the
  /// read waits for a replica that has applied this client's latest
  /// update), and any a > 0 waives it (any replica state will do).
  Staleness staleness_threshold = 0;
  /// Response-time constraint `d`. Applies to read-only requests only.
  sim::Duration deadline = sim::Duration::zero();
  /// Minimum acceptable probability `Pc(d)` of meeting the deadline.
  double min_probability = 1.0;

  void validate() const {
    AQUEDUCT_CHECK_MSG(deadline > sim::Duration::zero(), "deadline must be positive");
    AQUEDUCT_CHECK_MSG(min_probability > 0.0 && min_probability <= 1.0,
                       "Pc(d) must be in (0, 1]");
  }
};

/// Request model (Section 2): a client declares the read-only methods of a
/// service by name; anything not declared read-only is treated as an
/// update (write-only or read-write).
class ReadOnlyRegistry {
 public:
  void declare_read_only(std::string method) { read_only_.insert(std::move(method)); }
  bool is_read_only(const std::string& method) const {
    return read_only_.contains(method);
  }
  std::size_t size() const { return read_only_.size(); }

 private:
  std::set<std::string> read_only_;
};

}  // namespace aqueduct::core
