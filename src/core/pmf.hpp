// Discrete probability mass functions over durations.
//
// The paper (Section 5.2) estimates a replica's response-time distribution
// by forming the pmfs of the measured service time S and queueing delay W
// from sliding windows, then computing the pmf of R = S + W + G as a
// discrete convolution (plus the lazy-wait U for deferred reads).
// core::ResponseState performs that convolution on integer counts; a Pmf
// is its materialized result, which the uncached ResponseTimeModel (the
// oracle the memoized CDFs are tested against) reads.
//
// Representation (see DESIGN.md "Selection at scale"): a pmf is a flat
// contiguous array of probabilities over a fixed-resolution grid — mass_[i]
// is the probability at value origin_ + i * resolution_ — plus a running
// prefix-sum array, so cdf() is an O(1) index computation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace aqueduct::core {

class Pmf {
 public:
  /// An empty pmf (no observations). cdf() of an empty pmf is 0 — callers
  /// treat "no data" pessimistically.
  Pmf() = default;

  /// Dense-grid factory: mass[i] sits at `origin + i * resolution`. Leading
  /// and trailing zero buckets are trimmed; an all-zero vector yields an
  /// empty pmf. This is how ResponseState materializes Eq. 5/6 pmfs from
  /// its integer convolution counts.
  static Pmf from_grid(sim::Duration origin, sim::Duration resolution,
                       std::vector<double> mass);

  bool empty() const { return mass_.empty(); }

  /// Number of grid buckets holding nonzero mass.
  std::size_t support_size() const { return nonzero_; }

  /// P(X <= d). Returns 0 for an empty pmf. O(1): an index into the
  /// prefix-sum array.
  double cdf(sim::Duration d) const {
    if (mass_.empty() || d < origin_) return 0.0;
    const auto idx = static_cast<std::size_t>((d - origin_).count() /
                                              resolution_.count());
    return idx >= prefix_.size() ? prefix_.back() : prefix_[idx];
  }

  /// Expected value. Requires !empty().
  sim::Duration mean() const;

  /// (value, probability) pairs for the nonzero buckets, sorted by value.
  /// Materialized on demand — a diagnostics/testing view, not a hot path.
  std::vector<std::pair<sim::Duration, double>> entries() const;

  /// Value of the first (nonzero) grid bucket. Requires !empty().
  sim::Duration min_value() const { return origin_; }

  /// Thread-local count of full convolutions performed on the calling
  /// thread. Full convolutions dominate the uncached selection path, so
  /// benches and cache-effectiveness tests meter them; ResponseState counts
  /// each of its integer convolutions here, its O(window) incremental delta
  /// updates deliberately not. Thread-local (not process-wide) so
  /// concurrent sweep workers neither race nor perturb each other's stats;
  /// a simulation runs entirely on one thread, so per-run deltas stay
  /// exact.
  static std::uint64_t convolutions_performed();
  static void reset_convolution_counter();

  /// Called by ResponseState when it performs a full integer convolution.
  static void count_convolution();

 private:
  /// Trims zero edges and rebuilds prefix_/nonzero_ from mass_.
  void finalize();

  sim::Duration origin_{0};      // value of mass_[0]
  sim::Duration resolution_{1};
  std::vector<double> mass_;     // probability per grid bucket
  std::vector<double> prefix_;   // prefix_[i] = sum(mass_[0..i])
  std::size_t nonzero_ = 0;
};

}  // namespace aqueduct::core
