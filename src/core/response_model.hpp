// Response-time distribution estimation (paper Section 5.2).
//
// For a replica that can answer immediately (a primary, or a secondary
// whose state satisfies the staleness threshold):
//     R_i = S_i + W_i + G_i                       (Eq. 5)
// For a deferred read (secondary waiting for the next lazy update):
//     R_i = S_i + W_i + G_i + U_i                 (Eq. 6)
// S (service time) and W (queueing delay, incl. waiting for the GSN) are
// estimated as pmfs from sliding windows of measurements; G (two-way
// gateway delay) uses only its most recent value, because it fluctuates
// far less than the other parameters; U (lazy wait) gets its own window.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "core/pmf.hpp"
#include "core/sliding_window.hpp"
#include "sim/time.hpp"

namespace aqueduct::core {

/// Per-replica performance history kept in a client's information
/// repository (paper Section 5.4).
///
/// Every mutation that can change the derived response-time distributions
/// (a window push or a gateway-delay update) advances version(), so the
/// Eq. 5/6 CDFs at a deadline can be memoized between publication/reply
/// events. last_reply_at is deliberately unversioned: it only feeds the ert
/// sort, never the distributions.
struct PerfHistory {
  explicit PerfHistory(std::size_t window_size)
      : service(window_size), queueing(window_size), lazy_wait(window_size) {}

  SlidingWindow<sim::Duration> service;    // t_s samples
  SlidingWindow<sim::Duration> queueing;   // t_q samples
  SlidingWindow<sim::Duration> lazy_wait;  // t_b samples (deferred reads)
  /// When this client last received a reply from the replica (for the
  /// elapsed-response-time sort in Algorithm 1). kEpoch if never.
  sim::TimePoint last_reply_at = sim::kEpoch;

  /// Records the most recent two-way gateway-to-gateway delay t_g for this
  /// client-replica pair (only the latest value is kept, Section 5.2).
  void set_gateway_delay(sim::Duration tg) {
    gateway_delay_ = tg;
    ++gateway_version_;
  }

  /// nullopt until the first reply.
  const std::optional<sim::Duration>& gateway_delay() const {
    return gateway_delay_;
  }

  /// Monotonically increasing across every distribution-relevant mutation.
  /// Each event (publication sample, gateway update) bumps exactly one of
  /// the summed counters, so equal versions imply identical distributions.
  std::uint64_t version() const {
    return service.version() + queueing.version() + lazy_wait.version() +
           gateway_version_;
  }

  bool has_samples() const { return !service.empty(); }

 private:
  std::optional<sim::Duration> gateway_delay_;
  std::uint64_t gateway_version_ = 0;
};

/// Integer-count convolution state for one replica's Eq. 5/6 pipeline.
///
/// Window pmfs are relative frequencies count/n, so every derived mass is an
/// integer count times one inverse: (S*W)[k] = C[k] / (nS*nW) where
/// C = cS (*) cW is a convolution of integer histograms, and likewise for
/// the deferred D = C (*) cU. ResponseState keeps cS/cW/cU and C as integer
/// arrays and exposes two update operations:
///
///   - rebuild(): recompute everything from the windows (one metered
///     convolution for C);
///   - apply_publication(): fold one window push in as a delta — subtract
///     the evicted sample's cross terms, add the new one's — in
///     O(window + span) integer additions with no convolution at all.
///
/// fold_cost() and rebuild_cost() price the two routes from the state's
/// current sizes, so a caller holding several queued deltas can take the
/// cheaper one.
///
/// D is never stored: immediate_cdf() and deferred_cdf() read F^I(d) and
/// F^D(d) straight off the counts, computing D's buckets on the fly and
/// only up to the deadline. Each adds count[k] * (1/n) over the non-zero
/// buckets in ascending order, the exact float sequence Pmf's prefix sums
/// accumulate, so the result is bitwise equal to cdf(d) of the pmf that
/// immediate()/deferred() materialize. Because the integer arithmetic is
/// exact, an incrementally maintained state is *identical* to a rebuilt
/// one, so InfoRepository's memo can apply deltas and read CDFs from the
/// counts while the uncached ResponseTimeModel builds whole pmfs from
/// scratch, with the coherence tests still requiring bitwise-equal CDFs.
///
/// The latest gateway delay G and the deferred fallback wait are *not* part
/// of the state: they enter at evaluation time as shifts, so a gateway-only
/// update never touches the integer arrays.
class ResponseState {
 public:
  /// One publication's window pushes, each paired with the value its
  /// window evicted (nullopt while the window was still filling). `tb` is
  /// set only when the publication carried a deferred sample.
  struct Delta {
    sim::Duration ts{0};
    std::optional<sim::Duration> evicted_ts;
    sim::Duration tq{0};
    std::optional<sim::Duration> evicted_tq;
    std::optional<sim::Duration> tb;
    std::optional<sim::Duration> evicted_tb;
  };

  ResponseState() = default;

  /// True once rebuild() has run with a non-empty service window.
  bool built() const { return built_; }

  /// Recomputes the window histograms and C from `history`. Counts one
  /// convolution when both the service and queueing windows are non-empty.
  void rebuild(const PerfHistory& history, sim::Duration resolution);

  /// Applies one performance publication as a delta. Requires built();
  /// the caller must forward the pushes here in the order they hit the
  /// underlying PerfHistory.
  void apply_publication(const Delta& delta);

  /// Integer operations apply_publication() costs for one delta at the
  /// current sizes: the new sample's cross terms against the other window,
  /// |S| + |W|.
  std::size_t fold_cost() const;

  /// Integer operations rebuild() costs: re-bucketing every window sample
  /// plus |S|·|W| for C.
  std::size_t rebuild_cost() const;

  /// F^I(d) = P(S + W + G <= d): the counts of the buckets k with
  /// k·r + G <= d. 0 when no service samples exist.
  double immediate_cdf(const std::optional<sim::Duration>& gateway,
                       sim::Duration deadline) const;

  /// F^D(d) = P(S + W + G + U <= d). With lazy-wait samples, sums D's
  /// buckets k with (k + bucket(G))·r <= d, each computed on the fly as
  /// D[k] = sum_j U_j·C[k - u_j] — at most (d - lo)·|U| operations.
  /// Otherwise `fallback` shifts F^I; otherwise 0.
  double deferred_cdf(const std::optional<sim::Duration>& gateway,
                      const std::optional<sim::Duration>& fallback,
                      sim::Duration deadline) const;

  /// Materializes the Eq. 5 pmf: C scaled to probabilities, shifted by the
  /// exact gateway delay. Empty when no service samples exist.
  Pmf immediate(const std::optional<sim::Duration>& gateway) const;

  /// Materializes the Eq. 6 pmf. With lazy-wait samples this is D scaled
  /// (one counted convolution); otherwise `fallback` shifts the immediate
  /// pmf; otherwise empty.
  Pmf deferred(const std::optional<sim::Duration>& gateway,
               const std::optional<sim::Duration>& fallback) const;

 private:
  /// Sorted (bucket index, count) histogram of one sliding window.
  struct SparseCounts {
    std::vector<std::pair<std::int64_t, std::int64_t>> bins;
    std::int64_t n = 0;  // total samples

    void clear() { bins.clear(); n = 0; }
    void add(std::int64_t idx, std::int64_t delta);
  };

  /// Contiguous counts over [lo, lo + c.size()) bucket indices.
  struct DenseCounts {
    std::int64_t lo = 0;
    std::vector<std::int64_t> c;

    void clear() { lo = 0; c.clear(); }
    void add(std::int64_t idx, std::int64_t delta);
  };

  void rebuild_c();
  /// Total Eq. 5 samples: nS·nW, or nS while the queueing window is empty.
  std::int64_t immediate_total() const;
  /// D[k] for D = C (*) cU, gathered from the U bins that reach C.
  std::int64_t deferred_count(std::int64_t k) const;
  /// Last bucket index whose value k·r + offset is <= d.
  std::int64_t last_bucket(sim::Duration d, sim::Duration offset) const;
  Pmf materialize(const std::vector<std::int64_t>& counts, std::int64_t lo,
                  double inv, sim::Duration shift) const;

  sim::Duration resolution_{1};
  bool built_ = false;
  SparseCounts s_, w_, u_;
  // The Eq. 5 counts: cS (*) cW, or cS alone while the queueing window is
  // empty.
  DenseCounts c_;
};

/// Computes F^I_{R_i}(d) and F^D_{R_i}(d) from a PerfHistory by building
/// the full Eq. 5/6 pmfs on every call: the uncached path, and the
/// independent oracle InfoRepository's memo is tested against.
class ResponseTimeModel {
 public:
  explicit ResponseTimeModel(
      sim::Duration resolution = std::chrono::milliseconds(1))
      : resolution_(resolution) {}

  /// pmf of S + W + G (Eq. 5). Empty if the service window is empty.
  Pmf immediate_pmf(const PerfHistory& history) const;

  /// pmf of S + W + G + U (Eq. 6). If no lazy-wait samples exist yet,
  /// `fallback_lazy_wait` (when provided, typically half the lazy-update
  /// interval) substitutes for the U pmf; otherwise the result is empty.
  Pmf deferred_pmf(const PerfHistory& history,
                   std::optional<sim::Duration> fallback_lazy_wait = {}) const;

  /// F^I_{R_i}(d) = P(S + W + G <= d). 0 when no history exists — an
  /// unknown replica is never credited with meeting a deadline.
  double immediate_cdf(const PerfHistory& history, sim::Duration deadline) const;

  /// F^D_{R_i}(d) = P(S + W + G + U <= d).
  double deferred_cdf(const PerfHistory& history, sim::Duration deadline,
                      std::optional<sim::Duration> fallback_lazy_wait = {}) const;

  sim::Duration resolution() const { return resolution_; }

 private:
  sim::Duration resolution_;
};

}  // namespace aqueduct::core
