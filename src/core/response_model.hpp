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
/// Eq. 5/6 pmfs and their CDF-at-deadline can be memoized between
/// publication/reply events. last_reply_at is deliberately unversioned:
/// it only feeds the ert sort, never the distributions.
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
/// the deferred D = C (*) cU. ResponseState keeps cS/cW/cU and C (and D,
/// built lazily — primaries never ask for it) as integer arrays and exposes
/// two operations:
///
///   - rebuild(): recompute everything from the windows (one metered
///     convolution for C; one more for D on first deferred use);
///   - apply_publication(): fold one window push in as a delta — subtract
///     the evicted sample's cross terms, add the new one's — in
///     O(window + span) integer additions with no convolution at all.
///
/// fold_cost() and rebuild_cost() price the two routes from the state's
/// current sizes, so a caller holding several queued deltas can take the
/// cheaper one.
///
/// Because the integer arithmetic is exact, an incrementally maintained
/// state is *identical* (not approximately equal) to a rebuilt one, and the
/// float pmfs materialized from it — mass[k] = count[k] * (1/n), the same
/// single multiply Pmf::from_samples uses — are bit-identical whichever
/// route produced the counts. That is what lets InfoRepository's memo apply
/// deltas while the uncached ResponseTimeModel rebuilds from scratch, with
/// the coherence tests still requiring bitwise-equal CDFs.
///
/// The latest gateway delay G and the deferred fallback wait are *not* part
/// of the state: they enter at materialization time as shifts, so a
/// gateway-only update never touches the integer arrays.
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
  /// The deferred product D is dropped and rebuilt on next demand.
  void rebuild(const PerfHistory& history, sim::Duration resolution);

  /// Applies one performance publication as a delta. Requires built();
  /// the caller must forward the pushes here in the order they hit the
  /// underlying PerfHistory.
  void apply_publication(const Delta& delta);

  /// Integer operations apply_publication() costs for one delta at the
  /// current sizes: the new sample's cross terms against the other window,
  /// |S| + |W| = |dC|, plus |dC|·|U| + |C| once D is built.
  std::size_t fold_cost() const;

  /// Integer operations rebuild() costs, plus building D again when it is
  /// built now: re-bucketing every window sample, |S|·|W| for C, and
  /// |C|·|U| for D.
  std::size_t rebuild_cost() const;

  /// Materializes the Eq. 5 pmf: C scaled to probabilities, tail-truncated
  /// at `epsilon` (see Pmf::truncate_tail), shifted by the exact gateway
  /// delay. Empty when no service samples exist.
  Pmf immediate(const std::optional<sim::Duration>& gateway,
                double epsilon) const;

  /// Materializes the Eq. 6 pmf. With lazy-wait samples this is D scaled
  /// and truncated (building D first if needed — the one lazy convolution);
  /// otherwise `fallback` shifts the immediate pmf; otherwise empty.
  Pmf deferred(const std::optional<sim::Duration>& gateway,
               const std::optional<sim::Duration>& fallback,
               double epsilon) const;

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
    bool empty() const { return c.empty(); }
    void add(std::int64_t idx, std::int64_t delta);
  };

  void rebuild_c();
  void build_d() const;
  Pmf materialize(const DenseCounts& counts, double inv, std::int64_t shift_idx,
                  double epsilon) const;

  sim::Duration resolution_{1};
  bool built_ = false;
  SparseCounts s_, w_, u_;
  bool c_built_ = false;
  DenseCounts c_;  // cS (*) cW (only while both windows are non-empty)
  // D = C (*) cU, built on first deferred() and kept in sync by deltas.
  // Mutable because laziness is invisible to callers: deferred() is
  // logically const.
  mutable bool d_built_ = false;
  mutable DenseCounts d_;
};

/// Computes F^I_{R_i}(d) and F^D_{R_i}(d) from a PerfHistory.
///
/// `truncation_epsilon` bounds the materialized pmfs' support: upper-tail
/// buckets are dropped while the removed mass stays <= epsilon, so every
/// reported CDF is within epsilon *below* the exact value (conservative:
/// a truncated model never over-credits a replica with meeting a deadline).
/// 0 (the default) keeps the full support.
class ResponseTimeModel {
 public:
  explicit ResponseTimeModel(
      sim::Duration resolution = std::chrono::milliseconds(1),
      double truncation_epsilon = 0.0)
      : resolution_(resolution), epsilon_(truncation_epsilon) {}

  /// pmf of S + W + G (Eq. 5). Empty if the service window is empty.
  Pmf immediate_pmf(const PerfHistory& history) const;

  /// pmf of S + W + G + U (Eq. 6). If no lazy-wait samples exist yet,
  /// `fallback_lazy_wait` (when provided, typically half the lazy-update
  /// interval) substitutes for the U pmf; otherwise the result is empty.
  Pmf deferred_pmf(const PerfHistory& history,
                   std::optional<sim::Duration> fallback_lazy_wait = {}) const;

  /// Eq. 6 given an already-computed Eq. 5 pmf. Bit-identical to
  /// deferred_pmf() when `immediate` equals immediate_pmf(history). With no
  /// lazy-wait samples the fallback shifts `immediate` directly (zero
  /// convolutions); with samples the integer pipeline recomputes C and D.
  Pmf deferred_from_immediate(
      const Pmf& immediate, const PerfHistory& history,
      std::optional<sim::Duration> fallback_lazy_wait = {}) const;

  /// F^I_{R_i}(d) = P(S + W + G <= d). 0 when no history exists — an
  /// unknown replica is never credited with meeting a deadline.
  double immediate_cdf(const PerfHistory& history, sim::Duration deadline) const;

  /// F^D_{R_i}(d) = P(S + W + G + U <= d).
  double deferred_cdf(const PerfHistory& history, sim::Duration deadline,
                      std::optional<sim::Duration> fallback_lazy_wait = {}) const;

  sim::Duration resolution() const { return resolution_; }
  double truncation_epsilon() const { return epsilon_; }

 private:
  sim::Duration resolution_;
  double epsilon_ = 0.0;
};

}  // namespace aqueduct::core
