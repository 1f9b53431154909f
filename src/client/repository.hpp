// Client-side gateway information repository (paper Section 5.4).
//
// Stores, per replica, the sliding windows of published performance
// measurements (t_s, t_q, t_b), the latest two-way gateway delay t_g and
// last-reply timestamp for this client-replica pair, plus the staleness
// estimation state fed by the lazy publisher's broadcasts. From these it
// builds the candidate vector Algorithm 1 consumes.
//
// The Eq. 5/6 distributions only change when a publication or reply
// mutates a history (PerfHistory::version()), so the repository memoizes
// each replica's CDFs F^I(d) and F^D(d), keyed on (history version,
// deferred fallback, deadline). A read against an unchanged replica costs
// nothing but a version compare (see DESIGN.md "Information repository
// caching").
//
// Each memo entry additionally owns the replica's integer-count convolution
// state (core::ResponseState), kept current *incrementally* and on demand:
// window pushes are queued as they arrive and the next read folds them —
// each subtracting the evicted sample's cross terms and adding the new
// sample's in O(window + span) integer additions — or, when the queue
// would cost more than that, rebuilds the state from the windows. A stale
// CDF is then re-read straight off the counts, summing only the buckets
// below the deadline; no pmf is materialized on the read path (see
// DESIGN.md "Information repository caching" and "Selection at scale").
//
// Storage is *slot-indexed*: the role map's candidates (primaries then
// secondaries, the exact order candidates() emits) live in a flat vector,
// one slot per ring/group position, with history and memo entry embedded.
// Assembling the Algorithm 1 input is then a single linear walk with no
// per-candidate hashing — the constant that dominated the selection hot
// path at large N (ROADMAP item 1). NodeId-keyed lookups survive only on
// the ingestion paths (a hash map from id to slot index, touched once per
// publication/reply, plus a side map for histories of nodes outside the
// role map: the sequencer's pre-promotion life and pre-roles broadcasts).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/qos.hpp"
#include "core/response_model.hpp"
#include "core/selection.hpp"
#include "core/staleness.hpp"
#include "replication/messages.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace aqueduct::client {

/// Effectiveness counters of the response-time memo (see DESIGN.md).
struct RepositoryCacheStats {
  /// Deadline, fallback, and history version all matched: the candidate's
  /// memoized CDFs were served as they were.
  std::uint64_t hits = 0;
  /// History version changed with no delta queued (entry missing or
  /// stale), or the queue was dearer to fold: the integer state was
  /// rebuilt by convolution.
  std::uint64_t rebuilds = 0;
  /// The integer state was current but the deadline differed: CDFs re-read
  /// from the counts (a sum over the buckets below the deadline, no
  /// convolution).
  std::uint64_t cdf_refreshes = 0;
  /// A window push was queued for the entry's integer state, or a gateway
  /// update marked its CDFs stale (no convolution either way).
  std::uint64_t incremental_updates = 0;
  /// A query folded its entry's queued pushes into the integer state in
  /// place (O(window + span) additions per push, no convolution).
  std::uint64_t queue_folds = 0;
  /// A query found its entry's queued pushes dearer to fold than a rebuild
  /// and rebuilt instead (also counted in `rebuilds`).
  std::uint64_t queue_rebuilds = 0;
  /// CDFs re-read from an incrementally maintained state (a sum over the
  /// buckets below the deadline) — the post-mutation read that a rebuild
  /// used to pay convolutions for.
  std::uint64_t incremental_refreshes = 0;

  std::uint64_t lookups() const {
    return hits + rebuilds + cdf_refreshes + incremental_refreshes;
  }
};

/// Membership-churn bookkeeping: what record_group_info() evicted and
/// warmed as role maps changed (replica crashes and reincarnations).
struct RepositoryChurnStats {
  /// Histories dropped because their replica left the role map (its
  /// incarnation is dead; NodeIds are never reused).
  std::uint64_t histories_evicted = 0;
  /// Reborn/new replicas whose history was seeded from the lazy
  /// publisher's samples so the selector may consider them immediately.
  std::uint64_t replicas_warmed = 0;
};

class InfoRepository {
 public:
  /// `window_size` is the sliding-window length l (the paper evaluates 10
  /// and 20); `resolution` buckets the response-time distributions.
  InfoRepository(std::size_t window_size, sim::Duration resolution);

  // ---- ingestion ----

  /// Performance broadcast from a replica (and, for the lazy publisher,
  /// the <n_u, t_u> / <n_L, t_L> staleness measurements).
  void record_publication(const replication::PerfPublication& perf,
                          sim::TimePoint now);

  /// A reply was received from `replica`: records the measured gateway
  /// delay and refreshes the elapsed-response-time clock.
  void record_reply(net::NodeId replica, sim::Duration gateway_delay,
                    sim::TimePoint now);

  /// Latest role map from the sequencer. Rebuilds the slot vector in the
  /// new candidate order, evicts histories of replicas that departed (so
  /// Eq. 5/6 never mix incarnations) and warms up replicas that newly
  /// appear after boot (reincarnations) from the lazy publisher's history.
  void record_group_info(const replication::GroupInfo& info);

  // ---- queries ----

  bool has_roles() const { return roles_.has_value(); }
  const replication::GroupInfo& roles() const;

  /// Builds the Algorithm 1 input vector V for a read with spec `qos`:
  /// every primary (except the sequencer) and every secondary, with
  /// F^I(d), F^D(d) and ert filled in — one linear walk over the slot
  /// vector, CDFs served from each slot's memo when its history is
  /// unchanged since the last query.
  std::vector<core::CandidateReplica> candidates(const core::QoSSpec& qos,
                                                 sim::TimePoint now) const;

  /// Bundles candidates (memoized), the staleness factor, and the caller's
  /// qos/now/rng into the input of ReplicaSelector::select().
  core::SelectionContext selection_context(const core::QoSSpec& qos,
                                           sim::TimePoint now,
                                           sim::Rng& rng) const;

  /// P(A_s(t) <= a) for the secondary group, via the Poisson model (Eq. 4).
  /// 1.0 until the first staleness broadcast arrives (no updates observed
  /// means no staleness).
  double stale_factor(core::Staleness a, sim::TimePoint now) const;

  /// Estimated update arrival rate λ_u (per second).
  double arrival_rate() const { return arrival_rate_.rate_per_second(); }

  /// Lazy-update period T_L learned from the publisher (zero if unknown).
  sim::Duration lazy_period() const { return lazy_tracker_.period(); }

  /// Per-replica history (creating it on first access).
  core::PerfHistory& history(net::NodeId replica);
  const core::PerfHistory* find_history(net::NodeId replica) const;

  /// Disabling the memo forces every candidates() call to build the pmfs
  /// from scratch through ResponseTimeModel (the pre-cache behaviour) — for
  /// A/B benches and coherence tests. Results must be bit-identical either
  /// way.
  void set_cache_enabled(bool enabled);
  const RepositoryCacheStats& cache_stats() const { return cache_stats_; }
  void reset_cache_stats() { cache_stats_ = {}; }
  const RepositoryChurnStats& churn_stats() const { return churn_stats_; }

 private:
  /// Memoized per-replica Eq. 5/6 CDFs. `history_version` keys the
  /// integer state; `fallback_lazy_wait` and `deadline` additionally key
  /// the CDF values read from it. `state` holds the integer
  /// convolution counts; record_publication() queues its window pushes in
  /// `pending` and the next query folds them (or rebuilds, whichever is
  /// cheaper); record_reply() only marks the CDFs stale. `dirty` makes the
  /// next query re-read them, and `history_version` is the version that
  /// `state` plus `pending` reflects.
  struct CachedEstimate {
    bool valid = false;
    /// The CDFs lag the (current) integer state and need re-reading on the
    /// next query.
    bool dirty = false;
    std::uint64_t history_version = 0;
    std::optional<sim::Duration> fallback_lazy_wait;
    core::ResponseState state;
    /// Window pushes not yet folded into `state`, oldest first; never
    /// longer than the window.
    std::vector<core::ResponseState::Delta> pending;
    sim::Duration deadline = sim::Duration::zero();
    double immediate_cdf = 0.0;
    /// Filled lazily: primaries never ask for F^D(d).
    std::optional<double> deferred_cdf;
  };

  /// One candidate position of the current role map, in the order
  /// candidates() emits (primaries then secondaries). History and memo
  /// entry are embedded so the hot path never hashes.
  struct Slot {
    explicit Slot(std::size_t window) : history(window) {}
    net::NodeId id;
    bool is_primary = false;
    /// Whether any publication/reply/warm-up touched the history yet — a
    /// silent slot must present as "never heard from" (zero CDFs, maximal
    /// ert), exactly like a missing hash-map entry used to.
    bool has_history = false;
    core::PerfHistory history;
    // The memo is observably pure: candidates() stays const.
    mutable CachedEstimate estimate;
  };

  Slot* find_slot(net::NodeId id);
  const Slot* find_slot(net::NodeId id) const;

  /// F^I(d) / F^D(d) for one slot, through its memo (or bypassing it when
  /// the cache is disabled).
  void estimate_cdfs(const Slot& slot, sim::Duration deadline,
                     std::optional<sim::Duration> fallback_lazy_wait,
                     core::CandidateReplica& out) const;

  std::size_t window_size_;
  core::ResponseTimeModel model_;
  /// Candidate slots in emission order; rebuilt on each role-map change.
  std::vector<Slot> slots_;
  /// NodeId -> slot index (ingestion paths only, never the read path).
  std::unordered_map<net::NodeId, std::size_t> slot_of_;
  /// Histories of nodes outside the candidate set: pre-roles publications
  /// and the sequencer's pre-promotion life.
  std::unordered_map<net::NodeId, core::PerfHistory> orphans_;
  core::ArrivalRateEstimator arrival_rate_;
  core::LazyIntervalTracker lazy_tracker_;
  std::optional<replication::GroupInfo> roles_;

  mutable RepositoryCacheStats cache_stats_;
  RepositoryChurnStats churn_stats_;
  bool cache_enabled_ = true;
};

}  // namespace aqueduct::client
