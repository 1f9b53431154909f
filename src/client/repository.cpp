#include "client/repository.hpp"

#include <unordered_set>

#include "sim/check.hpp"

namespace aqueduct::client {

InfoRepository::InfoRepository(std::size_t window_size, sim::Duration resolution)
    : window_size_(window_size), model_(resolution), arrival_rate_(window_size) {
  AQUEDUCT_CHECK(window_size_ > 0);
}

InfoRepository::Slot* InfoRepository::find_slot(net::NodeId id) {
  auto it = slot_of_.find(id);
  return it == slot_of_.end() ? nullptr : &slots_[it->second];
}

const InfoRepository::Slot* InfoRepository::find_slot(net::NodeId id) const {
  auto it = slot_of_.find(id);
  return it == slot_of_.end() ? nullptr : &slots_[it->second];
}

core::PerfHistory& InfoRepository::history(net::NodeId replica) {
  if (Slot* s = find_slot(replica)) {
    s->has_history = true;
    return s->history;
  }
  auto it = orphans_.find(replica);
  if (it == orphans_.end()) {
    it = orphans_.emplace(replica, core::PerfHistory(window_size_)).first;
  }
  return it->second;
}

const core::PerfHistory* InfoRepository::find_history(net::NodeId replica) const {
  if (const Slot* s = find_slot(replica)) {
    return s->has_history ? &s->history : nullptr;
  }
  auto it = orphans_.find(replica);
  return it == orphans_.end() ? nullptr : &it->second;
}

void InfoRepository::record_publication(
    const replication::PerfPublication& perf, sim::TimePoint now) {
  if (perf.has_sample) {
    core::PerfHistory& h = history(perf.replica);
    const std::uint64_t pre_version = h.version();
    core::ResponseState::Delta delta;
    delta.ts = perf.ts;
    delta.evicted_ts = h.service.push(perf.ts);
    delta.tq = perf.tq;
    delta.evicted_tq = h.queueing.push(perf.tq);
    if (perf.deferred) {
      delta.tb = perf.tb;
      delta.evicted_tb = h.lazy_wait.push(perf.tb);
    }
    if (cache_enabled_) {
      // Queue the push for the memoized integer state; the next query folds
      // the queue (or rebuilds, whichever costs less), so publications that
      // pile up between reads are paid for once. An entry that was already
      // stale (or never built) just stays version-behind and rebuilds on
      // its next query — as does one whose queue already spans a whole
      // window, where a rebuild is never dearer. Orphans (non-candidates)
      // carry no memo: nothing queries them.
      Slot* slot = find_slot(perf.replica);
      if (slot != nullptr && slot->estimate.valid &&
          slot->estimate.history_version == pre_version &&
          slot->estimate.state.built() &&
          slot->estimate.pending.size() < window_size_) {
        slot->estimate.pending.push_back(delta);
        slot->estimate.history_version = h.version();
        slot->estimate.dirty = true;
        ++cache_stats_.incremental_updates;
      }
    }
  }
  if (perf.lazy) {
    arrival_rate_.record(perf.lazy->n_u, perf.lazy->t_u);
    lazy_tracker_.record(perf.lazy->t_l, perf.lazy->period, now);
  }
}

void InfoRepository::record_reply(net::NodeId replica,
                                  sim::Duration gateway_delay,
                                  sim::TimePoint now) {
  core::PerfHistory& h = history(replica);
  const std::uint64_t pre_version = h.version();
  h.set_gateway_delay(gateway_delay);
  h.last_reply_at = now;
  if (cache_enabled_) {
    // The gateway delay only enters at evaluation time (it shifts the
    // grid), so the integer state is already current — just mark the CDFs
    // stale and sync the version.
    Slot* slot = find_slot(replica);
    if (slot != nullptr && slot->estimate.valid &&
        slot->estimate.history_version == pre_version &&
        slot->estimate.state.built()) {
      slot->estimate.history_version = h.version();
      slot->estimate.dirty = true;
      ++cache_stats_.incremental_updates;
    }
  }
}

namespace {

/// Every replica the role map names (the sequencer serves no reads but can
/// still own a history from its pre-promotion life).
std::unordered_set<net::NodeId> role_members(const replication::GroupInfo& info) {
  std::unordered_set<net::NodeId> out;
  if (info.sequencer.valid()) out.insert(info.sequencer);
  if (info.lazy_publisher.valid()) out.insert(info.lazy_publisher);
  out.insert(info.primaries.begin(), info.primaries.end());
  out.insert(info.secondaries.begin(), info.secondaries.end());
  return out;
}

}  // namespace

void InfoRepository::record_group_info(const replication::GroupInfo& info) {
  if (roles_ && info.epoch <= roles_->epoch) return;  // stale broadcast
  std::unordered_set<net::NodeId> previous;
  if (roles_) previous = role_members(*roles_);
  const bool boot = previous.empty();
  roles_ = info;
  const std::unordered_set<net::NodeId> current = role_members(info);

  // Rebuild the slot vector in the new candidates() emission order
  // (primaries then secondaries), carrying each surviving id's history —
  // and its memo entry, so a role reshuffle costs no reconvolution — over
  // from its old slot or from the orphan map.
  std::vector<Slot> next;
  next.reserve(info.primaries.size() + info.secondaries.size());
  std::unordered_map<net::NodeId, std::size_t> next_of;
  auto add_slot = [&](net::NodeId id, bool is_primary) {
    Slot s(window_size_);
    s.id = id;
    s.is_primary = is_primary;
    if (Slot* old = find_slot(id)) {
      s.has_history = old->has_history;
      s.history = std::move(old->history);
      s.estimate = std::move(old->estimate);
      old->has_history = false;  // consumed; skip in the sweep below
    } else if (auto it = orphans_.find(id); it != orphans_.end()) {
      s.has_history = true;
      s.history = std::move(it->second);
      orphans_.erase(it);
    }
    next_of.emplace(id, next.size());
    next.push_back(std::move(s));
  };
  for (const net::NodeId id : info.primaries) add_slot(id, true);
  for (const net::NodeId id : info.secondaries) add_slot(id, false);

  // Old-slot histories that left the candidate set: a node still named by
  // the role map (promoted to sequencer) parks in the orphan map; a
  // departed incarnation is evicted for good. NodeIds are never reused, so
  // a replica missing from the new role map is dead — its samples must
  // never blend into a reborn successor's Eq. 5/6 predictions.
  for (Slot& old : slots_) {
    if (!old.has_history || next_of.contains(old.id)) continue;
    if (current.contains(old.id)) {
      orphans_.emplace(old.id, std::move(old.history));
    } else {
      ++churn_stats_.histories_evicted;
    }
  }
  if (!boot) {
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      if (current.contains(it->first)) {
        ++it;
        continue;
      }
      it = orphans_.erase(it);
      ++churn_stats_.histories_evicted;
    }
  }
  slots_ = std::move(next);
  slot_of_ = std::move(next_of);

  if (boot) return;  // boot: nothing to warm up

  // Warm up replicas that newly appear after boot (reincarnations or late
  // joiners): without samples the selector treats them as unknowns (zero
  // CDFs, max ert). Seed their service-side windows from the lazy
  // publisher's history — the best cluster-wide proxy this client holds —
  // so Algorithm 1 may pick them immediately. Link-local state (gateway
  // delay, last reply time) stays empty: it is genuinely unknown.
  const core::PerfHistory* publisher = find_history(info.lazy_publisher);
  if (publisher == nullptr || !publisher->has_samples()) return;
  for (Slot& s : slots_) {
    if (s.has_history || s.id == info.sequencer || previous.contains(s.id)) {
      continue;
    }
    s.history.service = publisher->service;
    s.history.queueing = publisher->queueing;
    s.history.lazy_wait = publisher->lazy_wait;
    s.has_history = true;
    ++churn_stats_.replicas_warmed;
  }
}

const replication::GroupInfo& InfoRepository::roles() const {
  AQUEDUCT_CHECK_MSG(roles_.has_value(), "no GroupInfo received yet");
  return *roles_;
}

std::vector<core::CandidateReplica> InfoRepository::candidates(
    const core::QoSSpec& qos, sim::TimePoint now) const {
  std::vector<core::CandidateReplica> out;
  if (!roles_) return out;
  out.reserve(slots_.size());

  // Deferred reads wait on average about half a lazy interval when no t_b
  // samples exist yet; use that as the bootstrap U estimate.
  std::optional<sim::Duration> fallback_u;
  if (lazy_tracker_.period() > sim::Duration::zero()) {
    fallback_u = lazy_tracker_.period() / 2;
  }

  // One linear walk, no hashing: the slots already sit in emission order.
  for (const Slot& s : slots_) {
    core::CandidateReplica c;
    c.id = s.id;
    c.is_primary = s.is_primary;
    if (s.has_history) {
      estimate_cdfs(s, qos.deadline, fallback_u, c);
      c.ert = now - s.history.last_reply_at;
    } else {
      // Never heard from: maximal ert so the LRU sort tries it first, zero
      // CDFs so the model never credits it with meeting the deadline.
      c.ert = now - sim::kEpoch;
    }
    out.push_back(c);
  }
  return out;
}

void InfoRepository::estimate_cdfs(
    const Slot& slot, sim::Duration deadline,
    std::optional<sim::Duration> fallback_lazy_wait,
    core::CandidateReplica& out) const {
  const core::PerfHistory& h = slot.history;
  const bool want_deferred = !out.is_primary;
  if (!cache_enabled_) {
    out.immediate_cdf = model_.immediate_cdf(h, deadline);
    if (want_deferred) {
      out.deferred_cdf = model_.deferred_cdf(h, deadline, fallback_lazy_wait);
    }
    return;
  }

  CachedEstimate& e = slot.estimate;
  const std::uint64_t version = h.version();

  if (e.valid && e.history_version == version && !e.pending.empty()) {
    // Publications queued since the last query: fold them in order, unless
    // folding them one by one costs more than rebuilding from the windows
    // (the queue then stays set and takes the rebuild below). Both routes
    // give the identical integer state.
    if (e.pending.size() * e.state.fold_cost() <= e.state.rebuild_cost()) {
      for (const core::ResponseState::Delta& delta : e.pending) {
        e.state.apply_publication(delta);
      }
      e.pending.clear();
      ++cache_stats_.queue_folds;
    } else {
      ++cache_stats_.queue_rebuilds;
    }
  }

  bool rebuilt = false;
  if (!e.valid || e.history_version != version || !e.pending.empty()) {
    // The entry is missing, fell behind without its deltas being queued
    // (first sight of this replica, a state that predates the memo entry,
    // or a queue that reached a window's length), or its queue is dearer
    // to fold than a rebuild: rebuild the integer counts from the windows
    // by convolution.
    e.pending.clear();
    e.state.rebuild(h, model_.resolution());
    e.history_version = version;
    e.valid = true;
    e.dirty = true;
    rebuilt = true;
    ++cache_stats_.rebuilds;
  }

  // Stale: the integer state is current but the CDFs lag it (an
  // incremental update, a gateway shift, a fallback change, or a replica
  // that turned secondary).
  const bool stale = e.dirty || e.fallback_lazy_wait != fallback_lazy_wait ||
                     (want_deferred && !e.deferred_cdf);
  if (stale) {
    if (!rebuilt) ++cache_stats_.incremental_refreshes;
  } else if (e.deadline != deadline) {
    ++cache_stats_.cdf_refreshes;
  } else {
    ++cache_stats_.hits;
  }
  if (stale || e.deadline != deadline) {
    // Re-read the CDFs off the counts: sums bounded by the deadline, no
    // convolution and no pmf.
    e.fallback_lazy_wait = fallback_lazy_wait;
    e.dirty = false;
    e.deadline = deadline;
    e.immediate_cdf = e.state.immediate_cdf(h.gateway_delay(), deadline);
    e.deferred_cdf.reset();
    if (want_deferred) {
      e.deferred_cdf = e.state.deferred_cdf(h.gateway_delay(),
                                            fallback_lazy_wait, deadline);
    }
  }
  out.immediate_cdf = e.immediate_cdf;
  if (want_deferred) out.deferred_cdf = *e.deferred_cdf;
}

core::SelectionContext InfoRepository::selection_context(
    const core::QoSSpec& qos, sim::TimePoint now, sim::Rng& rng) const {
  core::SelectionContext ctx;
  ctx.candidates = candidates(qos, now);
  ctx.stale_factor = stale_factor(qos.staleness_threshold, now);
  ctx.qos = qos;
  ctx.now = now;
  ctx.rng = &rng;
  return ctx;
}

void InfoRepository::set_cache_enabled(bool enabled) {
  cache_enabled_ = enabled;
  if (!enabled) {
    for (Slot& s : slots_) s.estimate = CachedEstimate{};
  }
}

double InfoRepository::stale_factor(core::Staleness a, sim::TimePoint now) const {
  if (!arrival_rate_.has_data() || !lazy_tracker_.has_data()) return 1.0;
  const core::PoissonStalenessModel model(arrival_rate_.rate_per_second());
  return model.staleness_factor(a, lazy_tracker_.elapsed_since_lazy_update(now));
}

}  // namespace aqueduct::client
