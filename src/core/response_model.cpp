#include "core/response_model.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/check.hpp"

namespace aqueduct::core {

namespace {

/// Grid index at `resolution`: truncating division, so a bucket's value
/// (index * resolution) is the sample floored to the grid. The model's one
/// bucketing rule for S, W, U and the gateway offset.
std::int64_t bucket_index(sim::Duration v, sim::Duration resolution) {
  const auto r = resolution.count();
  return r <= 1 ? v.count() : v.count() / r;
}

}  // namespace

// ---- ResponseState ----

void ResponseState::SparseCounts::add(std::int64_t idx, std::int64_t delta) {
  auto it = std::lower_bound(
      bins.begin(), bins.end(), idx,
      [](const auto& bin, std::int64_t i) { return bin.first < i; });
  if (it != bins.end() && it->first == idx) {
    it->second += delta;
    AQUEDUCT_CHECK(it->second >= 0);
    if (it->second == 0) bins.erase(it);
  } else {
    // A negative delta must hit an existing bin: evictions remove samples
    // that were previously counted.
    AQUEDUCT_CHECK(delta > 0);
    bins.insert(it, {idx, delta});
  }
  n += delta;
}

void ResponseState::DenseCounts::add(std::int64_t idx, std::int64_t delta) {
  if (c.empty()) {
    lo = idx;
    c.push_back(delta);
    return;
  }
  if (idx < lo) {
    c.insert(c.begin(), static_cast<std::size_t>(lo - idx), 0);
    lo = idx;
  } else if (idx - lo >= static_cast<std::int64_t>(c.size())) {
    c.resize(static_cast<std::size_t>(idx - lo) + 1, 0);
  }
  c[static_cast<std::size_t>(idx - lo)] += delta;
}

void ResponseState::rebuild(const PerfHistory& history,
                            sim::Duration resolution) {
  AQUEDUCT_CHECK(resolution > sim::Duration::zero());
  resolution_ = resolution;
  s_.clear();
  w_.clear();
  u_.clear();
  c_.clear();
  built_ = false;
  if (history.service.empty()) return;

  const auto fill = [&](const SlidingWindow<sim::Duration>& win,
                        SparseCounts& out) {
    win.for_each(
        [&](sim::Duration v) { out.add(bucket_index(v, resolution_), 1); });
  };
  fill(history.service, s_);
  fill(history.queueing, w_);
  fill(history.lazy_wait, u_);
  rebuild_c();
  built_ = true;
}

void ResponseState::rebuild_c() {
  c_.clear();
  if (w_.bins.empty()) {
    // Eq. 5 degenerates to S alone while the queueing window is empty.
    for (const auto& [si, sc] : s_.bins) c_.add(si, sc);
    return;
  }
  const std::int64_t lo = s_.bins.front().first + w_.bins.front().first;
  const std::int64_t hi = s_.bins.back().first + w_.bins.back().first;
  c_.lo = lo;
  c_.c.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
  for (const auto& [si, sc] : s_.bins) {
    for (const auto& [wj, wc] : w_.bins) {
      c_.c[static_cast<std::size_t>(si + wj - lo)] += sc * wc;
    }
  }
  Pmf::count_convolution();
}

std::size_t ResponseState::fold_cost() const {
  return s_.bins.size() + w_.bins.size();
}

std::size_t ResponseState::rebuild_cost() const {
  const auto samples = static_cast<std::size_t>(s_.n + w_.n + u_.n);
  return samples + s_.bins.size() * w_.bins.size();
}

void ResponseState::apply_publication(const Delta& delta) {
  AQUEDUCT_CHECK(built_);
  const auto& [ts, evicted_ts, tq, evicted_tq, tb, evicted_tb] = delta;
  const std::int64_t a = bucket_index(ts, resolution_);
  const std::int64_t b = bucket_index(tq, resolution_);
  if (tb) {
    u_.add(bucket_index(*tb, resolution_), 1);
    if (evicted_tb) u_.add(bucket_index(*evicted_tb, resolution_), -1);
  }

  if (w_.bins.empty()) {
    // The queueing window was empty at build time (never the case for
    // repository-fed histories, which push both windows together): refresh
    // C wholesale.
    s_.add(a, 1);
    if (evicted_ts) s_.add(bucket_index(*evicted_ts, resolution_), -1);
    w_.add(b, 1);
    if (evicted_tq) w_.add(bucket_index(*evicted_tq, resolution_), -1);
    rebuild_c();
    return;
  }

  // C = cS (*) cW updated in two exact steps:
  //   C += dS (*) cW_old   (then fold dS into cS)
  //   C += cS_new (*) dW   (then fold dW into cW)
  // which telescopes to cS_new (*) cW_new.
  for (const auto& [wj, wc] : w_.bins) c_.add(a + wj, wc);
  s_.add(a, 1);
  if (evicted_ts) {
    const std::int64_t a2 = bucket_index(*evicted_ts, resolution_);
    for (const auto& [wj, wc] : w_.bins) c_.add(a2 + wj, -wc);
    s_.add(a2, -1);
  }
  for (const auto& [si, sc] : s_.bins) c_.add(si + b, sc);
  w_.add(b, 1);
  if (evicted_tq) {
    const std::int64_t b2 = bucket_index(*evicted_tq, resolution_);
    for (const auto& [si, sc] : s_.bins) c_.add(si + b2, -sc);
    w_.add(b2, -1);
  }
}

std::int64_t ResponseState::immediate_total() const {
  return w_.n > 0 ? s_.n * w_.n : s_.n;
}

std::int64_t ResponseState::deferred_count(std::int64_t k) const {
  // Only the U bins with k - u_j inside C's range contribute.
  const std::int64_t hi = c_.lo + static_cast<std::int64_t>(c_.c.size()) - 1;
  auto it = std::lower_bound(
      u_.bins.begin(), u_.bins.end(), k - hi,
      [](const auto& bin, std::int64_t u) { return bin.first < u; });
  std::int64_t sum = 0;
  for (; it != u_.bins.end() && it->first <= k - c_.lo; ++it) {
    sum += it->second * c_.c[static_cast<std::size_t>(k - it->first - c_.lo)];
  }
  return sum;
}

std::int64_t ResponseState::last_bucket(sim::Duration d,
                                        sim::Duration offset) const {
  // Floor division: d - offset is negative when the offset alone (a
  // fallback wait, say) already exceeds the deadline.
  const std::int64_t v = (d - offset).count();
  const std::int64_t r = resolution_.count();
  return v >= 0 ? v / r : -((-v + r - 1) / r);
}

double ResponseState::immediate_cdf(const std::optional<sim::Duration>& gateway,
                                    sim::Duration deadline) const {
  if (!built_) return 0.0;
  const double inv = 1.0 / static_cast<double>(immediate_total());
  const std::int64_t last =
      last_bucket(deadline, gateway.value_or(sim::Duration::zero()));
  const std::int64_t end =
      std::min<std::int64_t>(last - c_.lo + 1,
                             static_cast<std::int64_t>(c_.c.size()));
  double acc = 0.0;
  for (std::int64_t i = 0; i < end; ++i) {
    const std::int64_t count = c_.c[static_cast<std::size_t>(i)];
    if (count != 0) acc += static_cast<double>(count) * inv;
  }
  return acc;
}

double ResponseState::deferred_cdf(const std::optional<sim::Duration>& gateway,
                                   const std::optional<sim::Duration>& fallback,
                                   sim::Duration deadline) const {
  if (!built_) return 0.0;
  if (u_.n == 0) {
    return fallback ? immediate_cdf(gateway, deadline - *fallback) : 0.0;
  }
  const double inv = 1.0 / static_cast<double>(immediate_total() * u_.n);
  // Convolving the G-shifted Eq. 5 pmf with U re-buckets the sum, which
  // truncates the G phase to a whole bucket (see deferred()).
  const std::int64_t goff =
      gateway ? bucket_index(*gateway, resolution_) : 0;
  const std::int64_t last =
      std::min(last_bucket(deadline, sim::Duration::zero()) - goff,
               c_.lo + static_cast<std::int64_t>(c_.c.size()) - 1 +
                   u_.bins.back().first);
  double acc = 0.0;
  for (std::int64_t k = c_.lo + u_.bins.front().first; k <= last; ++k) {
    const std::int64_t count = deferred_count(k);
    if (count != 0) acc += static_cast<double>(count) * inv;
  }
  return acc;
}

Pmf ResponseState::materialize(const std::vector<std::int64_t>& counts,
                               std::int64_t lo, double inv,
                               sim::Duration shift) const {
  std::vector<double> mass(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    mass[i] = static_cast<double>(counts[i]) * inv;
  }
  return Pmf::from_grid(sim::Duration(lo * resolution_.count()) + shift,
                        resolution_, std::move(mass));
}

Pmf ResponseState::immediate(const std::optional<sim::Duration>& gateway) const {
  if (!built_) return {};
  // The gateway delay shifts the grid by its exact value (paper Section
  // 5.2 keeps only the latest G; Eq. 5 does not re-bucket it).
  return materialize(c_.c, c_.lo,
                     1.0 / static_cast<double>(immediate_total()),
                     gateway.value_or(sim::Duration::zero()));
}

Pmf ResponseState::deferred(const std::optional<sim::Duration>& gateway,
                            const std::optional<sim::Duration>& fallback) const {
  if (!built_) return {};
  if (u_.n > 0) {
    // D = C (*) cU in full, scattered from C's non-zero buckets.
    const std::int64_t ulo = u_.bins.front().first;
    std::vector<std::int64_t> d(
        c_.c.size() + static_cast<std::size_t>(u_.bins.back().first - ulo));
    for (std::size_t i = 0; i < c_.c.size(); ++i) {
      if (c_.c[i] == 0) continue;
      for (const auto& [uj, uc] : u_.bins) {
        d[i + static_cast<std::size_t>(uj - ulo)] += c_.c[i] * uc;
      }
    }
    Pmf::count_convolution();
    // Convolving the G-shifted Eq. 5 pmf with U re-buckets the sum, which
    // truncates the G phase to a whole bucket.
    const std::int64_t goff =
        gateway ? bucket_index(*gateway, resolution_) : 0;
    return materialize(d, c_.lo + ulo,
                       1.0 / static_cast<double>(immediate_total() * u_.n),
                       sim::Duration(goff * resolution_.count()));
  }
  if (fallback) {
    return materialize(c_.c, c_.lo,
                       1.0 / static_cast<double>(immediate_total()),
                       gateway.value_or(sim::Duration::zero()) + *fallback);
  }
  return {};
}

// ---- ResponseTimeModel ----

Pmf ResponseTimeModel::immediate_pmf(const PerfHistory& history) const {
  ResponseState state;
  state.rebuild(history, resolution_);
  return state.immediate(history.gateway_delay());
}

Pmf ResponseTimeModel::deferred_pmf(
    const PerfHistory& history,
    std::optional<sim::Duration> fallback_lazy_wait) const {
  ResponseState state;
  state.rebuild(history, resolution_);
  return state.deferred(history.gateway_delay(), fallback_lazy_wait);
}

double ResponseTimeModel::immediate_cdf(const PerfHistory& history,
                                        sim::Duration deadline) const {
  return immediate_pmf(history).cdf(deadline);
}

double ResponseTimeModel::deferred_cdf(
    const PerfHistory& history, sim::Duration deadline,
    std::optional<sim::Duration> fallback_lazy_wait) const {
  return deferred_pmf(history, fallback_lazy_wait).cdf(deadline);
}

}  // namespace aqueduct::core
