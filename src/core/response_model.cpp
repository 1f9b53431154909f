#include "core/response_model.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/check.hpp"

namespace aqueduct::core {

namespace {

/// Grid index at `resolution` — the same truncating rule as Pmf's
/// bucketing, so the integer pipeline lands samples in the same buckets.
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
  c_built_ = false;
  d_.clear();
  d_built_ = false;
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
  if (!w_.bins.empty()) rebuild_c();
  built_ = true;
}

void ResponseState::rebuild_c() {
  c_.clear();
  c_built_ = false;
  if (s_.bins.empty() || w_.bins.empty()) return;
  const std::int64_t lo = s_.bins.front().first + w_.bins.front().first;
  const std::int64_t hi = s_.bins.back().first + w_.bins.back().first;
  c_.lo = lo;
  c_.c.assign(static_cast<std::size_t>(hi - lo) + 1, 0);
  for (const auto& [si, sc] : s_.bins) {
    for (const auto& [wj, wc] : w_.bins) {
      c_.c[static_cast<std::size_t>(si + wj - lo)] += sc * wc;
    }
  }
  c_built_ = true;
  Pmf::count_convolution();
}

void ResponseState::build_d() const {
  d_.clear();
  d_built_ = false;
  if (u_.bins.empty()) return;
  const std::int64_t ulo = u_.bins.front().first;
  const std::int64_t uhi = u_.bins.back().first;
  if (c_built_) {
    d_.lo = c_.lo + ulo;
    d_.c.assign(c_.c.size() + static_cast<std::size_t>(uhi - ulo), 0);
    for (std::size_t i = 0; i < c_.c.size(); ++i) {
      const std::int64_t cv = c_.c[i];
      if (cv == 0) continue;
      for (const auto& [uj, uc] : u_.bins) {
        d_.c[i + static_cast<std::size_t>(uj - ulo)] += cv * uc;
      }
    }
  } else {
    // Eq. 5 degenerates to S alone while the queueing window is empty.
    d_.lo = s_.bins.front().first + ulo;
    d_.c.assign(static_cast<std::size_t>(s_.bins.back().first -
                                         s_.bins.front().first + uhi - ulo) +
                    1,
                0);
    for (const auto& [si, sc] : s_.bins) {
      for (const auto& [uj, uc] : u_.bins) {
        d_.c[static_cast<std::size_t>(si + uj - d_.lo)] += sc * uc;
      }
    }
  }
  d_built_ = true;
  Pmf::count_convolution();
}

std::size_t ResponseState::fold_cost() const {
  const std::size_t delta_c = s_.bins.size() + w_.bins.size();
  return delta_c + (d_built_ ? delta_c * u_.bins.size() + c_.c.size() : 0);
}

std::size_t ResponseState::rebuild_cost() const {
  const auto samples = static_cast<std::size_t>(s_.n + w_.n + u_.n);
  return samples + s_.bins.size() * w_.bins.size() +
         (d_built_ ? c_.c.size() * u_.bins.size() : 0);
}

void ResponseState::apply_publication(const Delta& delta) {
  AQUEDUCT_CHECK(built_);
  const auto& [ts, evicted_ts, tq, evicted_tq, tb, evicted_tb] = delta;
  const std::int64_t a = bucket_index(ts, resolution_);
  const std::int64_t b = bucket_index(tq, resolution_);

  if (!c_built_) {
    // The queueing window was empty at build time (never the case for
    // repository-fed histories, which push both windows together): refresh
    // the products wholesale.
    s_.add(a, 1);
    if (evicted_ts) s_.add(bucket_index(*evicted_ts, resolution_), -1);
    w_.add(b, 1);
    if (evicted_tq) w_.add(bucket_index(*evicted_tq, resolution_), -1);
    if (tb) {
      u_.add(bucket_index(*tb, resolution_), 1);
      if (evicted_tb) u_.add(bucket_index(*evicted_tb, resolution_), -1);
    }
    rebuild_c();
    d_.clear();
    d_built_ = false;
    return;
  }

  // C = cS (*) cW updated in two exact steps:
  //   C += dS (*) cW_old   (then fold dS into cS)
  //   C += cS_new (*) dW   (then fold dW into cW)
  // which telescopes to cS_new (*) cW_new. The touched (index, delta)
  // pairs are collected so D can absorb them below without a convolution.
  std::vector<std::pair<std::int64_t, std::int64_t>> delta_c;
  delta_c.reserve(2 * (w_.bins.size() + s_.bins.size() + 2));
  for (const auto& [wj, wc] : w_.bins) {
    c_.add(a + wj, wc);
    delta_c.emplace_back(a + wj, wc);
  }
  if (evicted_ts) {
    const std::int64_t a2 = bucket_index(*evicted_ts, resolution_);
    for (const auto& [wj, wc] : w_.bins) {
      c_.add(a2 + wj, -wc);
      delta_c.emplace_back(a2 + wj, -wc);
    }
    s_.add(a, 1);
    s_.add(a2, -1);
  } else {
    s_.add(a, 1);
  }
  for (const auto& [si, sc] : s_.bins) {
    c_.add(si + b, sc);
    delta_c.emplace_back(si + b, sc);
  }
  if (evicted_tq) {
    const std::int64_t b2 = bucket_index(*evicted_tq, resolution_);
    for (const auto& [si, sc] : s_.bins) {
      c_.add(si + b2, -sc);
      delta_c.emplace_back(si + b2, -sc);
    }
    w_.add(b, 1);
    w_.add(b2, -1);
  } else {
    w_.add(b, 1);
  }

  // D = C (*) cU follows as D += dC (*) cU_old, then D += C_new (*) dU:
  // (C + dC)(U + dU) = CU + dC·U + C_new·dU.
  if (d_built_) {
    for (const auto& [dk, dv] : delta_c) {
      for (const auto& [uj, uc] : u_.bins) {
        d_.add(dk + uj, dv * uc);
      }
    }
  }
  if (tb) {
    const std::int64_t g = bucket_index(*tb, resolution_);
    if (d_built_) {
      for (std::size_t i = 0; i < c_.c.size(); ++i) {
        const std::int64_t cv = c_.c[i];
        if (cv == 0) continue;
        const std::int64_t ci = c_.lo + static_cast<std::int64_t>(i);
        d_.add(ci + g, cv);
        if (evicted_tb) {
          d_.add(ci + bucket_index(*evicted_tb, resolution_), -cv);
        }
      }
    }
    u_.add(g, 1);
    if (evicted_tb) u_.add(bucket_index(*evicted_tb, resolution_), -1);
  }
}

Pmf ResponseState::materialize(const DenseCounts& counts, double inv,
                               std::int64_t origin_idx_offset,
                               double epsilon) const {
  std::vector<double> mass(counts.c.size());
  for (std::size_t i = 0; i < counts.c.size(); ++i) {
    mass[i] = static_cast<double>(counts.c[i]) * inv;
  }
  const std::int64_t r = resolution_.count();
  return Pmf::from_grid(sim::Duration((counts.lo + origin_idx_offset) * r),
                        resolution_, std::move(mass))
      .truncate_tail(epsilon);
}

Pmf ResponseState::immediate(const std::optional<sim::Duration>& gateway,
                             double epsilon) const {
  if (!built_ || s_.n == 0) return {};
  Pmf p;
  if (c_built_) {
    p = materialize(c_, 1.0 / static_cast<double>(s_.n * w_.n), 0, epsilon);
  } else {
    DenseCounts tmp;
    tmp.lo = s_.bins.front().first;
    tmp.c.assign(
        static_cast<std::size_t>(s_.bins.back().first - tmp.lo) + 1, 0);
    for (const auto& [si, sc] : s_.bins) {
      tmp.c[static_cast<std::size_t>(si - tmp.lo)] = sc;
    }
    p = materialize(tmp, 1.0 / static_cast<double>(s_.n), 0, epsilon);
  }
  // The gateway delay shifts the grid by its exact value (paper Section
  // 5.2 keeps only the latest G; the sparse pipeline never re-bucketed it
  // for Eq. 5).
  if (gateway) p = p.shift(*gateway);
  return p;
}

Pmf ResponseState::deferred(const std::optional<sim::Duration>& gateway,
                            const std::optional<sim::Duration>& fallback,
                            double epsilon) const {
  if (!built_ || s_.n == 0) return {};
  if (u_.n > 0) {
    if (!d_built_) build_d();
    const std::int64_t denom = (w_.n > 0 ? s_.n * w_.n : s_.n) * u_.n;
    // Convolving the G-shifted Eq. 5 pmf with U re-buckets the sum, which
    // truncates the G phase to a whole bucket — reproduced here so the
    // incremental pipeline lands on the identical grid.
    const std::int64_t goff =
        gateway ? bucket_index(*gateway, resolution_) : 0;
    return materialize(d_, 1.0 / static_cast<double>(denom), goff, epsilon);
  }
  if (fallback) return immediate(gateway, epsilon).shift(*fallback);
  return {};
}

// ---- ResponseTimeModel ----

Pmf ResponseTimeModel::immediate_pmf(const PerfHistory& history) const {
  if (history.service.empty()) return {};
  ResponseState state;
  state.rebuild(history, resolution_);
  return state.immediate(history.gateway_delay(), epsilon_);
}

Pmf ResponseTimeModel::deferred_pmf(
    const PerfHistory& history,
    std::optional<sim::Duration> fallback_lazy_wait) const {
  if (history.service.empty()) return {};
  ResponseState state;
  state.rebuild(history, resolution_);
  return state.deferred(history.gateway_delay(), fallback_lazy_wait, epsilon_);
}

Pmf ResponseTimeModel::deferred_from_immediate(
    const Pmf& immediate, const PerfHistory& history,
    std::optional<sim::Duration> fallback_lazy_wait) const {
  if (immediate.empty()) return {};
  if (!history.lazy_wait.empty()) {
    ResponseState state;
    state.rebuild(history, resolution_);
    return state.deferred(history.gateway_delay(), fallback_lazy_wait,
                          epsilon_);
  }
  if (fallback_lazy_wait) return immediate.shift(*fallback_lazy_wait);
  return {};
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
