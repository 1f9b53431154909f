#include "core/pmf.hpp"

#include <algorithm>
#include <limits>

#include "sim/check.hpp"

namespace aqueduct::core {

namespace {

/// Widest dense grid a single pmf may occupy. Response-time values are
/// bounded (milliseconds to seconds) and resolutions are >= 100us in every
/// model configuration, so real spans are a few hundred buckets; hitting
/// this cap means a caller picked a resolution wildly too fine for its
/// value range and would silently burn memory.
constexpr std::size_t kMaxSpan = std::size_t{1} << 22;

/// Grid index of value v at resolution r: truncating division, so the
/// bucket *value* (index * r) reproduces the sparse representation's
/// floor-to-bucket rule `(v / r) * r` exactly (identity when r <= 1).
std::int64_t bucket_index(std::int64_t v, std::int64_t r) {
  return r <= 1 ? v : v / r;
}

// Thread-local so shared-nothing sweep workers (src/runner) meter their own
// runs without racing or perturbing each other's counts. Every scenario runs
// entirely on one thread, so a worker's before/after delta is exact.
thread_local std::uint64_t g_convolutions = 0;

}  // namespace

std::uint64_t Pmf::convolutions_performed() { return g_convolutions; }

void Pmf::reset_convolution_counter() { g_convolutions = 0; }

void Pmf::count_convolution() { ++g_convolutions; }

void Pmf::finalize() {
  std::size_t lo = 0;
  std::size_t hi = mass_.size();
  while (lo < hi && mass_[lo] == 0.0) ++lo;
  while (hi > lo && mass_[hi - 1] == 0.0) --hi;
  if (lo == hi) {
    origin_ = sim::Duration::zero();
    mass_.clear();
    prefix_.clear();
    nonzero_ = 0;
    return;
  }
  if (lo > 0 || hi < mass_.size()) {
    origin_ += sim::Duration(static_cast<std::int64_t>(lo) *
                             resolution_.count());
    mass_.erase(mass_.begin() + static_cast<std::ptrdiff_t>(hi), mass_.end());
    mass_.erase(mass_.begin(), mass_.begin() + static_cast<std::ptrdiff_t>(lo));
  }
  prefix_.resize(mass_.size());
  // Accumulate only nonzero buckets, in ascending order — the same additions
  // in the same order as a sequential scan over the sparse entry list, so
  // cdf() values are bit-identical to that scan.
  double acc = 0.0;
  nonzero_ = 0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    if (mass_[i] != 0.0) {
      acc += mass_[i];
      ++nonzero_;
    }
    prefix_[i] = acc;
  }
}

Pmf Pmf::point_mass(sim::Duration value) {
  Pmf pmf;
  pmf.origin_ = value;
  pmf.resolution_ = sim::Duration(1);
  pmf.mass_.assign(1, 1.0);
  pmf.finalize();
  return pmf;
}

Pmf Pmf::from_samples(std::span<const sim::Duration> samples,
                      sim::Duration resolution) {
  AQUEDUCT_CHECK(resolution > sim::Duration::zero());
  Pmf pmf;
  pmf.resolution_ = resolution;
  if (samples.empty()) return pmf;

  const std::int64_t r = resolution.count();
  std::int64_t min_idx = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_idx = std::numeric_limits<std::int64_t>::min();
  for (const sim::Duration s : samples) {
    const std::int64_t idx = bucket_index(s.count(), r);
    min_idx = std::min(min_idx, idx);
    max_idx = std::max(max_idx, idx);
  }
  const auto span = static_cast<std::size_t>(max_idx - min_idx) + 1;
  AQUEDUCT_CHECK_MSG(span <= kMaxSpan,
                     "pmf span too wide for the chosen resolution");

  // Count occurrences per bucket, then scale once: mass = count * (1/n).
  // ResponseState materializes its integer convolution counts with the same
  // single multiply, which is what makes the cached and uncached Eq. 5/6
  // pipelines bit-identical.
  std::vector<std::int64_t> counts(span, 0);
  for (const sim::Duration s : samples) {
    ++counts[static_cast<std::size_t>(bucket_index(s.count(), r) - min_idx)];
  }
  const double inv = 1.0 / static_cast<double>(samples.size());
  pmf.origin_ = sim::Duration(min_idx * r);
  pmf.mass_.resize(span);
  for (std::size_t i = 0; i < span; ++i) {
    pmf.mass_[i] = static_cast<double>(counts[i]) * inv;
  }
  pmf.finalize();
  return pmf;
}

Pmf Pmf::from_grid(sim::Duration origin, sim::Duration resolution,
                   std::vector<double> mass) {
  AQUEDUCT_CHECK(resolution > sim::Duration::zero());
  AQUEDUCT_CHECK_MSG(mass.size() <= kMaxSpan,
                     "pmf span too wide for the chosen resolution");
  Pmf pmf;
  pmf.origin_ = origin;
  pmf.resolution_ = resolution;
  pmf.mass_ = std::move(mass);
  pmf.finalize();
  return pmf;
}

Pmf Pmf::convolve(const Pmf& other) const {
  Pmf out;
  out.resolution_ = std::max(resolution_, other.resolution_);
  if (empty() || other.empty()) return out;
  ++g_convolutions;

  const std::int64_t rr = out.resolution_.count();
  const std::int64_t rx = resolution_.count();
  const std::int64_t ry = other.resolution_.count();
  const std::int64_t ox = origin_.count();
  const std::int64_t oy = other.origin_.count();
  // Bucket index is monotone in the value, so the extreme sums bound the
  // output grid.
  const std::int64_t lo = bucket_index(ox + oy, rr);
  const std::int64_t hi = bucket_index(
      ox + static_cast<std::int64_t>(mass_.size() - 1) * rx + oy +
          static_cast<std::int64_t>(other.mass_.size() - 1) * ry,
      rr);
  const auto span = static_cast<std::size_t>(hi - lo) + 1;
  AQUEDUCT_CHECK_MSG(span <= kMaxSpan,
                     "convolution span too wide for the chosen resolution");

  // x-major accumulation: per output bucket the products arrive in the same
  // (x ascending, y ascending) order as the sparse map implementation, so
  // the sums round identically.
  std::vector<double> m(span, 0.0);
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    const double xp = mass_[i];
    if (xp == 0.0) continue;
    const std::int64_t xv = ox + static_cast<std::int64_t>(i) * rx;
    for (std::size_t j = 0; j < other.mass_.size(); ++j) {
      const double yp = other.mass_[j];
      if (yp == 0.0) continue;
      const std::int64_t yv = oy + static_cast<std::int64_t>(j) * ry;
      m[static_cast<std::size_t>(bucket_index(xv + yv, rr) - lo)] += xp * yp;
    }
  }
  out.origin_ = sim::Duration(lo * rr);
  out.mass_ = std::move(m);
  out.finalize();
  return out;
}

Pmf Pmf::shift(sim::Duration offset) const {
  Pmf out = *this;
  if (!out.mass_.empty()) out.origin_ += offset;
  return out;
}

sim::Duration Pmf::mean() const {
  AQUEDUCT_CHECK(!empty());
  double acc = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    if (mass_[i] == 0.0) continue;
    const std::int64_t v =
        origin_.count() + static_cast<std::int64_t>(i) * resolution_.count();
    acc += static_cast<double>(v) * mass_[i];
  }
  return sim::Duration(static_cast<sim::Duration::rep>(acc));
}

sim::Duration Pmf::quantile(double p) const {
  AQUEDUCT_CHECK(!empty());
  AQUEDUCT_CHECK(p > 0.0 && p <= 1.0);
  // First bucket where the cumulative mass crosses the threshold, under the
  // exact predicate the old sequential scan used (`acc + 1e-12 >= p`). The
  // predicate is monotone in the index, so binary search finds the same
  // bucket the scan would return — a nonzero one, since the prefix only
  // crosses at buckets that add mass.
  std::size_t lo = 0;
  std::size_t hi = prefix_.size();  // == size means "never crossed"
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (prefix_[mid] + 1e-12 >= p) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  if (lo == prefix_.size()) lo = prefix_.size() - 1;  // return the max value
  return origin_ + sim::Duration(static_cast<std::int64_t>(lo) *
                                 resolution_.count());
}

std::vector<std::pair<sim::Duration, double>> Pmf::entries() const {
  std::vector<std::pair<sim::Duration, double>> out;
  out.reserve(nonzero_);
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    if (mass_[i] == 0.0) continue;
    out.emplace_back(origin_ + sim::Duration(static_cast<std::int64_t>(i) *
                                             resolution_.count()),
                     mass_[i]);
  }
  return out;
}

}  // namespace aqueduct::core
