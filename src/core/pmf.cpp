#include "core/pmf.hpp"


#include "sim/check.hpp"

namespace aqueduct::core {

namespace {

/// Widest dense grid a single pmf may occupy. Response-time values are
/// bounded (milliseconds to seconds) and resolutions are >= 100us in every
/// model configuration, so real spans are a few hundred buckets; hitting
/// this cap means a caller picked a resolution wildly too fine for its
/// value range and would silently burn memory.
constexpr std::size_t kMaxSpan = std::size_t{1} << 22;

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
