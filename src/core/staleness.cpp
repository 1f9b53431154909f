#include "core/staleness.hpp"

#include <cmath>

#include "sim/check.hpp"

namespace aqueduct::core {

double poisson_cdf(double mean, std::uint64_t a) {
  AQUEDUCT_CHECK(mean >= 0.0);
  if (mean == 0.0) return 1.0;
  // Sum terms in log space to stay stable for large means.
  const double log_mean = std::log(mean);
  double acc = 0.0;
  int sign = 0;  // lgamma_r, unlike std::lgamma, writes no global signgam
  for (std::uint64_t n = 0; n <= a; ++n) {
    acc += std::exp(-mean + static_cast<double>(n) * log_mean -
                    lgamma_r(static_cast<double>(n) + 1.0, &sign));
  }
  return acc > 1.0 ? 1.0 : acc;
}

EmpiricalStalenessModel::EmpiricalStalenessModel(std::vector<sim::Duration> gaps,
                                                 std::uint64_t seed,
                                                 std::size_t resamples)
    : gaps_(std::move(gaps)), rng_(seed), resamples_(resamples) {
  AQUEDUCT_CHECK(resamples_ > 0);
}

double EmpiricalStalenessModel::staleness_factor(Staleness a,
                                                 sim::Duration elapsed) const {
  if (gaps_.empty()) {
    // No observed updates at all: the secondary state cannot be stale.
    return 1.0;
  }
  std::size_t within = 0;
  for (std::size_t i = 0; i < resamples_; ++i) {
    // Count how many resampled arrivals fit inside `elapsed`.
    sim::Duration t = sim::Duration::zero();
    std::uint64_t count = 0;
    while (count <= a) {
      t += gaps_[rng_.uniform_int(gaps_.size())];
      if (t > elapsed) break;
      ++count;
    }
    if (count <= a) ++within;
  }
  return static_cast<double>(within) / static_cast<double>(resamples_);
}

}  // namespace aqueduct::core
