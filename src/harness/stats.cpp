#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>

#include "obs/sla.hpp"
#include "sim/check.hpp"

namespace aqueduct::harness {

ConfidenceInterval binomial_ci_wilson(std::uint64_t successes,
                                      std::uint64_t trials, double z) {
  // One Wilson formula in the repo: the live SlaMonitor and the offline
  // harness must agree bit-for-bit, so this delegates to the obs layer.
  const obs::WilsonInterval w = obs::wilson_interval(successes, trials, z);
  ConfidenceInterval ci;
  ci.lower = w.lower;
  ci.upper = w.upper;
  ci.point = w.point;
  return ci;
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  double sum = 0.0;
  s.min = values.front();
  s.max = values.front();
  for (const double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(values.size());
  double sq = 0.0;
  for (const double v : values) sq += (v - s.mean) * (v - s.mean);
  s.stddev = values.size() > 1
                 ? std::sqrt(sq / static_cast<double>(values.size() - 1))
                 : 0.0;
  return s;
}

double percentile(std::vector<double> values, double q) {
  AQUEDUCT_CHECK(q >= 0.0 && q <= 1.0);
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace aqueduct::harness
