// Statistics helpers for the experiment harness.
//
// The paper reports 95% confidence intervals computed under the assumption
// that the number of timing failures follows a binomial distribution
// (Section 6, citing Johnson, Kotz & Kemp).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace aqueduct::harness {

struct ConfidenceInterval {
  double lower = 0.0;
  double upper = 0.0;
  double point = 0.0;
};

/// Wilson score interval: the one binomial interval the harness reports.
/// Unlike the normal approximation it stays honest for p near 0 or 1 and
/// small n (0 failures in n trials is not [0, 0]).
ConfidenceInterval binomial_ci_wilson(std::uint64_t successes,
                                      std::uint64_t trials, double z = 1.96);

struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

Summary summarize(const std::vector<double>& values);

/// Percentile (0 <= q <= 1) of a copy-sorted sample; 0 for empty input.
double percentile(std::vector<double> values, double q);

}  // namespace aqueduct::harness
