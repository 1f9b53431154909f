// Statistics helpers for the experiment harness.
//
// The binomial interval the paper reports for timing failures (95% Wilson,
// Section 6) is obs::wilson_interval in obs/sla.hpp, shared with the live
// SlaMonitor.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace aqueduct::harness {

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
