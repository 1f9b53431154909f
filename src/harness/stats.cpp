#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/sla.hpp"

namespace aqueduct::harness {

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
  // One percentile formula in the repo; the obs exporters use it too.
  return obs::percentile(std::move(values), q);
}

}  // namespace aqueduct::harness
