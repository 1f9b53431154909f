#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json.hpp"
#include "sim/check.hpp"

namespace aqueduct::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_latency_bounds_ms();
  AQUEDUCT_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                     "histogram bounds must be sorted");
  buckets_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::buckets() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::quantile(double q) const {
  AQUEDUCT_CHECK(q >= 0.0 && q <= 1.0);
  const std::vector<std::uint64_t> snap = buckets();
  std::uint64_t total = 0;
  for (const std::uint64_t c : snap) total += c;
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const std::uint64_t next = cumulative + snap[i];
    if (static_cast<double>(next) >= target && snap[i] > 0) {
      if (i >= bounds_.size()) return bounds_.back();  // overflow bucket
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double frac =
          (target - static_cast<double>(cumulative)) / static_cast<double>(snap[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds_.back();
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t count) {
  AQUEDUCT_CHECK_MSG(start > 0.0 && factor > 1.0 && count > 0,
                     "exponential_bounds requires start > 0, factor > 1, count > 0");
  std::vector<double> bounds;
  bounds.reserve(count);
  double b = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

std::vector<double> default_latency_bounds_ms() {
  // 0.1 ms .. ~28.6 s in 40 log-spaced buckets (~2.9 buckets per octave).
  return Histogram::exponential_bounds(0.1, 1.38, 40);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst = instruments_[name];
  if (!inst.counter) {
    AQUEDUCT_CHECK_MSG(!inst.gauge && !inst.histogram,
                       "metric name registered with a different kind");
    inst.counter = std::make_unique<Counter>();
  }
  return *inst.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst = instruments_[name];
  if (!inst.gauge) {
    AQUEDUCT_CHECK_MSG(!inst.counter && !inst.histogram,
                       "metric name registered with a different kind");
    inst.gauge = std::make_unique<Gauge>();
  }
  return *inst.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  Instrument& inst = instruments_[name];
  if (!inst.histogram) {
    AQUEDUCT_CHECK_MSG(!inst.counter && !inst.gauge,
                       "metric name registered with a different kind");
    inst.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *inst.histogram;
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return instruments_.size();
}

bool MetricsRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return instruments_.contains(name);
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w(os);
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, inst] : instruments_) {
    if (inst.counter) w.field(name, inst.counter->value());
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, inst] : instruments_) {
    if (inst.gauge) w.field(name, inst.gauge->value());
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, inst] : instruments_) {
    if (!inst.histogram) continue;
    const Histogram& h = *inst.histogram;
    w.key(name);
    w.begin_object();
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("p50", h.quantile(0.50));
    w.field("p95", h.quantile(0.95));
    w.field("p99", h.quantile(0.99));
    w.key("bounds");
    w.begin_array();
    for (const double b : h.bounds()) w.element(b);
    w.end_array();
    w.key("buckets");
    w.begin_array();
    for (const std::uint64_t c : h.buckets()) w.element(c);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace aqueduct::obs
