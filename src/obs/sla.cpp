#include "obs/sla.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/check.hpp"

namespace aqueduct::obs {

WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z) {
  WilsonInterval ci;
  if (trials == 0) return ci;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  ci.point = p;
  ci.lower = std::max(0.0, center - half);
  ci.upper = std::min(1.0, center + half);
  return ci;
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

SlaMonitor::SlaMonitor(MetricsRegistry& metrics, TraceHub& trace,
                       SlaConfig config)
    : metrics_(metrics), trace_(trace), config_(config) {
  AQUEDUCT_CHECK_MSG(config_.window > 0, "SLA window must be non-empty");
  violations_total_ = &metrics_.counter("sla.violations");
}

void SlaMonitor::record_read(net::NodeId client, const SlaSpec& spec,
                             sim::TimePoint now, bool timing_failure,
                             std::uint64_t staleness, std::uint32_t attempts,
                             std::int64_t shard) {
  const std::lock_guard<std::mutex> lock(mu_);

  // Find the entry for (client, shard, spec); specs per handler are few, so
  // a scan over its registrations is cheaper than hashing the spec.
  Entry* entry = nullptr;
  std::uint32_t next_index = 0;
  for (auto it = entries_.lower_bound(Key{client, shard, 0});
       it != entries_.end() && it->first.client == client &&
       it->first.shard == shard;
       ++it) {
    if (it->second.spec == spec) {
      entry = &it->second;
      break;
    }
    next_index = it->first.spec_index + 1;
  }
  if (entry == nullptr) {
    Entry fresh;
    fresh.spec_index = next_index;
    fresh.spec = spec;
    fresh.ring.reserve(config_.window);
    // Untagged handlers keep the pre-shard gauge names bit-for-bit.
    const std::string shard_tag =
        shard < 0 ? "" : ".s" + std::to_string(shard);
    const std::string prefix = "sla.c" + std::to_string(client.value()) +
                               shard_tag + ".spec" +
                               std::to_string(next_index) + ".";
    fresh.g_failure_rate = &metrics_.gauge(prefix + "failure_rate");
    fresh.g_wilson_lower = &metrics_.gauge(prefix + "wilson_lower");
    fresh.g_violating = &metrics_.gauge(prefix + "violating");
    fresh.g_avg_staleness = &metrics_.gauge(prefix + "avg_staleness");
    fresh.g_avg_attempts = &metrics_.gauge(prefix + "avg_attempts");
    entry = &entries_.emplace(Key{client, shard, next_index},
                              std::move(fresh)).first->second;
  }
  Entry& e = *entry;

  const Sample sample{timing_failure, attempts, staleness};
  if (e.ring.size() < config_.window) {
    e.ring.push_back(sample);
  } else {
    const Sample& old = e.ring[e.next];  // evict the oldest outcome
    e.window_failures -= old.failure ? 1 : 0;
    e.window_attempts -= old.attempts;
    e.window_staleness -= old.staleness;
    e.ring[e.next] = sample;
  }
  e.next = (e.next + 1) % config_.window;
  e.window_failures += timing_failure ? 1 : 0;
  e.window_attempts += attempts;
  e.window_staleness += staleness;
  ++e.total_reads;
  e.last_read = now;

  const std::uint64_t window_reads = e.ring.size();
  const WilsonInterval ci =
      wilson_interval(e.window_failures, window_reads, config_.z);
  const double budget = 1.0 - e.spec.min_probability;
  const bool violating_now =
      window_reads >= config_.min_samples && ci.lower > budget;

  if (violating_now != e.violating) {
    if (violating_now) {
      ++e.violations;
      violations_total_->inc();
    }
    e.violating = violating_now;
    if (trace_.active()) {
      SlaEvent event;
      event.at = now;
      event.client = client;
      event.shard = shard;
      event.spec_index = e.spec_index;
      event.violating = violating_now;
      event.failure_rate = ci.point;
      event.wilson_lower = ci.lower;
      event.budget = budget;
      event.window_reads = window_reads;
      event.window_failures = e.window_failures;
      trace_.sla(event);
    }
  }

  const double n = static_cast<double>(window_reads);
  e.g_failure_rate->set(ci.point);
  e.g_wilson_lower->set(ci.lower);
  e.g_violating->set(e.violating ? 1.0 : 0.0);
  e.g_avg_staleness->set(static_cast<double>(e.window_staleness) / n);
  e.g_avg_attempts->set(static_cast<double>(e.window_attempts) / n);
}

SlaStatus SlaMonitor::status_of(const Entry& e, const Key& key,
                                sim::TimePoint now) const {
  SlaStatus s;
  s.client = key.client;
  s.shard = key.shard;
  s.spec_index = e.spec_index;
  s.spec = e.spec;
  s.total_reads = e.total_reads;
  s.window_reads = e.ring.size();
  s.window_failures = e.window_failures;
  const WilsonInterval ci =
      wilson_interval(e.window_failures, s.window_reads, config_.z);
  s.failure_rate = ci.point;
  s.wilson_lower = ci.lower;
  s.wilson_upper = ci.upper;
  s.budget = 1.0 - e.spec.min_probability;
  s.violating = e.violating;
  s.violations = e.violations;
  if (!e.ring.empty()) {
    const double n = static_cast<double>(e.ring.size());
    s.avg_attempts = static_cast<double>(e.window_attempts) / n;
    s.avg_staleness = static_cast<double>(e.window_staleness) / n;
    for (const Sample& sample : e.ring) {
      s.max_staleness = std::max(s.max_staleness, sample.staleness);
    }
    s.last_read_age = now - e.last_read;
  }
  return s;
}

std::vector<SlaStatus> SlaMonitor::statuses(sim::TimePoint now) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SlaStatus> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    out.push_back(status_of(entry, key, now));
  }
  return out;
}

std::uint64_t SlaMonitor::total_violations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, entry] : entries_) total += entry.violations;
  return total;
}

std::size_t SlaMonitor::num_tracked() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace aqueduct::obs
