// Live SLA monitoring against the paper's per-client timeliness contract.
//
// Each client issues reads under a QoS spec <a, d, Pc(d)>: staleness bound
// a, deadline d, and the minimum probability Pc(d) that a read completes
// within d. The probabilistic model (core/selection) *predicts* that
// probability before each read; the SlaMonitor closes the loop by watching
// what actually happened. Per (client, spec) it keeps a rolling window of
// read outcomes and maintains:
//
//   * the observed timing-failure rate with a Wilson score interval,
//   * average/max observed staleness and the age of the last read,
//   * the average selection-attempt count (retries inflate it).
//
// The spec is violated when even the *optimistic* reading of the evidence
// is out of budget: the Wilson lower bound of the failure rate exceeds
// 1 - Pc(d). Transitions into/out of violation emit structured SlaEvents
// through the TraceHub and bump a counter; current values are mirrored to
// gauges (`sla.c<id>.spec<k>.*`) so the snapshot pipeline — and the
// ROADMAP's future closed-loop controller — can read them like any other
// instrument.
//
// Thread-safe: record_read() and statuses() take an internal mutex, so the
// monitor works unchanged under the single-threaded simulator and the
// real-time loop with concurrent observers.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "sim/time.hpp"

namespace aqueduct::obs {

class MetricsRegistry;
class TraceHub;
class Counter;
class Gauge;

/// 95% Wilson score interval for a binomial proportion: the one binomial
/// interval in the repo (live monitor, sweep pooled bounds, examples).
/// Unlike the normal approximation it stays honest for p near 0 or 1 and
/// small n (0 failures in n trials is not [0, 0]).
struct WilsonInterval {
  double lower = 0.0;
  double upper = 0.0;
  double point = 0.0;
};
WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z = 1.96);

/// Interpolated percentile (0 <= q <= 1) of a copy-sorted sample; 0 for
/// empty input. harness::percentile delegates here.
double percentile(std::vector<double> values, double q);

/// The monitored contract. Mirrors core::QoSSpec field-for-field; obs
/// cannot include core (layering), so the caller copies the three values.
struct SlaSpec {
  std::uint64_t staleness_threshold = 0;  ///< a: max versions behind.
  sim::Duration deadline = sim::Duration::zero();  ///< d.
  double min_probability = 1.0;  ///< Pc(d).

  friend bool operator==(const SlaSpec&, const SlaSpec&) = default;
};

struct SlaConfig {
  /// Rolling window: verdicts consider the most recent `window` reads per
  /// (client, spec); older outcomes are evicted.
  std::size_t window = 100;
  /// Critical value for the Wilson interval (1.96 = 95%).
  double z = 1.96;
  /// No violation verdict until the window holds this many reads — a
  /// single early failure is not evidence.
  std::size_t min_samples = 10;
};

/// Point-in-time view of one monitored (client, shard, spec) tuple.
struct SlaStatus {
  net::NodeId client;
  /// Shard tag of the recording handler; -1 = untagged (unsharded client).
  std::int64_t shard = -1;
  std::uint32_t spec_index = 0;  ///< k-th spec seen for this (client, shard).
  SlaSpec spec;
  std::uint64_t total_reads = 0;
  std::uint64_t window_reads = 0;
  std::uint64_t window_failures = 0;
  double failure_rate = 0.0;     ///< window_failures / window_reads.
  double wilson_lower = 0.0;
  double wilson_upper = 0.0;
  double budget = 0.0;           ///< 1 - Pc(d): allowed failure rate.
  bool violating = false;
  std::uint64_t violations = 0;  ///< Transitions into violation so far.
  double avg_attempts = 0.0;     ///< Mean selection attempts over window.
  double avg_staleness = 0.0;    ///< Mean observed staleness over window.
  std::uint64_t max_staleness = 0;
  sim::Duration last_read_age = sim::Duration::zero();  ///< now - last read.
};

/// Emitted through the TraceHub when a (client, spec) pair crosses the
/// violation boundary in either direction.
struct SlaEvent {
  sim::TimePoint at;
  net::NodeId client;
  std::int64_t shard = -1;  ///< -1 = untagged (unsharded client).
  std::uint32_t spec_index = 0;
  bool violating = false;  ///< true: entered violation; false: recovered.
  double failure_rate = 0.0;
  double wilson_lower = 0.0;
  double budget = 0.0;
  std::uint64_t window_reads = 0;
  std::uint64_t window_failures = 0;
};

class SlaMonitor {
 public:
  SlaMonitor(MetricsRegistry& metrics, TraceHub& trace, SlaConfig config = {});

  SlaMonitor(const SlaMonitor&) = delete;
  SlaMonitor& operator=(const SlaMonitor&) = delete;

  /// Records one completed read (successful, deferred, or abandoned).
  /// `timing_failure` is the paper's definition: no acceptable reply
  /// within d. `staleness` is the observed version lag of the reply (0 for
  /// failures). `attempts` counts selection rounds (1 = no retry).
  /// `shard` tags the recording handler's shard in a sharded service
  /// (gauges become `sla.c<id>.s<shard>.spec<k>.*`); the default -1 keeps
  /// the unsharded key and gauge names bit-for-bit.
  void record_read(net::NodeId client, const SlaSpec& spec, sim::TimePoint now,
                   bool timing_failure, std::uint64_t staleness,
                   std::uint32_t attempts, std::int64_t shard = -1);

  /// All monitored tuples, ordered by (client, shard, spec_index).
  std::vector<SlaStatus> statuses(sim::TimePoint now) const;

  /// Total transitions into violation across all pairs.
  std::uint64_t total_violations() const;

  std::size_t num_tracked() const;
  const SlaConfig& config() const { return config_; }

 private:
  struct Sample {
    bool failure = false;
    std::uint32_t attempts = 1;
    std::uint64_t staleness = 0;
  };
  struct Entry {
    std::uint32_t spec_index = 0;
    SlaSpec spec;
    std::vector<Sample> ring;   // capacity config_.window, filled lazily
    std::size_t next = 0;       // ring insertion cursor
    std::uint64_t total_reads = 0;
    std::uint64_t window_failures = 0;
    std::uint64_t window_attempts = 0;
    std::uint64_t window_staleness = 0;
    sim::TimePoint last_read;
    bool violating = false;
    std::uint64_t violations = 0;
    // Mirrored instruments, resolved once at first record.
    Gauge* g_failure_rate = nullptr;
    Gauge* g_wilson_lower = nullptr;
    Gauge* g_violating = nullptr;
    Gauge* g_avg_staleness = nullptr;
    Gauge* g_avg_attempts = nullptr;
  };

  /// Monitoring key. Ordered so statuses() lists by (client, shard, spec);
  /// `shard` is -1 for unsharded clients, keeping their keys and gauge
  /// names identical to the pre-shard monitor.
  struct Key {
    net::NodeId client;
    std::int64_t shard = -1;
    std::uint32_t spec_index = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  SlaStatus status_of(const Entry& e, const Key& key,
                      sim::TimePoint now) const;

  MetricsRegistry& metrics_;
  TraceHub& trace_;
  SlaConfig config_;
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  Counter* violations_total_ = nullptr;
};

}  // namespace aqueduct::obs
