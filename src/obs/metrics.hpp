// Unified metrics registry for the whole stack.
//
// Every layer (sim, net, gcs, replication, client, harness) registers named
// instruments here. The registry owns the instrument storage; components
// hold references obtained at construction time, so the hot-path cost of
// an increment is one relaxed atomic add. Instruments are aggregated by
// name: two components asking for the same counter share one cell, which
// is exactly what fleet-level metrics want. The protocol layers' event
// counters also have a per-instance view, their components' `stats()`:
// each stats struct lists its fields once, and obs::MirroredStats
// (obs/mirrored_stats.hpp) binds every counter field to the registry
// counter named after it, so one call bumps both.
//
// Concurrency contract (the registry is shared by the real-time event loop,
// client threads, the sweep coordinator, and the telemetry snapshotter):
//   * Instrument lookup/creation and registry iteration are guarded by an
//     internal mutex. References returned by counter()/gauge()/histogram()
//     stay valid for the registry's lifetime (map nodes + unique_ptr), so
//     components resolve names once at construction and never lock again.
//   * Increments and observations are lock-free relaxed atomics. Under the
//     single-threaded simulator the fast path is still one relaxed add —
//     uncontended and as cheap as the old plain-integer version.
//   * Reads (value(), snapshots, write_json) are safe at any time. Under
//     concurrent writers a snapshot is eventually consistent per instrument
//     (a histogram's count/sum/buckets may be mid-update relative to each
//     other); under a single writer — the simulator — it is exact.
// Iteration order is deterministic (std::map), and a JSON exporter provides
// machine-readable end-of-run dumps.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace aqueduct::obs {

struct MetricsSnapshot;

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: counts of observations falling at or below each
/// upper bound, plus an implicit overflow bucket. Bounds are chosen at
/// registration time, immutable afterwards, and shared by every component
/// using the name. Writers are lock-free (per-bucket relaxed atomics);
/// the bucket array is sized once at construction and never reallocated,
/// so concurrent observe() calls never race with resizing.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Snapshot of the bucket counts; buckets().size() == bounds().size() + 1
  /// and the last entry is overflow. Returned by value: the live cells are
  /// atomics that concurrent writers keep advancing.
  std::vector<std::uint64_t> buckets() const;

  /// Bucket-interpolated quantile estimate (0 <= q <= 1). Returns 0 when
  /// empty. Values beyond the last bound are reported as the last bound.
  /// Operates on one coherent snapshot of the buckets.
  double quantile(double q) const;

  /// Log-spaced upper bounds: start, start*factor, start*factor^2, ...
  /// (`count` entries). The natural shape for latency data, where relative
  /// resolution matters more than absolute. Requires start > 0, factor > 1.
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t count);

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram bounds for latencies measured in milliseconds:
/// 40 log-spaced buckets from 0.1 ms to ~30 s (factor ~1.38).
std::vector<double> default_latency_bounds_ms();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument registered under `name`, creating it on first
  /// use. Asking for an existing name with a different instrument kind is a
  /// programming error and aborts. Thread-safe; the returned reference is
  /// stable for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is consulted only when the histogram is created; later calls
  /// reuse the original buckets.
  Histogram& histogram(const std::string& name, std::vector<double> bounds = {});

  std::size_t size() const;
  bool contains(const std::string& name) const;

  /// One coherent, name-sorted copy of every instrument's current value.
  /// Defined in snapshot.cpp; see obs/snapshot.hpp for the record layout.
  MetricsSnapshot snapshot() const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Deterministic (name-sorted) field order.
  void write_json(std::ostream& os) const;

 private:
  struct Instrument {
    // Exactly one is non-null.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  mutable std::mutex mu_;
  std::map<std::string, Instrument> instruments_;
};

}  // namespace aqueduct::obs
