// Unit suite for the SlaMonitor (src/obs/sla): the live check of the
// paper's per-client QoS contract <a, d, Pc(d)>.
//
// The pivotal property: a violation fires at exactly the read where the
// Wilson lower bound of the windowed timing-failure rate first exceeds the
// budget 1 - Pc(d) — recomputed here from the window's counts through
// obs::wilson_interval, the one Wilson formula in the repo.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "net/node.hpp"
#include "obs/metrics.hpp"
#include "obs/sla.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace aqueduct {
namespace {

using std::chrono::milliseconds;

const net::NodeId kClient1{1};
const net::NodeId kClient2{2};

obs::SlaSpec strict_spec() {
  return obs::SlaSpec{.staleness_threshold = 1,
                      .deadline = milliseconds(150),
                      .min_probability = 0.9};
}

obs::SlaSpec relaxed_spec() {
  return obs::SlaSpec{.staleness_threshold = 4,
                      .deadline = milliseconds(250),
                      .min_probability = 0.5};
}

sim::TimePoint at_ms(double ms) { return sim::kEpoch + sim::from_ms(ms); }

/// Captures SlaEvents from the hub.
class EventCapture final : public obs::TraceSink {
 public:
  void on_sla(const obs::SlaEvent& e) override { events.push_back(e); }
  std::vector<obs::SlaEvent> events;
};

struct Fixture {
  obs::MetricsRegistry metrics;
  obs::TraceHub trace;
  EventCapture capture;

  Fixture() { trace.add(&capture); }
};

// ---------------------------------------------------------------------------
// wilson_interval
// ---------------------------------------------------------------------------

TEST(WilsonInterval, ZeroTrialsIsVacuous) {
  const auto ci = obs::wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_DOUBLE_EQ(ci.point, 0.0);
}

// ---------------------------------------------------------------------------
// Violation boundary
// ---------------------------------------------------------------------------

TEST(SlaMonitor, NoVerdictBelowMinSamples) {
  Fixture f;
  obs::SlaMonitor monitor(f.metrics, f.trace,
                          {.window = 50, .min_samples = 10});
  // 9 straight failures: catastrophic evidence, but below min_samples no
  // verdict may fire.
  for (int i = 0; i < 9; ++i) {
    monitor.record_read(kClient1, strict_spec(), at_ms(i * 10.0),
                        /*timing_failure=*/true, /*staleness=*/0,
                        /*attempts=*/2);
  }
  const auto statuses = monitor.statuses(at_ms(100));
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_FALSE(statuses[0].violating);
  EXPECT_EQ(monitor.total_violations(), 0u);
  EXPECT_TRUE(f.capture.events.empty());
}

TEST(SlaMonitor, ViolationFiresExactlyAtTheWilsonCrossing) {
  Fixture f;
  const obs::SlaConfig config{.window = 200, .z = 1.96, .min_samples = 10};
  obs::SlaMonitor monitor(f.metrics, f.trace, config);
  const obs::SlaSpec spec = strict_spec();  // budget = 1 - 0.9 = 0.1
  const double budget = 1.0 - spec.min_probability;

  // Interleave 1 failure per 4 reads (25% rate, above the 10% budget, so
  // the lower bound must cross eventually). Find the exact read where the
  // independently computed Wilson lower bound first exceeds the budget
  // with >= min_samples in the window.
  std::uint64_t failures = 0;
  std::size_t expected_crossing = 0;
  for (std::size_t n = 1; n <= 100; ++n) {
    const bool fail = (n % 4 == 0);
    if (fail) ++failures;
    const auto ci = obs::wilson_interval(failures, n, config.z);
    if (n >= config.min_samples && ci.lower > budget) {
      expected_crossing = n;
      break;
    }
  }
  ASSERT_GT(expected_crossing, 0u) << "pattern never crosses — bad test";

  failures = 0;
  for (std::size_t n = 1; n <= expected_crossing; ++n) {
    const bool fail = (n % 4 == 0);
    monitor.record_read(kClient1, spec, at_ms(n * 10.0), fail,
                        /*staleness=*/fail ? 0 : 1, /*attempts=*/1);
    const bool violating = monitor.statuses(at_ms(n * 10.0))[0].violating;
    if (n < expected_crossing) {
      EXPECT_FALSE(violating) << "fired early at read " << n;
    } else {
      EXPECT_TRUE(violating) << "did not fire at read " << n;
    }
  }
  EXPECT_EQ(monitor.total_violations(), 1u);
  ASSERT_EQ(f.capture.events.size(), 1u);
  const auto& e = f.capture.events[0];
  EXPECT_TRUE(e.violating);
  EXPECT_EQ(e.client, kClient1);
  EXPECT_EQ(e.window_reads, expected_crossing);
  EXPECT_GT(e.wilson_lower, budget);
  EXPECT_DOUBLE_EQ(e.budget, budget);
  // The violation transition bumped the shared counter.
  EXPECT_EQ(f.metrics.counter("sla.violations").value(), 1u);
}

TEST(SlaMonitor, WindowEvictionClearsTheViolation) {
  Fixture f;
  obs::SlaMonitor monitor(f.metrics, f.trace,
                          {.window = 20, .min_samples = 10});
  const obs::SlaSpec spec = strict_spec();

  // 20 straight failures: deep violation.
  double t = 0;
  for (int i = 0; i < 20; ++i) {
    monitor.record_read(kClient1, spec, at_ms(t += 10), true, 0, 3);
  }
  EXPECT_TRUE(monitor.statuses(at_ms(t))[0].violating);
  EXPECT_EQ(monitor.total_violations(), 1u);

  // 20 straight successes evict every failure from the ring; the lower
  // bound collapses to 0 and the pair must recover.
  for (int i = 0; i < 20; ++i) {
    monitor.record_read(kClient1, spec, at_ms(t += 10), false, 1, 1);
  }
  const auto status = monitor.statuses(at_ms(t))[0];
  EXPECT_FALSE(status.violating);
  EXPECT_EQ(status.window_failures, 0u);
  EXPECT_EQ(status.window_reads, 20u);
  EXPECT_EQ(status.total_reads, 40u);
  // One entry transition + one recovery transition, violations stays 1.
  EXPECT_EQ(monitor.total_violations(), 1u);
  ASSERT_EQ(f.capture.events.size(), 2u);
  EXPECT_TRUE(f.capture.events[0].violating);
  EXPECT_FALSE(f.capture.events[1].violating);
}

// ---------------------------------------------------------------------------
// Bookkeeping
// ---------------------------------------------------------------------------

TEST(SlaMonitor, PairsAreTrackedPerClientAndSpec) {
  Fixture f;
  obs::SlaMonitor monitor(f.metrics, f.trace);
  monitor.record_read(kClient1, strict_spec(), at_ms(10), false, 0, 1);
  monitor.record_read(kClient1, relaxed_spec(), at_ms(20), true, 2, 2);
  monitor.record_read(kClient2, strict_spec(), at_ms(30), false, 1, 1);
  EXPECT_EQ(monitor.num_tracked(), 3u);

  const auto statuses = monitor.statuses(at_ms(40));
  ASSERT_EQ(statuses.size(), 3u);
  // Ordered by (client, spec_index).
  EXPECT_EQ(statuses[0].client, kClient1);
  EXPECT_EQ(statuses[0].spec_index, 0u);
  EXPECT_EQ(statuses[0].spec, strict_spec());
  EXPECT_EQ(statuses[1].client, kClient1);
  EXPECT_EQ(statuses[1].spec_index, 1u);
  EXPECT_EQ(statuses[1].spec, relaxed_spec());
  EXPECT_EQ(statuses[2].client, kClient2);
  EXPECT_EQ(statuses[2].spec_index, 0u);
  // Independent windows.
  EXPECT_EQ(statuses[0].window_failures, 0u);
  EXPECT_EQ(statuses[1].window_failures, 1u);
  // last_read_age = now - last record time.
  EXPECT_EQ(statuses[2].last_read_age, sim::from_ms(10));
}

TEST(SlaMonitor, RollingAveragesAndMaxStaleness) {
  Fixture f;
  obs::SlaMonitor monitor(f.metrics, f.trace, {.window = 4});
  const obs::SlaSpec spec = relaxed_spec();
  monitor.record_read(kClient1, spec, at_ms(10), false, 1, 1);
  monitor.record_read(kClient1, spec, at_ms(20), false, 3, 2);
  monitor.record_read(kClient1, spec, at_ms(30), false, 2, 1);
  auto s = monitor.statuses(at_ms(30))[0];
  EXPECT_DOUBLE_EQ(s.avg_staleness, 2.0);
  EXPECT_DOUBLE_EQ(s.avg_attempts, 4.0 / 3.0);
  EXPECT_EQ(s.max_staleness, 3u);

  // Two more reads evict the first (window 4): staleness {3,2,0,4}.
  monitor.record_read(kClient1, spec, at_ms(40), false, 0, 1);
  monitor.record_read(kClient1, spec, at_ms(50), false, 4, 3);
  s = monitor.statuses(at_ms(50))[0];
  EXPECT_EQ(s.window_reads, 4u);
  EXPECT_DOUBLE_EQ(s.avg_staleness, 9.0 / 4.0);
  EXPECT_EQ(s.max_staleness, 4u);
}

TEST(SlaMonitor, GaugesMirrorTheWindowState) {
  Fixture f;
  obs::SlaMonitor monitor(f.metrics, f.trace,
                          {.window = 10, .min_samples = 2});
  const obs::SlaSpec spec = strict_spec();
  monitor.record_read(kClient1, spec, at_ms(10), true, 0, 1);
  monitor.record_read(kClient1, spec, at_ms(20), true, 0, 1);

  ASSERT_TRUE(f.metrics.contains("sla.c1.spec0.failure_rate"));
  EXPECT_DOUBLE_EQ(f.metrics.gauge("sla.c1.spec0.failure_rate").value(), 1.0);
  EXPECT_GT(f.metrics.gauge("sla.c1.spec0.wilson_lower").value(), 0.1);
  EXPECT_DOUBLE_EQ(f.metrics.gauge("sla.c1.spec0.violating").value(), 1.0);
  EXPECT_DOUBLE_EQ(f.metrics.gauge("sla.c1.spec0.avg_staleness").value(), 0.0);
  EXPECT_DOUBLE_EQ(f.metrics.gauge("sla.c1.spec0.avg_attempts").value(), 1.0);
}

}  // namespace
}  // namespace aqueduct
