#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/check.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace aqueduct::sim {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

TEST(Time, Conversions) {
  EXPECT_DOUBLE_EQ(to_ms(milliseconds(250)), 250.0);
  EXPECT_DOUBLE_EQ(to_sec(seconds(3)), 3.0);
  EXPECT_EQ(from_ms(1.5), std::chrono::microseconds(1500));
  EXPECT_EQ(from_sec(0.25), milliseconds(250));
}

TEST(Time, Format) {
  EXPECT_EQ(format(std::chrono::nanoseconds(5)), "5ns");
  EXPECT_EQ(format(milliseconds(100)), "100.000ms");
  EXPECT_EQ(format(seconds(61)), "61.000s");
}

TEST(EventQueue, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.after(milliseconds(30), [&] { order.push_back(3); });
  sim.after(milliseconds(10), [&] { order.push_back(1); });
  sim.after(milliseconds(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.after(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto handle = sim.after(milliseconds(5), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(handle));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  Simulator sim;
  auto handle = sim.after(milliseconds(5), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(handle));
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  Simulator sim;
  auto handle = sim.after(milliseconds(5), [] {});
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_FALSE(sim.cancel(handle));
}

TEST(EventQueue, EmptyHandleCancelIsNoop) {
  Simulator sim;
  EventHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_FALSE(sim.cancel(handle));
}

// Counts copies of itself; moves are free.
struct CopyCounter {
  int* copies;
  explicit CopyCounter(int* c) : copies(c) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) = default;
  void operator()() const {}
};

TEST(EventQueue, PopMovesTheCallback) {
  EventQueue queue;
  int copies = 0;
  queue.schedule(kEpoch + milliseconds(1), CopyCounter(&copies));
  queue.schedule(kEpoch + milliseconds(2), CopyCounter(&copies));
  copies = 0;  // only what the queue does from here on counts
  while (!queue.empty()) queue.pop().second();
  EXPECT_EQ(copies, 0);
}

TEST(EventQueue, CancelReleasesCapturesAtOnce) {
  EventQueue queue;
  auto token = std::make_shared<int>(0);
  const auto handle =
      queue.schedule(kEpoch + milliseconds(5), [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, FiredHandleNeverCancelsALaterEventAtTheSameTime) {
  Simulator sim;
  const TimePoint t = kEpoch + milliseconds(5);
  const auto fired = sim.at(t, [] {});
  sim.run();
  bool later_fired = false;
  sim.at(t, [&] { later_fired = true; });
  EXPECT_FALSE(sim.cancel(fired));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_TRUE(later_fired);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  TimePoint seen{};
  sim.after(milliseconds(42), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, kEpoch + milliseconds(42));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.after(milliseconds(10), [&] { ++fired; });
  sim.after(milliseconds(30), [&] { ++fired; });
  sim.run_until(kEpoch + milliseconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), kEpoch + milliseconds(20));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunForAdvancesEvenWithoutEvents) {
  Simulator sim;
  sim.run_for(seconds(5));
  EXPECT_EQ(sim.now(), kEpoch + seconds(5));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.after(milliseconds(1), recurse);
  };
  sim.after(milliseconds(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), kEpoch + milliseconds(5));
}

TEST(Simulator, StopBreaksRun) {
  Simulator sim;
  int fired = 0;
  sim.after(milliseconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.after(milliseconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.after(milliseconds(10), [] {});
  sim.run();
  EXPECT_THROW(sim.at(kEpoch + milliseconds(5), [] {}), InvariantViolation);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.after(milliseconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

// --- randomness --------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, SplitStreamsDiffer) {
  Rng parent(1);
  Rng a(parent.split()), b(parent.split());
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(1000) == b.uniform_int(1000)) ++same;
  }
  EXPECT_LT(same, 10);
}

TEST(Rng, NormalDurationTruncatesAtFloor) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const Duration d =
        rng.normal_duration(milliseconds(1), milliseconds(100));
    EXPECT_GE(d, Duration::zero());
  }
}

TEST(Rng, NormalMeanApproximatelyCorrect) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(100.0, 10.0);
  EXPECT_NEAR(sum / n, 100.0, 0.5);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  Duration total = Duration::zero();
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.exponential_duration(milliseconds(50));
  EXPECT_NEAR(to_ms(total) / n, 50.0, 2.0);
}

TEST(Rng, PoissonMean) {
  Rng rng(13);
  long total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.poisson(4.0);
  EXPECT_NEAR(static_cast<double>(total) / n, 4.0, 0.1);
}

TEST(Rng, UniformIntInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_int(7), 7u);
}

TEST(DurationDistributions, FixedAlwaysSame) {
  FixedDuration dist(milliseconds(3));
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(dist.sample(rng), milliseconds(3));
  EXPECT_EQ(dist.mean(), milliseconds(3));
}

TEST(DurationDistributions, EmpiricalSamplesFromSet) {
  EmpiricalDuration dist({milliseconds(1), milliseconds(2), milliseconds(3)});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const Duration d = dist.sample(rng);
    EXPECT_TRUE(d == milliseconds(1) || d == milliseconds(2) ||
                d == milliseconds(3));
  }
  EXPECT_EQ(dist.mean(), milliseconds(2));
}

TEST(DurationDistributions, NormalMeanReported) {
  NormalDuration dist(milliseconds(100), milliseconds(50));
  EXPECT_EQ(dist.mean(), milliseconds(100));
}

// Determinism across the whole simulator: same seed, same trajectory.
TEST(Simulator, FullyDeterministic) {
  auto trace = [](std::uint64_t seed) {
    Simulator sim(seed);
    std::vector<double> values;
    for (int i = 0; i < 20; ++i) {
      sim.after(milliseconds(i * 3), [&] { values.push_back(sim.rng().uniform()); });
    }
    sim.run();
    return values;
  };
  EXPECT_EQ(trace(5), trace(5));
  EXPECT_NE(trace(5), trace(6));
}

}  // namespace
}  // namespace aqueduct::sim
