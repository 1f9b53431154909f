// Determinism and fault-tolerance suite for the parallel sweep engine.
//
// The engine's contract (runner/sweep.hpp): a sweep's merged output is a
// pure function of the SweepSpec — byte-identical JSON for any thread
// count, with a `threads = 1` run as the oracle — and a throwing unit
// becomes a failed row, never a hung or torn sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/stats.hpp"
#include "obs/metrics.hpp"
#include "runner/plans.hpp"
#include "runner/sweep.hpp"

namespace aqueduct {
namespace {

/// Synthetic unit body: a cheap, fully deterministic function of the seed
/// that exercises values, counters, and samples.
runner::SeedRecord synthetic_run(const runner::Unit& unit) {
  runner::SeedRecord rec;
  rec.value("phase", static_cast<double>(unit.seed % 7) / 7.0);
  rec.counter("failures", unit.seed % 3);
  rec.counter("trials", 10 + unit.seed % 5);
  std::vector<double> samples;
  for (std::uint64_t i = 0; i < 20; ++i) {
    samples.push_back(std::fmod(static_cast<double>(unit.seed * 37 + i * 11),
                                100.0));
  }
  rec.sample("latency", std::move(samples));
  return rec;
}

runner::SweepSpec synthetic_spec(std::size_t units, std::size_t threads) {
  runner::SweepSpec spec;
  spec.name = "synthetic";
  spec.threads = threads;
  for (std::size_t i = 0; i < units; ++i) {
    spec.units.push_back(runner::Unit{
        .label = "seed_" + std::to_string(100 + i),
        .seed = 100 + i,
        .point = 0,
    });
  }
  spec.run = synthetic_run;
  spec.binomials = {{"failure_rate", "failures", "trials"}};
  return spec;
}

TEST(SweepDeterminism, ByteIdenticalJsonAcrossThreadCounts) {
  const auto oracle_spec = synthetic_spec(10, 1);
  const auto oracle =
      runner::sweep_json(oracle_spec, runner::run_sweep(oracle_spec));
  for (const std::size_t threads : {2, 8}) {
    const auto spec = synthetic_spec(10, threads);
    const auto json = runner::sweep_json(spec, runner::run_sweep(spec));
    EXPECT_EQ(oracle, json) << "threads=" << threads;
  }
}

// The real thing: full scenario runs (simulator, network, GCS, replicas)
// through the chaos plan must also be thread-count invariant — this is
// the shared-nothing audit as an executable check. Hidden cross-run state
// (a process-wide counter, a shared RNG) would show up here as divergent
// bytes even when no data race is detected.
TEST(SweepDeterminism, ScenarioPlanByteIdenticalAcrossThreadCounts) {
  const runner::Plan* plan = runner::find_plan("chaos");
  ASSERT_NE(plan, nullptr);
  const auto spec1 = runner::make_spec(*plan, 1, 4, 1, /*requests=*/40);
  const auto spec4 = runner::make_spec(*plan, 1, 4, 4, /*requests=*/40);
  const auto json1 = runner::sweep_json(spec1, runner::run_sweep(spec1));
  const auto json4 = runner::sweep_json(spec4, runner::run_sweep(spec4));
  EXPECT_EQ(json1, json4);
}

TEST(SweepDeterminism, MergeOrderFollowsUnitOrderNotCompletionOrder) {
  // Make early units slow: if the merge followed completion order, rows
  // would come back reversed under parallelism.
  runner::SweepSpec spec = synthetic_spec(8, 8);
  spec.run = [](const runner::Unit& unit) {
    if (unit.seed < 104) {
      // Busy-wait long enough that later (cheap) units finish first.
      volatile double sink = 0.0;
      for (int i = 0; i < 2000000; ++i) sink += static_cast<double>(i);
    }
    return synthetic_run(unit);
  };
  const auto result = runner::run_sweep(spec);
  ASSERT_EQ(result.rows.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(result.rows[i].counter_or_zero("trials"), 10 + (100 + i) % 5)
        << "row " << i;
  }
}

TEST(SweepFaults, ThrowingUnitBecomesFailedRowNotTornSweep) {
  runner::SweepSpec spec = synthetic_spec(10, 4);
  spec.run = [](const runner::Unit& unit) {
    if (unit.seed == 103) {
      throw std::runtime_error("worker crash on seed 103");
    }
    return synthetic_run(unit);
  };
  const auto result = runner::run_sweep(spec);
  ASSERT_EQ(result.rows.size(), 10u);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_FALSE(result.all_ok());
  EXPECT_FALSE(result.rows[3].ok);
  EXPECT_EQ(result.rows[3].error, "worker crash on seed 103");
  for (std::size_t i = 0; i < 10; ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(result.rows[i].ok) << "row " << i;
  }
  // Failed rows are excluded from pooled aggregates.
  std::uint64_t expected_trials = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    if (i != 3) expected_trials += 10 + (100 + i) % 5;
  }
  EXPECT_EQ(result.pooled_counter_or_zero("trials"), expected_trials);
}

TEST(SweepFaults, FailedRowsSerializeDeterministically) {
  const auto make = [](std::size_t threads) {
    runner::SweepSpec spec = synthetic_spec(10, threads);
    spec.run = [](const runner::Unit& unit) {
      if (unit.seed % 2 == 0) {
        throw std::runtime_error("boom seed " + std::to_string(unit.seed));
      }
      return synthetic_run(unit);
    };
    return spec;
  };
  const auto spec1 = make(1);
  const auto spec8 = make(8);
  EXPECT_EQ(runner::sweep_json(spec1, runner::run_sweep(spec1)),
            runner::sweep_json(spec8, runner::run_sweep(spec8)));
}

TEST(SweepAggregation, PooledCountersBinomialsAndPercentiles) {
  const auto spec = synthetic_spec(10, 2);
  const auto result = runner::run_sweep(spec);

  std::uint64_t failures = 0, trials = 0;
  std::vector<double> all_samples;
  for (const auto& unit : spec.units) {
    const auto rec = synthetic_run(unit);
    failures += rec.counter_or_zero("failures");
    trials += rec.counter_or_zero("trials");
    all_samples.insert(all_samples.end(), rec.samples[0].second.begin(),
                       rec.samples[0].second.end());
  }
  EXPECT_EQ(result.pooled_counter_or_zero("failures"), failures);
  EXPECT_EQ(result.pooled_counter_or_zero("trials"), trials);

  ASSERT_EQ(result.binomials.size(), 1u);
  const auto expected = harness::binomial_ci_wilson(failures, trials);
  EXPECT_DOUBLE_EQ(result.binomials[0].ci.lower, expected.lower);
  EXPECT_DOUBLE_EQ(result.binomials[0].ci.upper, expected.upper);

  ASSERT_EQ(result.samples.size(), 1u);
  EXPECT_EQ(result.samples[0].count, all_samples.size());
  EXPECT_DOUBLE_EQ(result.samples[0].quantiles[0],
                   harness::percentile(all_samples, 0.50));
  EXPECT_DOUBLE_EQ(result.samples[0].quantiles[2],
                   harness::percentile(all_samples, 0.99));
}

TEST(SweepProgress, MetricsGaugesAndCallbackReachTotals) {
  obs::MetricsRegistry metrics;
  runner::SweepOptions opts;
  opts.metrics = &metrics;
  opts.progress_interval = std::chrono::milliseconds(1);
  std::size_t last_done = 0, calls = 0;
  opts.on_progress = [&](std::size_t done, std::size_t, std::size_t total) {
    EXPECT_LE(done, total);
    last_done = done;
    ++calls;
  };
  const auto spec = synthetic_spec(6, 3);
  const auto result = runner::run_sweep(spec, opts);
  EXPECT_EQ(result.rows.size(), 6u);
  EXPECT_GE(calls, 2u);  // at least the initial and final publishes
  EXPECT_EQ(last_done, 6u);
  EXPECT_EQ(metrics.gauge("sweep_units_total").value(), 6.0);
  EXPECT_EQ(metrics.gauge("sweep_units_done").value(), 6.0);
  EXPECT_EQ(metrics.gauge("sweep_units_failed").value(), 0.0);
  EXPECT_GE(metrics.gauge("sweep_wall_seconds").value(), 0.0);
}

TEST(SweepThreads, ResolveAndClamp) {
  EXPECT_GE(runner::resolve_threads(0), 1u);
  EXPECT_EQ(runner::resolve_threads(5), 5u);
  // More threads than units: the pool is clamped to the unit count.
  const auto spec = synthetic_spec(2, 16);
  EXPECT_EQ(runner::run_sweep(spec).threads_used, 2u);
}

TEST(SweepPlans, RegistryExposesEveryPlanWithRunBody) {
  ASSERT_FALSE(runner::plans().empty());
  for (const runner::Plan& plan : runner::plans()) {
    EXPECT_TRUE(static_cast<bool>(plan.run)) << plan.name;
    EXPECT_FALSE(plan.points.empty()) << plan.name;
    EXPECT_EQ(runner::find_plan(plan.name), &plan);
  }
  EXPECT_EQ(runner::find_plan("no_such_plan"), nullptr);
  // make_spec fans point-major with stable labels.
  const runner::Plan* fi = runner::find_plan("failure_injection");
  ASSERT_NE(fi, nullptr);
  const auto spec = runner::make_spec(*fi, 7, 3, 2);
  ASSERT_EQ(spec.units.size(), fi->points.size() * 3);
  EXPECT_EQ(spec.units[0].label, "baseline seed_7");
  EXPECT_EQ(spec.units[1].seed, 8u);
  EXPECT_EQ(spec.units[3].point, 1u);
}

TEST(SweepAggregation, PointResultPoolsOnlyThatPointsRows) {
  // Two config points, five seeds each, point-major like make_spec.
  runner::SweepSpec spec = synthetic_spec(10, 2);
  for (std::size_t i = 0; i < spec.units.size(); ++i) {
    spec.units[i].point = i / 5;
  }
  const auto result = runner::run_sweep(spec);
  const std::string json = runner::sweep_json(spec, result);

  for (std::size_t point = 0; point < 2; ++point) {
    const auto pooled = runner::point_result(spec, result, point);
    ASSERT_EQ(pooled.rows.size(), 5u);
    std::uint64_t failures = 0, trials = 0;
    std::vector<double> samples;
    for (std::size_t i = point * 5; i < point * 5 + 5; ++i) {
      const auto rec = synthetic_run(spec.units[i]);
      failures += rec.counter_or_zero("failures");
      trials += rec.counter_or_zero("trials");
      samples.insert(samples.end(), rec.samples[0].second.begin(),
                     rec.samples[0].second.end());
    }
    EXPECT_EQ(pooled.pooled_counter_or_zero("failures"), failures);
    EXPECT_EQ(pooled.pooled_counter_or_zero("trials"), trials);
    ASSERT_EQ(pooled.binomials.size(), 1u);
    const auto expected = harness::binomial_ci_wilson(failures, trials);
    EXPECT_DOUBLE_EQ(pooled.binomials[0].ci.lower, expected.lower);
    EXPECT_DOUBLE_EQ(pooled.binomials[0].ci.upper, expected.upper);
    ASSERT_EQ(pooled.samples.size(), 1u);
    EXPECT_EQ(pooled.samples[0].count, samples.size());
    EXPECT_DOUBLE_EQ(pooled.samples[0].quantiles[1],
                     harness::percentile(samples, 0.95));
  }
  // Per-point pooling is for the printed tables only.
  EXPECT_EQ(runner::sweep_json(spec, result), json);
}

/// Runs `plan`'s units (one seed) through crafted records instead of
/// scenarios, so each check can be fed a result that must fail it, and
/// returns the check's verdict.
std::string check_of(
    const runner::Plan& plan,
    const std::function<runner::SeedRecord(const runner::Unit&)>& record) {
  runner::SweepSpec spec = runner::make_spec(plan, 1, 1, 1, 1);
  spec.run = record;
  return plan.check(spec, runner::run_sweep(spec));
}

/// A record that satisfies every plan's check.
runner::SeedRecord healthy_record(const runner::Unit&) {
  runner::SeedRecord rec;
  rec.counter("recovered", 1);
  rec.counter("gsn_conflicts", 0);
  rec.counter("messages_duplicated", 1);
  rec.counter("reborn", 1);
  rec.counter("violations", 0);
  return rec;
}

/// `healthy_record` with one counter overwritten.
std::function<runner::SeedRecord(const runner::Unit&)> with_counter(
    std::string name, std::uint64_t v) {
  return [name, v](const runner::Unit& unit) {
    runner::SeedRecord rec = healthy_record(unit);
    for (auto& [n, c] : rec.counters) {
      if (n == name) c = v;
    }
    return rec;
  };
}

TEST(PlanChecks, HealthyResultPassesEveryPlan) {
  for (const runner::Plan& plan : runner::plans()) {
    ASSERT_TRUE(static_cast<bool>(plan.check)) << plan.name;
    EXPECT_EQ(check_of(plan, healthy_record), "") << plan.name;
  }
}

TEST(PlanChecks, ThrownUnitOrViolationFailsEveryPlan) {
  for (const runner::Plan& plan : runner::plans()) {
    EXPECT_NE(check_of(plan,
                       [](const runner::Unit& unit) -> runner::SeedRecord {
                         if (unit.point == 0) throw std::runtime_error("x");
                         return healthy_record(unit);
                       }),
              "")
        << plan.name;
    EXPECT_NE(check_of(plan, with_counter("violations", 1)), "") << plan.name;
  }
}

TEST(PlanChecks, RecoveryRequiresEveryUnitRecoveredAndNoConflicts) {
  const runner::Plan& plan = *runner::find_plan("recovery");
  EXPECT_NE(check_of(plan, with_counter("recovered", 0)), "");
  EXPECT_NE(check_of(plan, with_counter("gsn_conflicts", 1)), "");
}

TEST(PlanChecks, FailureInjectionRequiresNoGsnConflicts) {
  const runner::Plan& plan = *runner::find_plan("failure_injection");
  EXPECT_NE(check_of(plan, with_counter("gsn_conflicts", 1)), "");
}

TEST(PlanChecks, GrayFailureRequiresInjectedFaults) {
  const runner::Plan& plan = *runner::find_plan("gray_failure");
  EXPECT_NE(check_of(plan, with_counter("messages_duplicated", 0)), "");
}

TEST(PlanChecks, HotShardRequiresRestartsAtTheCorrelatedRackPoint) {
  const runner::Plan& plan = *runner::find_plan("hot_shard");
  ASSERT_EQ(plan.points[2], "correlated_rack");
  EXPECT_NE(check_of(plan, with_counter("reborn", 0)), "");
  // Restarts elsewhere do not count.
  EXPECT_NE(check_of(plan,
                     [](const runner::Unit& unit) {
                       return with_counter("reborn", unit.point == 2 ? 0 : 5)(
                           unit);
                     }),
            "");
}

// Every registered plan, one seed at a small request count, must pass its
// own check: this is the only place most experiments run under ctest.
class PlanSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanSmoke, PassesItsCheckAtOneSeed) {
  const runner::Plan* plan = runner::find_plan(GetParam());
  ASSERT_NE(plan, nullptr);
  const runner::SweepSpec spec =
      runner::make_spec(*plan, 1, 1, /*threads=*/0, /*requests=*/60);
  const runner::SweepResult result = runner::run_sweep(spec);
  EXPECT_EQ(plan->check(spec, result), "");
}

std::vector<std::string> plan_names() {
  std::vector<std::string> names;
  for (const runner::Plan& plan : runner::plans()) names.push_back(plan.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllPlans, PlanSmoke, ::testing::ValuesIn(plan_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace aqueduct
