// Parallel multi-seed sweep engine.
//
// The paper's claims (Figs. 3-4, Tables 2-3) are probabilistic: a Pc(d)
// estimate is only trustworthy over many independent seeds. This engine
// fans N fully deterministic, shared-nothing simulation runs (distinct
// seeds and/or config points) across a thread pool and merges the results
// in spec order, so a sweep's output is byte-identical regardless of the
// thread count — a `threads = 1` run is the oracle for every other value.
//
// Shared-nothing invariant: the `run` callback builds everything a run
// needs (simulator, network, GCS, replicas, obs sinks) from the Unit alone
// and returns a plain-data SeedRecord. It must not touch mutable state
// outside its own frame. The one process-wide counter the simulation
// stack used to have (`Pmf::convolutions_performed`) is thread-local for
// exactly this reason; a worker's before/after delta is exact because a
// scenario runs entirely on one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sla.hpp"

namespace aqueduct::runner {

/// One independent unit of work: a (seed, config point) pair. Plans decide
/// what `point` indexes (a failure plan, a (Pc, LUI, deadline) cell, ...).
struct Unit {
  std::string label;      // row name in the merged output, e.g. "seed_7"
  std::uint64_t seed = 0;
  std::size_t point = 0;  // config-point index, plan-defined
};

/// What one unit's run reports back. Every field must be a deterministic
/// function of the Unit — no wall-clock, no thread ids — or merged sweep
/// output stops being thread-count invariant.
struct SeedRecord {
  bool ok = false;     // set by the engine: false iff the run threw
  std::string error;   // exception message when !ok

  /// Scalar results, reported per row (plan-chosen order).
  std::vector<std::pair<std::string, double>> values;
  /// Integer tallies, reported per row and summed across the pool.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Sample sets (e.g. read response times): summarized per row and pooled
  /// across rows for merged percentiles.
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  /// String results (e.g. the per-unit telemetry digest), reported per row.
  std::vector<std::pair<std::string, std::string>> texts;

  void value(std::string name, double v) {
    values.emplace_back(std::move(name), v);
  }
  void counter(std::string name, std::uint64_t v) {
    counters.emplace_back(std::move(name), v);
  }
  void sample(std::string name, std::vector<double> v) {
    samples.emplace_back(std::move(name), std::move(v));
  }
  void text(std::string name, std::string v) {
    texts.emplace_back(std::move(name), std::move(v));
  }
  /// Counter lookup (0 when absent) — used by aggregation and tests.
  std::uint64_t counter_or_zero(const std::string& name) const;
};

/// Declares a pooled binomial estimate: failures/trials counters are summed
/// across rows and a 95% Wilson interval is reported under `label`.
struct BinomialSpec {
  std::string label;
  std::string failures;  // counter name
  std::string trials;    // counter name
};

struct SweepSpec {
  std::string name;
  /// 0 = one worker per hardware thread.
  std::size_t threads = 1;
  /// Merge order == this order, whatever the thread count.
  std::vector<Unit> units;
  /// Must be thread-safe by construction (shared-nothing; see file header).
  std::function<SeedRecord(const Unit&)> run;
  std::vector<BinomialSpec> binomials;
  /// Quantiles reported for pooled samples.
  std::vector<double> percentiles = {0.50, 0.95, 0.99};
};

struct PooledBinomial {
  std::string label;
  std::uint64_t failures = 0;
  std::uint64_t trials = 0;
  obs::WilsonInterval ci;  // 95% Wilson, failure probability
};

struct PooledSamples {
  std::string name;
  std::size_t count = 0;
  double mean = 0.0;
  std::vector<double> quantiles;  // parallel to SweepSpec::percentiles
};

struct SweepResult {
  /// In SweepSpec::units order — the deterministic merge.
  std::vector<SeedRecord> rows;
  std::size_t failed = 0;  // rows with !ok
  /// Counters summed across rows, in first-appearance order.
  std::vector<std::pair<std::string, std::uint64_t>> pooled_counters;
  std::vector<PooledBinomial> binomials;
  std::vector<PooledSamples> samples;

  /// Run metadata — excluded from write_json (it is not deterministic).
  double wall_seconds = 0.0;
  std::size_t threads_used = 1;

  bool all_ok() const { return failed == 0; }
  std::uint64_t pooled_counter_or_zero(const std::string& name) const;
};

/// Progress/observability hooks for a sweep. The engine publishes gauges
/// (`sweep_units_total`, `sweep_units_done`, `sweep_units_failed`,
/// `sweep_wall_seconds`) into `metrics` and invokes `on_progress` from the
/// coordinating thread only, so a plain MetricsRegistry is safe.
struct SweepOptions {
  obs::MetricsRegistry* metrics = nullptr;
  std::function<void(std::size_t done, std::size_t failed, std::size_t total)>
      on_progress;
  std::chrono::milliseconds progress_interval{200};
};

/// Runs every unit of `spec` across `spec.threads` workers and merges the
/// rows in unit order. A throwing run becomes a failed row (ok = false,
/// error = what()); the sweep itself always completes. With threads == 1
/// the calling thread does all the work itself (the oracle path).
SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& opts = {});

/// The rows of config point `point` alone, pooled the way run_sweep pools
/// the whole sweep (binomials get the same 95% Wilson interval). For
/// per-point reporting; `result` and its sweep JSON are left untouched.
SweepResult point_result(const SweepSpec& spec, const SweepResult& result,
                         std::size_t point);

/// Deterministic JSON for a finished sweep: per-row records then pooled
/// aggregates. Contains no wall-clock or thread-count fields, so the bytes
/// are identical for any `spec.threads` (the determinism suite asserts it).
void write_sweep_json(std::ostream& os, const SweepSpec& spec,
                      const SweepResult& result);

/// Convenience: write_sweep_json to a string.
std::string sweep_json(const SweepSpec& spec, const SweepResult& result);

/// Resolves a thread-count request: 0 means std::thread::hardware_concurrency
/// (at least 1), anything else is taken as-is.
std::size_t resolve_threads(std::size_t requested);

}  // namespace aqueduct::runner
