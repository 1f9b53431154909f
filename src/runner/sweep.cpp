#include "runner/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <ostream>
#include <sstream>
#include <thread>

#include "obs/json.hpp"
#include "sim/check.hpp"

namespace aqueduct::runner {

namespace {

/// Insertion-ordered accumulation keyed by name: deterministic pooled
/// output without depending on map iteration order.
template <typename T>
void accumulate(std::vector<std::pair<std::string, T>>& pool,
                const std::string& name, const T& v) {
  for (auto& [n, total] : pool) {
    if (n == name) {
      total += v;
      return;
    }
  }
  pool.emplace_back(name, v);
}

void write_row(obs::JsonWriter& w, const Unit& unit, const SeedRecord& row,
               const std::vector<double>& percentiles) {
  w.begin_object();
  w.field("name", unit.label);
  w.field("seed", unit.seed);
  w.field("point", static_cast<std::uint64_t>(unit.point));
  w.field("ok", row.ok);
  if (!row.ok) w.field("error", row.error);
  for (const auto& [name, v] : row.values) w.field(name, v);
  for (const auto& [name, v] : row.counters) w.field(name, v);
  for (const auto& [name, v] : row.texts) w.field(name, v);
  for (const auto& [name, samples] : row.samples) {
    w.key(name);
    w.begin_object();
    w.field("count", static_cast<std::uint64_t>(samples.size()));
    double sum = 0.0;
    for (const double s : samples) sum += s;
    w.field("mean", samples.empty() ? 0.0 : sum / static_cast<double>(samples.size()));
    for (const double q : percentiles) {
      std::ostringstream key;
      key << "p" << static_cast<int>(q * 100.0 + 0.5);
      w.field(key.str(), harness::percentile(samples, q));
    }
    w.end_object();
  }
  w.end_object();
}

/// Deterministic merge: pooled aggregates walk `result.rows` in order,
/// skipping failed rows.
void pool_rows(const SweepSpec& spec, SweepResult& result) {
  for (const SeedRecord& row : result.rows) {
    if (!row.ok) continue;
    for (const auto& [name, v] : row.counters) {
      accumulate(result.pooled_counters, name, v);
    }
  }
  for (const BinomialSpec& b : spec.binomials) {
    PooledBinomial pooled;
    pooled.label = b.label;
    for (const SeedRecord& row : result.rows) {
      if (!row.ok) continue;
      pooled.failures += row.counter_or_zero(b.failures);
      pooled.trials += row.counter_or_zero(b.trials);
    }
    pooled.ci = harness::binomial_ci_wilson(pooled.failures, pooled.trials);
    result.binomials.push_back(std::move(pooled));
  }
  // Pooled percentiles: concatenate per-row samples in unit order; the
  // percentile itself sorts, so this is order-insensitive anyway.
  std::vector<std::pair<std::string, std::vector<double>>> pooled_samples;
  for (const SeedRecord& row : result.rows) {
    if (!row.ok) continue;
    for (const auto& [name, samples] : row.samples) {
      bool found = false;
      for (auto& [n, all] : pooled_samples) {
        if (n == name) {
          all.insert(all.end(), samples.begin(), samples.end());
          found = true;
          break;
        }
      }
      if (!found) pooled_samples.emplace_back(name, samples);
    }
  }
  for (auto& [name, all] : pooled_samples) {
    PooledSamples p;
    p.name = name;
    p.count = all.size();
    double sum = 0.0;
    for (const double s : all) sum += s;
    p.mean = all.empty() ? 0.0 : sum / static_cast<double>(all.size());
    for (const double q : spec.percentiles) {
      p.quantiles.push_back(harness::percentile(all, q));
    }
    result.samples.push_back(std::move(p));
  }
}

}  // namespace

std::uint64_t SeedRecord::counter_or_zero(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::uint64_t SweepResult::pooled_counter_or_zero(
    const std::string& name) const {
  for (const auto& [n, v] : pooled_counters) {
    if (n == name) return v;
  }
  return 0;
}

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& opts) {
  AQUEDUCT_CHECK_MSG(static_cast<bool>(spec.run), "SweepSpec::run is empty");
  const std::size_t total = spec.units.size();
  SweepResult result;
  result.rows.resize(total);
  result.threads_used =
      std::max<std::size_t>(1, std::min(resolve_threads(spec.threads), total));

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> failed{0};

  // Workers pull the next unclaimed unit index and write into its dedicated
  // slot — no two threads ever touch the same row, and the merge below
  // reads rows strictly in unit order.
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      SeedRecord rec;
      try {
        rec = spec.run(spec.units[i]);
        rec.ok = true;
      } catch (const std::exception& e) {
        rec = SeedRecord{};
        rec.ok = false;
        rec.error = e.what();
        failed.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        rec = SeedRecord{};
        rec.ok = false;
        rec.error = "unknown exception";
        failed.fetch_add(1, std::memory_order_relaxed);
      }
      result.rows[i] = std::move(rec);
      done.fetch_add(1, std::memory_order_release);
    }
  };

  const auto publish = [&](std::size_t d, std::size_t f) {
    if (opts.metrics != nullptr) {
      opts.metrics->gauge("sweep_units_total").set(static_cast<double>(total));
      opts.metrics->gauge("sweep_units_done").set(static_cast<double>(d));
      opts.metrics->gauge("sweep_units_failed").set(static_cast<double>(f));
    }
    if (opts.on_progress) opts.on_progress(d, f, total);
  };

  const auto t0 = std::chrono::steady_clock::now();
  publish(0, 0);
  if (result.threads_used == 1) {
    // Oracle path: everything on the calling thread, no pool at all.
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(result.threads_used);
    for (std::size_t t = 0; t < result.threads_used; ++t) {
      pool.emplace_back(worker);
    }
    // The coordinator owns all observable side effects while workers run:
    // metrics and progress callbacks fire only from this thread.
    while (done.load(std::memory_order_acquire) < total) {
      std::this_thread::sleep_for(opts.progress_interval);
      publish(done.load(std::memory_order_acquire),
              failed.load(std::memory_order_relaxed));
    }
    for (std::thread& t : pool) t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.failed = failed.load(std::memory_order_relaxed);
  publish(total, result.failed);
  if (opts.metrics != nullptr) {
    opts.metrics->gauge("sweep_wall_seconds").set(result.wall_seconds);
  }

  pool_rows(spec, result);
  return result;
}

SweepResult point_result(const SweepSpec& spec, const SweepResult& result,
                         std::size_t point) {
  SweepResult out;
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    if (spec.units[i].point != point) continue;
    out.rows.push_back(result.rows[i]);
    if (!result.rows[i].ok) ++out.failed;
  }
  pool_rows(spec, out);
  return out;
}

void write_sweep_json(std::ostream& os, const SweepSpec& spec,
                      const SweepResult& result) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("bench", spec.name);
  w.field("units", static_cast<std::uint64_t>(spec.units.size()));
  w.field("failed", static_cast<std::uint64_t>(result.failed));
  w.key("runs");
  w.begin_array();
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    write_row(w, spec.units[i], result.rows[i], spec.percentiles);
  }
  w.end_array();
  w.key("pooled");
  w.begin_object();
  for (const auto& [name, v] : result.pooled_counters) w.field(name, v);
  for (const PooledBinomial& b : result.binomials) {
    w.key(b.label);
    w.begin_object();
    w.field("failures", b.failures);
    w.field("trials", b.trials);
    w.field("rate", b.ci.point);
    w.field("ci_lower", b.ci.lower);
    w.field("ci_upper", b.ci.upper);
    w.end_object();
  }
  for (const PooledSamples& s : result.samples) {
    w.key(s.name);
    w.begin_object();
    w.field("count", static_cast<std::uint64_t>(s.count));
    w.field("mean", s.mean);
    for (std::size_t q = 0; q < s.quantiles.size(); ++q) {
      std::ostringstream key;
      key << "p" << static_cast<int>(spec.percentiles[q] * 100.0 + 0.5);
      w.field(key.str(), s.quantiles[q]);
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
  os << "\n";
}

std::string sweep_json(const SweepSpec& spec, const SweepResult& result) {
  std::ostringstream os;
  write_sweep_json(os, spec, result);
  return os.str();
}

}  // namespace aqueduct::runner
