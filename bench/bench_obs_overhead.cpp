// Telemetry overhead bench: what does the live snapshot pipeline cost?
//
// Runs one fixed SimExecutor scenario twice per repetition — telemetry off
// vs. telemetry on at a 100 ms (simulated) cadence streaming JSONL into
// memory. Wall time is taken as the minimum over repetitions per mode,
// which strips scheduler noise far better than averaging.
//
// The gated number is the telemetry *duty cycle* at the 100 ms cadence:
// per-snapshot wall cost / cadence. A naive wall-over-wall ratio would be
// dishonest in the other direction — the simulator compresses ~20 s of
// simulated time into tens of wall milliseconds, firing snapshots hundreds
// of times faster than any real-time deployment ever would, so it measures
// an absurdly accelerated snapshot rate, not the pipeline. Under the
// real-time executor (where this pipeline actually matters), throughput
// loss == the fraction of each 100 ms period spent capturing + exporting,
// which is exactly cost_per_snapshot / cadence.
//
// Also a determinism gate: every instrumented repetition uses the same
// seed, so the captured JSONL series must be byte-identical across reps;
// the bench exits non-zero if they diverge.
//
// The JSON summary feeds tools/bench_compare.py: overhead_percent is gated
// against the absolute <2% budget; the deterministic fields (snapshots,
// jsonl_bytes, reads_completed) are trend-gated against the committed
// baseline in bench/baselines/BENCH_obs_overhead.json. Wall seconds are
// reported but never gated (machine-dependent).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/scenario.hpp"
#include "obs/json.hpp"
#include "obs/sinks.hpp"

using namespace aqueduct;

namespace {

constexpr double kCadenceMs = 100.0;
constexpr double kBudgetPercent = 2.0;

harness::ScenarioConfig make_config(std::uint64_t seed, std::size_t requests) {
  // live_cli's small cluster, under the simulator: sequencer + 2 primaries
  // + 2 secondaries, fast service so telemetry cost is not drowned in
  // simulated idle time.
  harness::ScenarioConfig config;
  config.seed = seed;
  config.num_primaries = 2;
  config.num_secondaries = 2;
  config.service_mean = std::chrono::milliseconds(20);
  config.service_std = std::chrono::milliseconds(5);
  config.lazy_update_interval = std::chrono::milliseconds(500);
  config.drain = std::chrono::milliseconds(250);
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 1,
              .deadline = std::chrono::milliseconds(150),
              .min_probability = 0.9},
      .request_delay = std::chrono::milliseconds(50),
      .num_requests = requests,
  });
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 4,
              .deadline = std::chrono::milliseconds(250),
              .min_probability = 0.5},
      .request_delay = std::chrono::milliseconds(50),
      .num_requests = requests,
  });
  return config;
}

struct RunResult {
  double wall_s = 0.0;
  std::uint64_t reads_completed = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t sla_violations = 0;
  std::string jsonl;  // empty when telemetry is off
};

RunResult run_once(std::uint64_t seed, std::size_t requests, bool telemetry) {
  harness::Scenario scenario(make_config(seed, requests));
  std::ostringstream jsonl;
  obs::JsonlSnapshotSink sink(jsonl);
  if (telemetry) {
    scenario.enable_telemetry(sim::from_ms(kCadenceMs)).add_sink(&sink);
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto results = scenario.run();
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  for (const auto& client : results) r.reads_completed += client.stats.reads_completed;
  if (telemetry) {
    r.snapshots = scenario.telemetry()->snapshots();
    r.jsonl = jsonl.str();
  }
  r.sla_violations = scenario.observability().sla.total_violations();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options opt = bench::Options::parse(argc, argv);
  const std::size_t reps = opt.seeds == 0 ? 3 : opt.seeds;  // reuse --seeds

  std::printf("obs-overhead bench: %zu requests x 2 clients, %.0f ms cadence, "
              "%zu reps per mode\n",
              opt.requests, kCadenceMs, reps);

  double wall_off = 0.0, wall_on = 0.0;
  RunResult on_result;
  std::string first_jsonl;
  bool deterministic = true;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const RunResult off = run_once(opt.seed, opt.requests, false);
    const RunResult on = run_once(opt.seed, opt.requests, true);
    wall_off = rep == 0 ? off.wall_s : std::min(wall_off, off.wall_s);
    wall_on = rep == 0 ? on.wall_s : std::min(wall_on, on.wall_s);
    if (rep == 0) {
      first_jsonl = on.jsonl;
      on_result = on;
    } else if (on.jsonl != first_jsonl) {
      deterministic = false;
    }
    std::printf("  rep %zu: off %.3fs, on %.3fs (%llu snapshots, %zu bytes)\n",
                rep, off.wall_s, on.wall_s,
                static_cast<unsigned long long>(on.snapshots),
                on.jsonl.size());
  }

  const double cost_per_snapshot_ms =
      on_result.snapshots == 0
          ? 0.0
          : (wall_on - wall_off) * 1000.0 /
                static_cast<double>(on_result.snapshots);
  const double overhead_percent = cost_per_snapshot_ms / kCadenceMs * 100.0;
  const double throughput_off =
      wall_off <= 0.0 ? 0.0
                      : static_cast<double>(on_result.reads_completed) / wall_off;
  const double throughput_on =
      wall_on <= 0.0 ? 0.0
                     : static_cast<double>(on_result.reads_completed) / wall_on;

  std::printf("\nwall (min of %zu): off %.3fs, on %.3fs -> %.4f ms/snapshot "
              "-> %.2f%% duty cycle at %.0f ms cadence (budget %.1f%%)\n",
              reps, wall_off, wall_on, cost_per_snapshot_ms, overhead_percent,
              kCadenceMs, kBudgetPercent);
  std::printf("snapshots %llu, jsonl %zu bytes, sla violations %llu, "
              "series deterministic: %s\n",
              static_cast<unsigned long long>(on_result.snapshots),
              first_jsonl.size(),
              static_cast<unsigned long long>(on_result.sla_violations),
              deterministic ? "yes" : "NO");

  if (opt.json) {
    const std::string path =
        opt.json_out.empty() ? "BENCH_obs_overhead.json" : opt.json_out;
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return 1;
    }
    obs::JsonWriter w(os);
    w.begin_object();
    w.field("bench", "obs_overhead");
    w.field("seed", opt.seed);
    w.field("requests", static_cast<std::uint64_t>(opt.requests));
    w.field("cadence_ms", kCadenceMs);
    w.field("reps", static_cast<std::uint64_t>(reps));
    w.field("budget_percent", kBudgetPercent);
    // Wall-clock fields: reported, never trend-gated. overhead_percent is
    // the one exception — bench_compare checks it against the absolute
    // budget (a same-machine ratio, valid anywhere), not the baseline.
    w.field("wall_off_s", wall_off);
    w.field("wall_on_s", wall_on);
    w.field("cost_per_snapshot_ms", cost_per_snapshot_ms);
    w.field("overhead_percent", overhead_percent);
    w.field("throughput_off_rps", throughput_off);
    w.field("throughput_on_rps", throughput_on);
    // Deterministic fields: pure functions of (seed, requests); gated.
    w.field("reads_completed", on_result.reads_completed);
    w.field("snapshots", on_result.snapshots);
    w.field("jsonl_bytes", static_cast<std::uint64_t>(first_jsonl.size()));
    w.field("sla_violations", on_result.sla_violations);
    w.field("deterministic", deterministic);
    w.end_object();
    os << "\n";
    std::printf("wrote %s\n", path.c_str());
  }

  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: telemetry JSONL diverged across same-seed reps\n");
    return 1;
  }
  if (on_result.snapshots == 0) {
    std::fprintf(stderr, "FAIL: no snapshots captured\n");
    return 1;
  }
  return 0;
}
