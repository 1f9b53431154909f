// Scaling benchmark for the selection hot path at key-value-store scale.
//
// Three sections, all driven by the same steady-state workload (one
// performance publication per ~16 reads, round-robin over the pool):
//
//  1. Verify matrix ({4,16,64} replicas x {10,20} window): runs the
//     production configuration (memo + pruned subset search) against two
//     oracles — the memo disabled, and the literal enumerate-and-grow
//     scan — over byte-identical event schedules, comparing a per-request
//     digest of every SelectionResult. Any divergence is reported with the
//     (seed, replicas, window, request) tuple that produced it and fails
//     the binary, so CI can run --smoke as a regression gate.
//  2. Scale matrix ({64,256,1024} replicas x {10,20} window): the
//     production configuration alone, reporting ns/selection and
//     convolutions/read as the pool grows.
//  3. Open loop (1024 replicas, window 20, a million selections by
//     default): back-to-back selections with warm-up and the first-query
//     rebuild excluded from measurement — the per-read budget number the
//     CI gate holds against kBudgetNsPerSelection.
//
// Output: a table on stdout and BENCH_selection_scale.json.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "client/repository.hpp"
#include "core/pmf.hpp"
#include "core/qos.hpp"
#include "core/selection.hpp"
#include "harness/cli.hpp"
#include "obs/json.hpp"
#include "replication/messages.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

using namespace aqueduct;

namespace {

/// Absolute per-selection latency budget at 1024 replicas (open-loop
/// section), in nanoseconds. Measured ~50 us/selection on the 1-core CI
/// class of runner (dominated by assembling the 1024-entry candidate
/// vector from the memo; the pruned subset search itself is O(n + k log
/// n) and convolution-free in steady state). The 5x ceiling absorbs
/// runner noise while still catching an accidental return to the
/// convolution-per-read regime, which costs another 50-100x.
constexpr double kBudgetNsPerSelection = 250000.0;

struct Options {
  std::size_t iterations = 2000;
  std::size_t open_loop_iterations = 1000000;
  std::uint64_t seed = 42;
  bool json = true;
  std::string json_out;

  // Strict like bench::Options::parse — an unknown flag exits 2 so CI
  // cannot green-light a typo'd invocation.
  static void usage(const char* prog, std::ostream& os) {
    os << "usage: " << prog
       << " [--smoke] [--iterations N] [--open-loop-iterations N]"
          " [--seed N] [--json-out PATH] [--no-json]"
          " [--help]\n";
  }

  static Options parse(int argc, char** argv) {
    Options opt;
    const auto value = [&](int& i) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": flag " << argv[i] << " needs a value\n";
        usage(argv[0], std::cerr);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto count = [&](int& i) {
      const char* flag = argv[i];
      return harness::parse_count(argv[0], flag, value(i), usage);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--smoke") {
        opt.iterations = 200;
        opt.open_loop_iterations = 20000;
      } else if (arg == "--iterations") {
        opt.iterations = count(i);
      } else if (arg == "--open-loop-iterations") {
        opt.open_loop_iterations = count(i);
      } else if (arg == "--seed") {
        opt.seed = count(i);
      } else if (arg == "--json-out") {
        opt.json_out = value(i);
      } else if (arg == "--no-json") {
        opt.json = false;
      } else if (arg == "--help") {
        usage(argv[0], std::cout);
        std::exit(0);
      } else {
        std::cerr << argv[0] << ": unknown flag " << arg << "\n";
        usage(argv[0], std::cerr);
        std::exit(2);
      }
    }
    return opt;
  }
};

/// Publications arrive this many reads apart in steady state — the pool
/// publishes far less often than clients read, which is exactly the regime
/// the memo exploits.
constexpr std::size_t kPublishEvery = 16;

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= 1099511628211ull;
  }
}

/// Order-sensitive FNV-1a digest of one SelectionResult (ids in selection
/// order, the satisfied flag, and the raw bits of the prediction).
std::uint64_t digest(const core::SelectionResult& result) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const auto id : result.selected) fold(h, id.value());
  fold(h, result.satisfied ? 1 : 0);
  std::uint64_t prob_bits;
  static_assert(sizeof(prob_bits) == sizeof(result.predicted_probability));
  std::memcpy(&prob_bits, &result.predicted_probability, sizeof(prob_bits));
  fold(h, prob_bits);
  return h;
}

/// Measurements for one (replicas, window, mode) run.
struct ModeResult {
  double wall_seconds = 0.0;
  double selections_per_sec = 0.0;
  double ns_per_selection = 0.0;
  std::uint64_t convolutions = 0;
  double convolutions_per_read = 0.0;
  client::RepositoryCacheStats cache;
  /// Per-request digests (filled only when requested by the verify runs).
  std::vector<std::uint64_t> digests;
};

replication::GroupInfo make_roles(std::size_t replicas) {
  replication::GroupInfo info;
  info.epoch = 1;
  info.sequencer = net::NodeId{1};
  for (std::size_t i = 0; i < replicas; ++i) {
    const net::NodeId id{static_cast<std::uint32_t>(2 + i)};
    if (i < replicas / 2) {
      info.primaries.push_back(id);
    } else {
      info.secondaries.push_back(id);
    }
  }
  info.lazy_publisher = info.primaries.front();
  return info;
}

replication::PerfPublication make_sample(std::uint32_t replica,
                                         sim::Rng& rng) {
  replication::PerfPublication p;
  p.replica = net::NodeId{replica};
  p.has_sample = true;
  p.ts = rng.normal_duration(std::chrono::milliseconds(100),
                             std::chrono::milliseconds(50));
  p.tq = rng.normal_duration(std::chrono::milliseconds(5),
                             std::chrono::milliseconds(3));
  p.tb = rng.normal_duration(std::chrono::milliseconds(900),
                             std::chrono::milliseconds(400));
  p.deferred = rng.bernoulli(0.3);
  return p;
}

core::QoSSpec bench_qos() {
  return {.staleness_threshold = 2,
          .deadline = std::chrono::milliseconds(140),
          .min_probability = 0.9};
}

struct ModeConfig {
  bool cache_enabled = true;
  core::ProbabilisticOptions::SubsetSearch search =
      core::ProbabilisticOptions::SubsetSearch::kPruned;
  /// Record a per-request digest stream for cross-mode comparison.
  bool keep_digests = false;
  /// Exclude warm-up and the cold first-query rebuild from the clock and
  /// the convolution counter (the open-loop steady-state measurement).
  bool prime_before_measuring = false;
};

/// Runs the steady-state workload once. The event schedule is a pure
/// function of (replicas, window, iterations, seed), so every mode sees
/// identical inputs.
ModeResult run_mode(std::size_t replicas, std::size_t window,
                    std::size_t iterations, std::uint64_t seed,
                    const ModeConfig& mode) {
  client::InfoRepository repo(window, std::chrono::milliseconds(1));
  repo.set_cache_enabled(mode.cache_enabled);
  repo.record_group_info(make_roles(replicas));

  sim::Rng rng(seed);
  sim::TimePoint now = sim::kEpoch;

  // Staleness broadcast so the deferred fallback and stale factor engage.
  {
    replication::PerfPublication lazy;
    lazy.replica = repo.roles().lazy_publisher;
    lazy.lazy = replication::LazyInfo{.n_u = 4,
                                      .t_u = std::chrono::seconds(1),
                                      .n_l = 1,
                                      .t_l = std::chrono::seconds(1),
                                      .period = std::chrono::seconds(4)};
    repo.record_publication(lazy, now);
  }

  // Warm-up: fill every replica's windows and gateway delay.
  for (std::size_t i = 0; i < replicas; ++i) {
    const auto id = static_cast<std::uint32_t>(2 + i);
    for (std::size_t s = 0; s < window; ++s) {
      repo.record_publication(make_sample(id, rng), now);
    }
    repo.record_reply(net::NodeId{id},
                      rng.normal_duration(std::chrono::microseconds(800),
                                          std::chrono::microseconds(200)),
                      now);
  }

  core::ProbabilisticSelector selector(core::ProbabilisticOptions{
      .subset_search = mode.search});
  const core::QoSSpec qos = bench_qos();
  ModeResult out;
  if (mode.keep_digests) out.digests.reserve(iterations);

  if (mode.prime_before_measuring) {
    // One throwaway selection builds every memo entry, so the measured
    // loop is pure steady state: incremental updates and rematerialization
    // only, no cold-start convolutions.
    auto ctx = repo.selection_context(qos, now, rng);
    (void)selector.select(ctx);
  }

  repo.reset_cache_stats();
  core::Pmf::reset_convolution_counter();
  const auto conv_before = core::Pmf::convolutions_performed();
  const auto t0 = std::chrono::steady_clock::now();

  for (std::size_t i = 0; i < iterations; ++i) {
    now += std::chrono::milliseconds(10);
    if (i % kPublishEvery == 0) {
      // One replica publishes (and replies) — everyone else is unchanged.
      const auto id =
          static_cast<std::uint32_t>(2 + (i / kPublishEvery) % replicas);
      repo.record_publication(make_sample(id, rng), now);
      repo.record_reply(net::NodeId{id},
                        rng.normal_duration(std::chrono::microseconds(800),
                                            std::chrono::microseconds(200)),
                        now);
    }
    auto ctx = repo.selection_context(qos, now, rng);
    const auto result = selector.select(ctx);
    if (mode.keep_digests) out.digests.push_back(digest(result));
  }

  const auto t1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.convolutions = core::Pmf::convolutions_performed() - conv_before;
  out.convolutions_per_read =
      static_cast<double>(out.convolutions) / static_cast<double>(iterations);
  if (out.wall_seconds > 0.0) {
    out.selections_per_sec =
        static_cast<double>(iterations) / out.wall_seconds;
    out.ns_per_selection =
        out.wall_seconds * 1e9 / static_cast<double>(iterations);
  }
  out.cache = repo.cache_stats();
  return out;
}

/// Compares an oracle's digest stream against the production run's,
/// reporting every divergence with the full reproduction tuple.
std::uint64_t count_mismatches(const ModeResult& production,
                               const ModeResult& oracle,
                               const char* oracle_name, std::uint64_t seed,
                               std::size_t replicas, std::size_t window) {
  std::uint64_t mismatches = 0;
  const std::size_t n = std::min(production.digests.size(),
                                 oracle.digests.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (production.digests[i] == oracle.digests[i]) continue;
    if (++mismatches <= 4) {  // don't flood the log on systematic breakage
      std::cerr << "MISMATCH vs " << oracle_name << ": seed=" << seed
                << " replicas=" << replicas << " window=" << window
                << " request=" << i << " (production digest 0x" << std::hex
                << production.digests[i] << ", oracle 0x" << oracle.digests[i]
                << std::dec << ")\n";
    }
  }
  if (production.digests.size() != oracle.digests.size()) {
    std::cerr << "MISMATCH vs " << oracle_name << ": seed=" << seed
              << " replicas=" << replicas << " window=" << window
              << ": digest stream lengths differ\n";
    ++mismatches;
  }
  return mismatches;
}

struct VerifyPoint {
  std::size_t replicas = 0;
  std::size_t window = 0;
  ModeResult cached;      // memo + pruned search (production)
  ModeResult uncached;    // memo disabled, pruned search
  ModeResult exhaustive;  // memo + literal enumerate-and-grow (oracle)
  std::uint64_t mismatches = 0;
  double reduction = 0.0;
};

struct ScalePoint {
  std::size_t replicas = 0;
  std::size_t window = 0;
  ModeResult cached;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv);

  std::cout << "=== Selection scaling: memoized + pruned hot path ===\n"
            << "steady state: one publication per " << kPublishEvery
            << " reads, round-robin; QoS a=2, d=140ms, Pc=0.9\n\n";

  // --- 1. verify matrix ----------------------------------------------------
  std::cout << "[verify] " << opt.iterations
            << " reads/point, production vs uncached vs exhaustive-scan\n";
  std::vector<VerifyPoint> points;
  std::uint64_t total_mismatches = 0;
  for (const std::size_t replicas : {4, 16, 64}) {
    for (const std::size_t window : {10, 20}) {
      VerifyPoint p;
      p.replicas = replicas;
      p.window = window;
      ModeConfig cfg;
      cfg.keep_digests = true;
      p.cached = run_mode(replicas, window, opt.iterations, opt.seed, cfg);
      cfg.cache_enabled = false;
      p.uncached = run_mode(replicas, window, opt.iterations, opt.seed, cfg);
      cfg.cache_enabled = true;
      cfg.search = core::ProbabilisticOptions::SubsetSearch::kExhaustiveScan;
      p.exhaustive =
          run_mode(replicas, window, opt.iterations, opt.seed, cfg);
      p.mismatches =
          count_mismatches(p.cached, p.uncached, "uncached", opt.seed,
                           replicas, window) +
          count_mismatches(p.cached, p.exhaustive, "exhaustive-scan",
                           opt.seed, replicas, window);
      total_mismatches += p.mismatches;
      p.reduction =
          p.cached.convolutions == 0
              ? static_cast<double>(p.uncached.convolutions)
              : static_cast<double>(p.uncached.convolutions) /
                    static_cast<double>(p.cached.convolutions);
      points.push_back(p);

      std::cout << "replicas=" << replicas << " window=" << window
                << ": cached "
                << static_cast<std::uint64_t>(p.cached.selections_per_sec)
                << " sel/s (" << p.cached.convolutions_per_read
                << " conv/read), uncached "
                << static_cast<std::uint64_t>(p.uncached.selections_per_sec)
                << " sel/s (" << p.uncached.convolutions_per_read
                << " conv/read), reduction " << p.reduction << "x, "
                << (p.mismatches == 0
                        ? "identical"
                        : "DIVERGED (" + std::to_string(p.mismatches) +
                              " mismatches)")
                << "\n";
    }
  }

  // --- 2. scale matrix -----------------------------------------------------
  std::cout << "\n[scale] " << opt.iterations
            << " reads/point, production configuration\n";
  std::vector<ScalePoint> scale_points;
  for (const std::size_t replicas : {64, 256, 1024}) {
    for (const std::size_t window : {10, 20}) {
      ScalePoint p;
      p.replicas = replicas;
      p.window = window;
      p.cached = run_mode(replicas, window, opt.iterations, opt.seed,
                          ModeConfig{});
      scale_points.push_back(p);
      std::cout << "replicas=" << replicas << " window=" << window << ": "
                << static_cast<std::uint64_t>(p.cached.ns_per_selection)
                << " ns/selection (" << p.cached.convolutions_per_read
                << " conv/read)\n";
    }
  }

  // --- 3. open loop at 1024 ------------------------------------------------
  constexpr std::size_t kOpenLoopReplicas = 1024;
  constexpr std::size_t kOpenLoopWindow = 20;
  std::cout << "\n[open-loop] " << opt.open_loop_iterations
            << " selections at " << kOpenLoopReplicas << " replicas, window "
            << kOpenLoopWindow << ", warmed + primed\n";
  ModeConfig open_cfg;
  open_cfg.prime_before_measuring = true;
  const ModeResult open_loop =
      run_mode(kOpenLoopReplicas, kOpenLoopWindow, opt.open_loop_iterations,
               opt.seed, open_cfg);
  const bool within_budget =
      open_loop.ns_per_selection <= kBudgetNsPerSelection;
  std::cout << static_cast<std::uint64_t>(open_loop.ns_per_selection)
            << " ns/selection (budget "
            << static_cast<std::uint64_t>(kBudgetNsPerSelection) << " ns, "
            << (within_budget ? "within" : "OVER") << "), "
            << open_loop.convolutions_per_read << " conv/read, "
            << static_cast<std::uint64_t>(open_loop.selections_per_sec)
            << " sel/s\n";

  if (total_mismatches != 0) {
    std::cerr << "\nFAIL: " << total_mismatches
              << " selection mismatches between production and oracles\n";
  }

  if (opt.json) {
    const std::string path = opt.json_out.empty() ? "BENCH_selection_scale.json"
                                                  : opt.json_out;
    std::ofstream os(path);
    if (!os) {
      std::cerr << "bench: cannot write " << path << "\n";
      return total_mismatches == 0 ? 0 : 1;
    }
    obs::JsonWriter w(os);
    w.begin_object();
    w.field("bench", std::string("selection_scale"));
    w.field("seed", static_cast<std::uint64_t>(opt.seed));
    w.field("iterations", static_cast<std::uint64_t>(opt.iterations));
    w.field("publish_every", static_cast<std::uint64_t>(kPublishEvery));
    w.key("runs");
    w.begin_array();
    for (const VerifyPoint& p : points) {
      w.begin_object();
      w.field("replicas", static_cast<std::uint64_t>(p.replicas));
      w.field("window", static_cast<std::uint64_t>(p.window));
      w.field("cached_selections_per_sec", p.cached.selections_per_sec);
      w.field("uncached_selections_per_sec", p.uncached.selections_per_sec);
      w.field("exhaustive_selections_per_sec",
              p.exhaustive.selections_per_sec);
      w.field("cached_convolutions", p.cached.convolutions);
      w.field("uncached_convolutions", p.uncached.convolutions);
      w.field("cached_convolutions_per_read", p.cached.convolutions_per_read);
      w.field("uncached_convolutions_per_read",
              p.uncached.convolutions_per_read);
      w.field("convolution_reduction", p.reduction);
      w.field("cache_hits", p.cached.cache.hits);
      w.field("cache_rebuilds", p.cached.cache.rebuilds);
      w.field("cache_cdf_refreshes", p.cached.cache.cdf_refreshes);
      w.field("cache_incremental_updates", p.cached.cache.incremental_updates);
      w.field("cache_incremental_refreshes",
              p.cached.cache.incremental_refreshes);
      w.field("mismatches", p.mismatches);
      w.field("identical_selections", p.mismatches == 0);
      w.end_object();
    }
    w.end_array();
    w.key("scale_runs");
    w.begin_array();
    for (const ScalePoint& p : scale_points) {
      w.begin_object();
      w.field("replicas", static_cast<std::uint64_t>(p.replicas));
      w.field("window", static_cast<std::uint64_t>(p.window));
      w.field("ns_per_selection", p.cached.ns_per_selection);
      w.field("selections_per_sec", p.cached.selections_per_sec);
      w.field("convolutions_per_read", p.cached.convolutions_per_read);
      w.field("cache_rebuilds", p.cached.cache.rebuilds);
      w.field("cache_incremental_refreshes",
              p.cached.cache.incremental_refreshes);
      w.end_object();
    }
    w.end_array();
    w.key("open_loop");
    w.begin_object();
    w.field("replicas", static_cast<std::uint64_t>(kOpenLoopReplicas));
    w.field("window", static_cast<std::uint64_t>(kOpenLoopWindow));
    w.field("iterations",
            static_cast<std::uint64_t>(opt.open_loop_iterations));
    w.field("ns_per_selection", open_loop.ns_per_selection);
    w.field("selections_per_sec", open_loop.selections_per_sec);
    w.field("convolutions_per_read", open_loop.convolutions_per_read);
    w.field("budget_ns_per_selection", kBudgetNsPerSelection);
    w.field("within_budget", within_budget);
    w.end_object();
    w.end_object();
    os << "\n";
    std::cout << "\nwrote " << path << "\n";
  }

  return total_mismatches == 0 ? 0 : 1;
}
