// sweep_cli: the one experiment driver. Runs a named plan (see --list) over
// a seed range on the parallel sweep engine, prints one table per config
// point, and exits non-zero when the plan's check fails.
//
//   sweep_cli --plan recovery --seeds 32 --threads 8
//
// fans 32 shared-nothing scenario runs across 8 workers and writes
// BENCH_recovery.json. The merged output is byte-identical for any
// --threads value (a --threads 1 run is the oracle), which --self-bench
// verifies end-to-end: it runs the same spec single- and multi-threaded,
// compares the bytes, and writes BENCH_sweep.json with the measured
// speedup. Progress is reported through obs gauges (--metrics-out dumps
// them) and a live line on stderr.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness/table.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "runner/plans.hpp"
#include "runner/sweep.hpp"

using namespace aqueduct;

namespace {

struct CliOptions {
  std::string plan;
  std::uint64_t seed = 42;
  std::size_t seeds = 8;
  std::size_t threads = 0;  // 0 = one per core
  std::size_t requests = 0;  // 0 = plan default
  bool json = true;
  std::string json_out;
  std::string metrics_out;
  bool list = false;
  bool self_bench = false;
  std::string timing_out;  // BENCH_sweep.json override
};

void usage(const char* prog, std::ostream& os) {
  os << "usage: " << prog << " --plan NAME [options]\n"
     << "  --plan NAME        bench plan to sweep (see --list)\n"
     << "  --seed N           first seed (default 42)\n"
     << "  --seeds N          seed count (default 8)\n"
     << "  --threads N        worker threads (0 = one per core); merged\n"
     << "                     output is byte-identical for any value\n"
     << "  --requests N       requests per client (0 = plan default)\n"
     << "  --json-out PATH    override the BENCH_<plan>.json path\n"
     << "  --no-json          skip the JSON summary\n"
     << "  --metrics-out PATH dump the sweep progress gauges as JSON\n"
     << "  --self-bench       run at --threads 1 then --threads N, verify\n"
     << "                     byte-identical output, write BENCH_sweep.json\n"
     << "                     with the measured speedup\n"
     << "  --timing-out PATH  override the BENCH_sweep.json path\n"
     << "  --list             list available plans\n"
     << "  --help             show this help\n";
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << argv[0] << ": flag " << argv[i] << " needs a value\n";
      usage(argv[0], std::cerr);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--plan") {
      opt.plan = value(i);
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value(i));
    } else if (arg == "--seeds") {
      opt.seeds = static_cast<std::size_t>(std::stoull(value(i)));
    } else if (arg == "--threads") {
      opt.threads = static_cast<std::size_t>(std::stoull(value(i)));
    } else if (arg == "--requests") {
      opt.requests = static_cast<std::size_t>(std::stoull(value(i)));
    } else if (arg == "--json-out") {
      opt.json_out = value(i);
    } else if (arg == "--no-json") {
      opt.json = false;
    } else if (arg == "--metrics-out") {
      opt.metrics_out = value(i);
    } else if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--self-bench") {
      opt.self_bench = true;
    } else if (arg == "--timing-out") {
      opt.timing_out = value(i);
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

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// One table per config point, pooled over that point's seeds: each
/// declared binomial with its 95% Wilson interval, the mean of each value
/// and sample set (plus the sample quantiles), and the sum of each
/// counter. Printed only; the sweep JSON carries the per-seed rows.
void print_point_tables(const runner::Plan& plan,
                        const runner::SweepSpec& spec,
                        const runner::SweepResult& result) {
  for (std::size_t p = 0; p < plan.points.size(); ++p) {
    const runner::SweepResult point = runner::point_result(spec, result, p);
    std::cout << "\n" << plan.points[p] << " (" << point.rows.size()
              << " seed" << (point.rows.size() == 1 ? "" : "s") << ")\n";
    harness::Table table({"metric", "pooled"});
    for (const auto& b : point.binomials) {
      table.add_row({b.label, fmt(b.ci.point) + " [" + fmt(b.ci.lower) +
                                  ", " + fmt(b.ci.upper) + "] (" +
                                  std::to_string(b.failures) + "/" +
                                  std::to_string(b.trials) + ")"});
    }
    std::vector<std::pair<std::string, std::pair<double, std::size_t>>> sums;
    for (const runner::SeedRecord& row : point.rows) {
      if (!row.ok) {
        table.add_row({"FAILED", row.error});
        continue;
      }
      for (const auto& [name, v] : row.values) {
        auto it = std::find_if(sums.begin(), sums.end(),
                               [&](const auto& s) { return s.first == name; });
        if (it == sums.end()) it = sums.insert(sums.end(), {name, {0.0, 0}});
        it->second.first += v;
        it->second.second += 1;
      }
    }
    for (const auto& [name, sum] : sums) {
      table.add_row({name, fmt(sum.first / static_cast<double>(sum.second))});
    }
    for (const auto& s : point.samples) {
      std::string cell = "mean " + fmt(s.mean);
      for (std::size_t q = 0; q < s.quantiles.size(); ++q) {
        cell += ", p" + fmt(spec.percentiles[q] * 100.0) + " " +
                fmt(s.quantiles[q]);
      }
      table.add_row({s.name, cell + " (n=" + std::to_string(s.count) + ")"});
    }
    for (const auto& [name, v] : point.pooled_counters) {
      table.add_row({name, std::to_string(v)});
    }
    table.print();
  }
}

/// Prints the plan's gate verdict; true when it passes.
bool check_passes(const runner::Plan& plan, const runner::SweepSpec& spec,
                  const runner::SweepResult& result) {
  const std::string failure = plan.check(spec, result);
  if (failure.empty()) return true;
  std::cerr << "sweep_cli: plan " << plan.name << " failed its check: "
            << failure << "\n";
  return false;
}

runner::SweepResult run_with_progress(const runner::SweepSpec& spec,
                                      obs::MetricsRegistry* metrics) {
  runner::SweepOptions opts;
  opts.metrics = metrics;
  opts.on_progress = [&spec](std::size_t done, std::size_t failed,
                             std::size_t total) {
    std::cerr << "\rsweep " << spec.name << ": " << done << "/" << total
              << " units";
    if (failed > 0) std::cerr << " (" << failed << " failed)";
    if (done == total) std::cerr << "\n";
    std::cerr.flush();
  };
  return runner::run_sweep(spec, opts);
}

int self_bench(const CliOptions& opt, const runner::Plan& plan) {
  obs::MetricsRegistry metrics;

  runner::SweepSpec oracle = runner::make_spec(plan, opt.seed, opt.seeds,
                                               /*threads=*/1, opt.requests);
  std::cerr << "self-bench: oracle pass (1 thread, " << oracle.units.size()
            << " units)\n";
  const auto r1 = run_with_progress(oracle, &metrics);

  runner::SweepSpec wide = runner::make_spec(plan, opt.seed, opt.seeds,
                                             opt.threads, opt.requests);
  const auto rn = run_with_progress(wide, &metrics);

  const std::string json1 = runner::sweep_json(oracle, r1);
  const std::string jsonn = runner::sweep_json(wide, rn);
  const bool identical = json1 == jsonn;
  const double speedup =
      rn.wall_seconds <= 0.0 ? 0.0 : r1.wall_seconds / rn.wall_seconds;

  std::cout << "plan " << plan.name << ": " << oracle.units.size()
            << " units; 1 thread " << r1.wall_seconds << "s, "
            << rn.threads_used << " threads " << rn.wall_seconds
            << "s; speedup " << speedup << "x; output "
            << (identical ? "byte-identical" : "DIVERGED") << "\n";

  if (opt.json) {
    const std::string path =
        opt.json_out.empty() ? "BENCH_" + plan.name + ".json" : opt.json_out;
    std::ofstream os(path);
    if (os) {
      os << jsonn;
      std::cout << "wrote " << path << "\n";
    }
  }
  const std::string timing_path =
      opt.timing_out.empty() ? "BENCH_sweep.json" : opt.timing_out;
  {
    std::ofstream os(timing_path);
    if (!os) {
      std::cerr << "sweep_cli: cannot write " << timing_path << "\n";
      return 1;
    }
    obs::JsonWriter w(os);
    w.begin_object();
    w.field("bench", std::string("sweep"));
    w.field("plan", plan.name);
    w.field("units", static_cast<std::uint64_t>(oracle.units.size()));
    w.field("seed", opt.seed);
    w.field("seeds", static_cast<std::uint64_t>(opt.seeds));
    w.field("threads", static_cast<std::uint64_t>(rn.threads_used));
    w.field("oracle_wall_seconds", r1.wall_seconds);
    w.field("parallel_wall_seconds", rn.wall_seconds);
    w.field("speedup", speedup);
    w.field("identical_output", identical);
    w.field("failed_units", static_cast<std::uint64_t>(rn.failed));
    w.end_object();
    os << "\n";
    std::cout << "wrote " << timing_path << "\n";
  }
  if (!opt.metrics_out.empty()) {
    std::ofstream os(opt.metrics_out);
    if (os) metrics.write_json(os);
  }
  return identical && check_passes(plan, oracle, r1) &&
                 check_passes(plan, wide, rn)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);

  if (opt.list) {
    for (const runner::Plan& p : runner::plans()) {
      std::cout << p.name << " — " << p.description << " ("
                << p.points.size() << " config point"
                << (p.points.size() == 1 ? "" : "s") << ", default "
                << p.default_requests << " requests)\n";
    }
    return 0;
  }
  if (opt.plan.empty()) {
    std::cerr << argv[0] << ": --plan is required (see --list)\n";
    usage(argv[0], std::cerr);
    return 2;
  }
  const runner::Plan* plan = runner::find_plan(opt.plan);
  if (plan == nullptr) {
    std::cerr << argv[0] << ": unknown plan " << opt.plan << " (see --list)\n";
    return 2;
  }
  if (opt.seeds == 0) {
    std::cerr << argv[0] << ": --seeds must be at least 1\n";
    return 2;
  }

  if (opt.self_bench) return self_bench(opt, *plan);

  obs::MetricsRegistry metrics;
  const runner::SweepSpec spec =
      runner::make_spec(*plan, opt.seed, opt.seeds, opt.threads, opt.requests);
  const auto result = run_with_progress(spec, &metrics);

  std::cout << "plan " << plan->name << ": " << spec.units.size()
            << " units on " << result.threads_used << " thread"
            << (result.threads_used == 1 ? "" : "s") << " in "
            << result.wall_seconds << "s";
  if (result.failed > 0) std::cout << "; " << result.failed << " FAILED";
  std::cout << "\n";
  print_point_tables(*plan, spec, result);

  if (opt.json) {
    const std::string path =
        opt.json_out.empty() ? "BENCH_" + plan->name + ".json" : opt.json_out;
    std::ofstream os(path);
    if (!os) {
      std::cerr << "sweep_cli: cannot write " << path << "\n";
      return 1;
    }
    runner::write_sweep_json(os, spec, result);
    std::cout << "wrote " << path << "\n";
  }
  if (!opt.metrics_out.empty()) {
    std::ofstream os(opt.metrics_out);
    if (os) metrics.write_json(os);
  }
  return check_passes(*plan, spec, result) ? 0 : 1;
}
