// Command-line options of the wall-clock benches (bench_obs_overhead).
// Counts go through the strict parser every command-line program shares
// (harness/cli.hpp). Scenario experiments run through sweep_cli.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/cli.hpp"

namespace aqueduct::bench {

/// Parsing is strict: an unknown flag (or a flag missing its value) prints
/// usage and exits 2, so CI cannot green-light a typo'd invocation that
/// silently ran with defaults.
struct Options {
  /// Requests per client per run.
  std::size_t requests = 1000;
  std::uint64_t seed = 42;
  /// Repetition count (0 = the bench's default).
  std::size_t seeds = 0;
  bool json = true;      // write the BENCH_<name>.json summary
  std::string json_out;  // overrides the default BENCH_<name>.json path

  static void usage(const char* prog, std::ostream& os) {
    os << "usage: " << prog << " [options]\n"
       << "  --quick            small request count (200) for CI shards\n"
       << "  --requests N       requests per client per run\n"
       << "  --seed N           first seed\n"
       << "  --seeds N          repetition count\n"
       << "  --json-out PATH    override the BENCH_<name>.json path\n"
       << "  --no-json          skip the JSON summary\n"
       << "  --help             show this help\n";
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
      if (arg == "--quick") {
        opt.requests = 200;
      } else if (arg == "--requests") {
        opt.requests = count(i);
      } else if (arg == "--seed") {
        opt.seed = count(i);
      } else if (arg == "--seeds") {
        opt.seeds = count(i);
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

}  // namespace aqueduct::bench
