// Configurable scenario runner: explore the QoS/consistency trade-offs
// from the command line without writing code.
//
//   scenario_cli [--primaries N] [--secondaries N] [--requests N]
//                [--deadline-ms D] [--staleness A] [--probability P]
//                [--lui-ms L] [--request-delay-ms R] [--clients N]
//                [--service-mean-ms M] [--service-std-ms S]
//                [--seed S] [--crash INDEX@SECONDS]... [--csv]
//                [--trace-out PREFIX] [--metrics-out FILE]
//
// Example: reproduce one Figure-4 point:
//   scenario_cli --deadline-ms 140 --probability 0.9 --lui-ms 4000
//
// --trace-out PREFIX writes PREFIX.jsonl (one JSON event per line) and
// PREFIX.trace.json (Chrome trace_event format — load in chrome://tracing
// or ui.perfetto.dev), plus a per-request latency-breakdown report on
// stdout. --metrics-out FILE dumps the metrics registry as JSON.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "harness/cli.hpp"
#include "harness/scenario.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "obs/export.hpp"
#include "obs/sla.hpp"

using namespace aqueduct;

namespace {

struct CliCrash {
  std::size_t index;
  double at_seconds;
};

void print_usage(const char* prog, std::ostream& os) {
  os << "usage: " << prog
     << " [--primaries N] [--secondaries N] [--requests N]\n"
        "  [--deadline-ms D] [--staleness A] [--probability P] [--lui-ms L]\n"
        "  [--request-delay-ms R] [--clients N] [--service-mean-ms M]\n"
        "  [--service-std-ms S] [--seed S] [--open-loop] "
        "[--crash INDEX@SECONDS] [--csv]\n"
        "  [--trace-out PREFIX] [--metrics-out FILE]\n";
}

[[noreturn]] void usage() {
  print_usage("scenario_cli", std::cerr);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  harness::ScenarioConfig config;
  config.seed = 42;
  std::size_t clients = 2;
  std::size_t requests = 400;
  double deadline_ms = 140;
  core::Staleness staleness = 2;
  double probability = 0.9;
  double request_delay_ms = 1000;
  bool open_loop = false;
  bool csv = false;
  std::string trace_out;
  std::string metrics_out;
  std::vector<CliCrash> crashes;

  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage();
    return argv[++i];
  };
  // Strict number parsing (harness/cli.hpp): a malformed value exits 2.
  auto number = [&](int& i, auto parse) {
    const char* flag = argv[i];
    return parse(argv[0], flag, next_value(i), print_usage);
  };
  auto count = [&](int& i) { return number(i, harness::parse_count); };
  // A duration or time in the flag's unit; it cannot be negative.
  auto span = [&](int& i) {
    const double value = number(i, harness::parse_real);
    if (value < 0.0) usage();
    return value;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--primaries") {
      config.num_primaries = count(i);
    } else if (arg == "--secondaries") {
      config.num_secondaries = count(i);
    } else if (arg == "--requests") {
      requests = count(i);
    } else if (arg == "--deadline-ms") {
      deadline_ms = span(i);
    } else if (arg == "--staleness") {
      staleness = count(i);
    } else if (arg == "--probability") {
      probability = number(i, harness::parse_probability);
    } else if (arg == "--lui-ms") {
      config.lazy_update_interval = sim::from_ms(span(i));
    } else if (arg == "--request-delay-ms") {
      request_delay_ms = span(i);
    } else if (arg == "--clients") {
      clients = count(i);
    } else if (arg == "--service-mean-ms") {
      config.service_mean = sim::from_ms(span(i));
    } else if (arg == "--service-std-ms") {
      config.service_std = sim::from_ms(span(i));
    } else if (arg == "--seed") {
      config.seed = count(i);
    } else if (arg == "--open-loop") {
      open_loop = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--trace-out") {
      trace_out = next_value(i);
    } else if (arg == "--metrics-out") {
      metrics_out = next_value(i);
    } else if (arg == "--crash") {
      const std::string spec = next_value(i);
      const auto at = spec.find('@');
      if (at == std::string::npos) usage();
      const std::string index = spec.substr(0, at);
      const std::string seconds = spec.substr(at + 1);
      const double at_seconds =
          harness::parse_real(argv[0], "--crash", seconds.c_str(), print_usage);
      if (at_seconds < 0.0) usage();
      crashes.push_back(
          {harness::parse_count(argv[0], "--crash", index.c_str(), print_usage),
           at_seconds});
    } else {
      usage();
    }
  }

  for (std::size_t c = 0; c < clients; ++c) {
    config.clients.push_back(harness::ClientSpec{
        .qos = {.staleness_threshold = staleness,
                .deadline = sim::from_ms(deadline_ms),
                .min_probability = probability},
        .request_delay = sim::from_ms(request_delay_ms),
        .num_requests = requests,
        .arrival = open_loop ? harness::Arrival::kOpenPoisson
                             : harness::Arrival::kClosedLoop,
    });
  }

  harness::Scenario scenario(std::move(config));
  for (const CliCrash& crash : crashes) {
    if (crash.index >= scenario.num_replicas()) usage();
    scenario.schedule_crash(crash.index,
                            sim::kEpoch + sim::from_sec(crash.at_seconds));
  }

  // Trace sinks must subscribe before run() so they see every event.
  std::ofstream jsonl_file;
  std::unique_ptr<obs::JsonLinesSink> jsonl_sink;
  obs::ChromeTraceSink chrome_sink;
  obs::LatencyBreakdownCollector breakdown;
  obs::TraceHub& hub = scenario.observability().trace;
  if (!trace_out.empty()) {
    jsonl_file.open(trace_out + ".jsonl");
    if (!jsonl_file) {
      std::fprintf(stderr, "cannot write %s.jsonl\n", trace_out.c_str());
      return 1;
    }
    jsonl_sink = std::make_unique<obs::JsonLinesSink>(jsonl_file);
    hub.add(jsonl_sink.get());
    hub.add(&chrome_sink);
    hub.add(&breakdown);
  }

  auto results = scenario.run();

  harness::Table table({"client", "reads", "timing_failure_prob", "95%_CI",
                        "avg_replicas", "avg_read_ms", "p99_read_ms",
                        "deferred", "staleness_violations", "reads_abandoned",
                        "updates_abandoned"});
  for (std::size_t c = 0; c < results.size(); ++c) {
    const auto& stats = results[c].stats;
    const auto ci = obs::wilson_interval(stats.timing_failures,
                                         stats.reads_completed);
    table.add_row(
        {std::to_string(c), std::to_string(stats.reads_completed),
         harness::Table::num(ci.point, 3),
         "[" + harness::Table::num(ci.lower, 3) + "," +
             harness::Table::num(ci.upper, 3) + "]",
         harness::Table::num(stats.avg_replicas_selected(), 2),
         harness::Table::num(sim::to_ms(stats.avg_response_time()), 1),
         harness::Table::num(
             harness::percentile(results[c].read_response_times, 0.99) * 1000.0,
             1),
         std::to_string(stats.deferred_replies),
         std::to_string(stats.staleness_violations),
         std::to_string(stats.reads_abandoned),
         std::to_string(stats.updates_abandoned)});
  }
  std::printf("simulated %s, %llu events\n",
              sim::format(scenario.executor().now()).c_str(),
              static_cast<unsigned long long>(
                  scenario.executor().events_executed()));
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print();
  }

  if (!trace_out.empty()) {
    hub.remove(jsonl_sink.get());
    hub.remove(&chrome_sink);
    hub.remove(&breakdown);
    jsonl_file.close();
    std::ofstream chrome_file(trace_out + ".trace.json");
    chrome_sink.write(chrome_file);
    std::printf("wrote %s.jsonl and %s.trace.json (%zu events)\n",
                trace_out.c_str(), trace_out.c_str(),
                chrome_sink.num_events());
    std::printf("latency breakdown (%zu requests):\n",
                breakdown.events().size());
    breakdown.write_json(std::cout);
    std::printf("\n");
  }
  if (!metrics_out.empty()) {
    std::ofstream metrics_file(metrics_out);
    if (!metrics_file) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    scenario.observability().metrics.write_json(metrics_file);
    metrics_file << "\n";
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return 0;
}
