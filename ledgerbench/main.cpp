// The ledger benchmark: runs one workload as single-threaded simulated
// harness::Scenario runs, checks their outputs, and prints the metrics as
// one JSON object on the last line of stdout.
//
//   ledgerbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A pass runs every unit of the workload once. --trace 0 repeats untraced
// passes until --seconds have passed (at least three) and reports the
// end-to-end metrics. --trace 1 runs one pass with the TraceSink, then
// alternates untraced and traced passes (traced.hpp), checks that all of
// them give the same counts, and reports the per-layer metrics and the CPU
// ledger. The spans of the first traced unit are written to
// spans_<workload>.tsv next to the binary.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "harness/stats.hpp"
#include "traced.hpp"

namespace ledgerbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans.
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        args.trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && args.seconds > 0.0;
}

double elapsed_s(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Checks one run against the safety invariants and the counts of the
/// first run of the same unit (same seed, so they must be identical).
bool check_run(const RunReport& run, const RunCounts& reference,
               const char* what) {
  bool ok = true;
  if (run.invariants.total() != 0) {
    std::cerr << "ledgerbench: " << what
              << " violated invariants: " << run.invariants.describe() << "\n";
    ok = false;
  }
  if (!(run.counts == reference)) {
    std::cerr << "ledgerbench: " << what
              << " counts differ from the first run of the same seed\n";
    ok = false;
  }
  return ok;
}

/// One pass: every unit of the workload once.
using Pass = std::vector<RunReport>;

Pass run_pass(const Workload& workload, const Pass* reference, bool& correct,
              MessageCounter* counter = nullptr) {
  Pass pass;
  for (std::size_t u = 0; u < workload.units.size(); ++u) {
    pass.push_back(run_scenario(workload.units[u], counter));
    const RunCounts& expected =
        reference == nullptr ? pass.back().counts : (*reference)[u].counts;
    correct = check_run(pass.back(), expected, "untraced run") && correct;
  }
  return pass;
}

QosSummary pooled_qos(const Pass& pass) {
  QosSummary q;
  for (const RunReport& r : pass) q.add(r.qos);
  return q;
}

// Scenario constructions per pass; setup_s is the median over the run.
constexpr int kSetupSamplesPerPass = 17;
constexpr std::size_t kMinPasses = 3;

int run_untraced(const Workload& workload, const Args& args) {
  const auto start = std::chrono::steady_clock::now();
  bool correct = true;
  std::vector<Pass> passes;
  std::vector<double> setup_s;
  double last_pass_s = 0.0;
  while (passes.size() < kMinPasses ||
         elapsed_s(start) + last_pass_s <= args.seconds) {
    const double pass_start = elapsed_s(start);
    passes.push_back(
        run_pass(workload, passes.empty() ? nullptr : &passes.front(), correct));
    last_pass_s = elapsed_s(start) - pass_start;
    // Set-up samples follow every pass, so their median spans the run.
    // Each is scaled by the reference kernel timed around it.
    double kernel_before = reference_kernel_seconds();
    for (int i = 0; i < kSetupSamplesPerPass; ++i) {
      const double t0 = thread_cpu_seconds();
      for (const Unit& unit : workload.units) {
        aq::harness::Scenario scenario(unit.config);
        scenario.apply_faults(unit.faults);
        if (unit.dependability) scenario.enable_dependability({});
      }
      const double t = thread_cpu_seconds() - t0;
      const double kernel_after = reference_kernel_seconds();
      setup_s.push_back(at_reference_speed(t, 0.5 * (kernel_before + kernel_after)));
      kernel_before = kernel_after;
    }
  }

  const QosSummary q = pooled_qos(passes.front());
  const double requests = static_cast<double>(q.ops_completed);
  double messages = 0.0, bytes = 0.0, events = 0.0, cpu_s = 0.0;
  for (std::size_t u = 0; u < workload.units.size(); ++u) {
    const RunCounts& c = passes.front()[u].counts;
    messages += static_cast<double>(c.messages);
    bytes += static_cast<double>(c.bytes);
    events += static_cast<double>(c.events);
    std::vector<RunReport> repeats;
    for (const Pass& p : passes) repeats.push_back(p[u]);
    cpu_s += sliced_cpu_seconds(repeats);
  }
  const double late_share =
      1.0 - static_cast<double>(q.reads_on_time) /
                static_cast<double>(q.reads_attempted);

  std::cout << "workload " << workload.name << " seed " << args.seed << ": "
            << passes.size() << " passes of " << workload.units.size()
            << " units, " << q.read_ms.size() << " reads and "
            << q.ops_completed << "/" << q.ops_issued
            << " operations completed per pass; cpu us/req per pass:";
  for (const Pass& p : passes) {
    double raw_s = 0.0, reference_s = 0.0;
    for (const RunReport& r : p) {
      raw_s += r.run_cpu_s;
      for (std::size_t i = 0; i < r.cpu_slices_s.size(); ++i) {
        reference_s += at_reference_speed(r.cpu_slices_s[i], r.slice_kernel_s(i));
      }
    }
    std::cout << " " << raw_s * 1e6 / requests << " (" << reference_s * 1e6 / requests
              << " at reference speed)";
  }
  std::cout << "\n";
  const std::vector<Metric> metrics = {
      {"cpu_us_per_req", cpu_s * 1e6 / requests, "us"},
      {"msgs_per_req", messages / requests, "msgs"},
      {"bytes_per_req", bytes / requests, "B"},
      {"events_per_req", events / requests, "events"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup_s), "s"},
      {"timing_failure_rate", late_share, "ratio"},
      {"read_p50_ms", aq::harness::percentile(q.read_ms, 0.50), "ms"},
      {"read_p99_ms", aq::harness::percentile(q.read_ms, 0.99), "ms"},
  };
  if (q.read_ms.size() < 1000) {
    std::cerr << "ledgerbench: only " << q.read_ms.size()
              << " reads; p99 needs at least 1000\n";
    correct = false;
  }
  print_result(correct, q.ops_issued * passes.size(),
               (q.ops_issued - q.ops_completed) * passes.size(), metrics);
  return correct ? 0 : 1;
}

int run_with_trace(const Workload& workload, const Args& args) {
  const auto start = std::chrono::steady_clock::now();
  bool correct = true;

  // The TraceSink pass: message and byte counts by kind, cross-checked
  // against the registry's net.messages_sent / net.bytes_sent. Its counts
  // are the reference every later run must reproduce.
  MessageCounter counter;
  const Pass counted = run_pass(workload, nullptr, correct, &counter);
  std::uint64_t messages = 0, bytes = 0;
  for (const RunReport& r : counted) {
    messages += r.counts.messages;
    bytes += r.counts.bytes;
  }
  if (counter.total_messages() != messages || counter.total_bytes() != bytes) {
    std::cerr << "ledgerbench: TraceSink totals (" << counter.total_messages()
              << " msgs, " << counter.total_bytes()
              << " B) differ from net.messages_sent/net.bytes_sent (" << messages
              << ", " << bytes << ")\n";
    correct = false;
  }

  // Untraced and traced passes alternate, so both see the same machine
  // state.
  std::vector<double> untraced_cpu, traced_cpu;
  std::vector<TracedReport> traced;
  double last_pair_s = 0.0;
  while (traced.empty() || elapsed_s(start) + last_pair_s <= args.seconds) {
    const double pair_start = elapsed_s(start);
    double cpu = 0.0;
    for (const RunReport& r : run_pass(workload, &counted, correct)) cpu += r.run_cpu_s;
    untraced_cpu.push_back(cpu);

    TracedReport pass;
    for (std::size_t u = 0; u < workload.units.size(); ++u) {
      const bool first = traced.empty() && u == 0;
      const TracedReport t =
          run_traced(workload.units[u], first ? args.spans_out : std::string());
      const RunCounts& reference = counted[u].counts;
      if (t.invariants.total() != 0) {
        std::cerr << "ledgerbench: traced run violated invariants: "
                  << t.invariants.describe() << "\n";
        correct = false;
      }
      if (!(t.counts == reference)) {
        std::cerr << "ledgerbench: traced run of unit " << u
                  << " differs from the untraced Scenario run (messages "
                  << t.counts.messages << " vs " << reference.messages
                  << ", bytes " << t.counts.bytes << " vs " << reference.bytes
                  << ", events " << t.counts.events << " vs " << reference.events
                  << ")\n";
        correct = false;
      }
      if (!t.views_cover_events) {
        std::cerr << "ledgerbench: some callbacks bypassed the executor views\n";
        correct = false;
      }
      add_unit(pass, t);
    }
    traced_cpu.push_back(pass.run_cpu_s);
    traced.push_back(std::move(pass));
    last_pair_s = elapsed_s(start) - pair_start;
  }

  const QosSummary q = pooled_qos(counted);
  const double requests = static_cast<double>(q.ops_completed);
  std::vector<std::vector<Metric>> per_pass;
  for (const TracedReport& t : traced) per_pass.push_back(layer_metrics(t));
  std::vector<Metric> metrics = per_pass.front();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::vector<double> values;
    for (const auto& pass_metrics : per_pass) values.push_back(pass_metrics[i].value);
    metrics[i].value = median(values);
  }
  for (int k = 0; k < MessageCounter::kKinds; ++k) {
    const auto kind = static_cast<MessageCounter::Kind>(k);
    metrics.push_back({std::string("net.msgs_per_req.") + MessageCounter::kKindNames[k],
                       static_cast<double>(counter.messages(kind)) / requests,
                       "msgs/req"});
    metrics.push_back({std::string("net.bytes_per_req.") + MessageCounter::kKindNames[k],
                       static_cast<double>(counter.bytes(kind)) / requests,
                       "B/req"});
  }
  metrics.push_back({"trace.overhead_pct",
                     100.0 * (median(traced_cpu) / median(untraced_cpu) - 1.0),
                     "%"});

  std::cout << "workload " << workload.name << " seed " << args.seed
            << ": 1 counted + " << untraced_cpu.size() << " untraced + "
            << traced.size() << " traced passes of " << workload.units.size()
            << " units; checks " << (correct ? "passed" : "FAILED") << "\n";
  std::cout << format_ledger(workload.name, traced);

  const std::uint64_t passes = 1 + untraced_cpu.size() + traced.size();
  print_result(correct, q.ops_issued * passes,
               (q.ops_issued - q.ops_completed) * passes, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ledgerbench

int main(int argc, char** argv) {
  using namespace ledgerbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: ledgerbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n";
    return 2;
  }
  const std::optional<Workload> workload = make_workload(args.workload, args.seed);
  if (!workload) {
    std::cerr << "ledgerbench: unknown workload '" << args.workload
              << "'; known:";
    for (const std::string& name : workload_names()) std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
  }
  args.spans_out = (std::filesystem::path(argv[0]).parent_path() /
                    ("spans_" + args.workload + ".tsv"))
                       .string();
  return args.trace ? run_with_trace(*workload, args)
                    : run_untraced(*workload, args);
}
