// Traffic monitoring — the paper's second real-time database example
// (Section 1). Road-segment sensors continuously update a shared state;
// dashboards read it with a staleness tolerance and a refresh deadline.
//
// This example uses the experiment harness directly: it is also a
// demonstration of how to script custom workloads for new studies.
#include <cstdio>
#include <memory>

#include "harness/scenario.hpp"
#include "harness/table.hpp"
#include "obs/sla.hpp"

using namespace aqueduct;
using namespace std::chrono_literals;

int main() {
  harness::ScenarioConfig config;
  config.seed = 314;
  config.num_primaries = 3;
  config.num_secondaries = 7;  // read-heavy workload: many secondaries
  config.service_mean = 50ms;
  config.service_std = 20ms;
  config.lazy_update_interval = 2s;

  // Sensor gateway: frequent small updates, no read QoS to speak of.
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 100, .deadline = 5s, .min_probability = 0.1},
      .request_delay = 100ms,
      .num_requests = 600,
  });
  // Wall dashboard: refreshes every 500 ms, tolerates 5 stale versions,
  // wants the refresh inside 150 ms with probability 0.9.
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 5, .deadline = 150ms, .min_probability = 0.9},
      .request_delay = 500ms,
      .num_requests = 400,
  });
  // Incident console: near-fresh view (1 version), 300 ms, 0.8.
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 1, .deadline = 300ms, .min_probability = 0.8},
      .request_delay = 1s,
      .num_requests = 200,
  });

  harness::Scenario scenario(std::move(config));
  // Rush-hour failure: one secondary dies 30 s in.
  scenario.schedule_crash(6, sim::kEpoch + 30s);
  auto results = scenario.run();

  const char* names[] = {"sensor gateway  ", "wall dashboard  ",
                         "incident console"};
  harness::Table table({"client", "reads", "timing_failure_prob", "95%_CI",
                        "deferred", "avg_read_ms", "avg_replicas",
                        "staleness_violations"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& stats = results[i].stats;
    const auto ci = obs::wilson_interval(stats.timing_failures,
                                         stats.reads_completed);
    table.add_row({names[i], std::to_string(stats.reads_completed),
                   harness::Table::num(ci.point, 3),
                   "[" + harness::Table::num(ci.lower, 3) + "," +
                       harness::Table::num(ci.upper, 3) + "]",
                   std::to_string(stats.deferred_replies),
                   harness::Table::num(sim::to_ms(stats.avg_response_time()), 1),
                   harness::Table::num(stats.avg_replicas_selected(), 2),
                   std::to_string(stats.staleness_violations)});
  }
  std::printf("traffic-monitoring run (1 secondary crash at t=30s):\n\n");
  table.print();
  std::printf(
      "\nthe sensor gateway's updates stay sequentially consistent on the "
      "primaries;\ndashboards read mostly from secondaries within their "
      "staleness budget, and the\nincident console pays for freshness "
      "with more selected replicas.\n");
  return 0;
}
