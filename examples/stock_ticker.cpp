// Online stock trading — one of the paper's examples of "applications that
// benefit from relaxed but bounded inconsistency in exchange for
// timeliness" (Section 1).
//
// A market feed updates prices continuously. Two consumers:
//   * a trader whose decisions are worthless after 100 ms — it accepts
//     quotes up to 3 updates stale to get them fast;
//   * a compliance auditor that needs exact state and can wait.
// Halfway through the run one primary replica crashes; the adaptive
// selection keeps both clients inside their QoS. Exits 1 if the auditor
// was ever served stale state.
#include <cstdio>
#include <memory>

#include "client/handler.hpp"
#include "harness/testbed.hpp"
#include "replication/objects.hpp"

using namespace aqueduct;
using namespace std::chrono_literals;

int main() {
  harness::Testbed bed(99, std::make_unique<sim::NormalDuration>(400us, 150us));
  runtime::Executor& sim = bed.executor();
  const auto groups = replication::ServiceGroups::for_service(1);

  auto add_replica = [&](bool primary) {
    replication::ReplicaConfig config;
    config.service_time = std::make_shared<sim::NormalDuration>(30ms, 12ms);
    config.lazy_update_interval = 1s;  // fast-moving data: propagate often
    bed.add_replica(groups, primary, std::move(config),
                    [] { return std::make_unique<replication::StockTicker>(); });
  };
  add_replica(true);  // sequencer
  for (int i = 0; i < 3; ++i) add_replica(true);
  for (int i = 0; i < 4; ++i) add_replica(false);
  bed.start_replicas();

  client::ClientHandler& feed = bed.add_client(groups);
  client::ClientHandler& trader = bed.add_client(groups);
  client::ClientHandler& auditor = bed.add_client(groups);
  sim.run_for(1s);

  // The market feed: a price tick every 150 ms.
  const char* symbols[] = {"ACME", "GLOBO", "INITECH"};
  for (int i = 0; i < 300; ++i) {
    sim.after(i * 150ms, [&, i] {
      auto tick = std::make_shared<replication::TickerSet>();
      tick->symbol = symbols[i % 3];
      tick->price = 100.0 + (i % 17) * 0.25;
      feed.update(tick, {});
    });
  }

  // The trader: tight deadline, bounded staleness.
  const core::QoSSpec trader_qos{.staleness_threshold = 3,
                                 .deadline = 100ms,
                                 .min_probability = 0.9};
  std::size_t trader_reads = 0, trader_failures = 0, trader_deferred = 0;
  for (int i = 0; i < 150; ++i) {
    sim.after(500ms + i * 250ms, [&, i] {
      auto get = std::make_shared<replication::TickerGet>();
      get->symbol = symbols[i % 3];
      trader.read(get, trader_qos, [&](const client::ReadOutcome& outcome) {
        ++trader_reads;
        if (outcome.timing_failure) ++trader_failures;
        if (outcome.deferred) ++trader_deferred;
      });
    });
  }

  // The auditor: exact state, patient.
  const core::QoSSpec auditor_qos{.staleness_threshold = 0,
                                  .deadline = 5s,
                                  .min_probability = 0.5};
  std::size_t audit_reads = 0, audit_stale = 0;
  for (int i = 0; i < 20; ++i) {
    sim.after(1s + i * 2s, [&, i] {
      auto get = std::make_shared<replication::TickerGet>();
      get->symbol = symbols[i % 3];
      auditor.read(get, auditor_qos, [&](const client::ReadOutcome& outcome) {
        ++audit_reads;
        if (outcome.staleness > 0) ++audit_stale;
      });
    });
  }

  // Crash one primary mid-run: the model adapts.
  sim.after(20s, [&] {
    std::printf("t=20s: primary replica %s crashes\n",
                net::to_string(bed.replica_node(2)).c_str());
    bed.crash_replica(2);
  });

  sim.run_for(60s);

  std::printf("\nstock-ticker run: 300 price ticks, 1 primary crash at t=20s\n");
  std::printf("trader  : %zu quotes, %zu timing failures (%.1f%%, allowed %.0f%%), %zu deferred, avg %.2f replicas/quote\n",
              trader_reads, trader_failures,
              trader_reads ? 100.0 * trader_failures / trader_reads : 0.0,
              100.0 * (1.0 - trader_qos.min_probability), trader_deferred,
              trader.stats().avg_replicas_selected());
  std::printf("auditor : %zu audits, %zu served from stale state (must be 0)\n",
              audit_reads, audit_stale);
  std::printf("feed    : %llu ticks committed\n",
              static_cast<unsigned long long>(feed.stats().updates_completed));
  return audit_stale == 0 ? 0 : 1;
}
