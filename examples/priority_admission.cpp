// Section 7 extensions in action: priority-based QoS and admission control.
//
// A brokerage front-end offers three service tiers (bronze/silver/gold)
// instead of exposing raw probabilities; the PriorityMapper turns tiers
// into Pc(d) values. Before activating a tier for a customer, the
// AdmissionController checks whether the current replica pool could
// actually honour it — a gold SLA on a degraded pool is refused rather
// than silently violated.
#include <cstdio>
#include <memory>
#include <vector>

#include "client/admission.hpp"
#include "client/handler.hpp"
#include "core/priority.hpp"
#include "harness/testbed.hpp"
#include "replication/objects.hpp"

using namespace aqueduct;
using namespace std::chrono_literals;

int main() {
  harness::Testbed bed(17, std::make_unique<sim::NormalDuration>(500us, 200us));
  runtime::Executor& sim = bed.executor();
  const auto groups = replication::ServiceGroups::for_service(1);

  auto add_replica = [&](bool primary) {
    replication::ReplicaConfig config;
    config.service_time = std::make_shared<sim::NormalDuration>(80ms, 35ms);
    config.lazy_update_interval = 2s;
    bed.add_replica(groups, primary, std::move(config),
                    [] { return std::make_unique<replication::StockTicker>(); });
  };
  add_replica(true);  // sequencer
  for (int i = 0; i < 3; ++i) add_replica(true);
  for (int i = 0; i < 4; ++i) add_replica(false);
  bed.start_replicas();

  client::ClientHandler& client = bed.add_client(groups);
  sim.run_for(1s);

  // Warm the performance histories so admission has data to judge.
  const core::PriorityMapper mapper;
  for (int i = 0; i < 80; ++i) {
    auto tick = std::make_shared<replication::TickerSet>();
    tick->symbol = "ACME";
    tick->price = 100.0 + i;
    client.update(tick, {});
    auto get = std::make_shared<replication::TickerGet>();
    get->symbol = "ACME";
    client.read(get, mapper.to_qos(core::Priority::kLow, 4, 300ms), {});
    sim.run_for(250ms);
  }

  // Evaluate each tier against the live pool.
  struct Tier {
    const char* name;
    core::Priority priority;
    sim::Duration deadline;
  };
  const std::vector<Tier> tiers = {
      {"bronze (Pc=0.5, d=250ms)", core::Priority::kLow, 250ms},
      {"silver (Pc=0.8, d=150ms)", core::Priority::kNormal, 150ms},
      {"gold   (Pc=0.9, d=120ms)", core::Priority::kHigh, 120ms},
      {"platinum (Pc=0.99, d=60ms)", core::Priority::kCritical, 60ms},
  };
  const client::AdmissionController admission(/*headroom=*/0.02);

  auto report = [&](const char* when) {
    std::printf("\n--- admission decisions %s ---\n", when);
    for (const auto& tier : tiers) {
      const auto qos = mapper.to_qos(tier.priority, 2, tier.deadline);
      const auto decision =
          admission.evaluate(client.repository(), qos, sim.now());
      std::printf("%-28s -> %s (achievable P=%.3f over %zu replicas)\n",
                  tier.name, decision.admitted ? "ADMIT " : "REFUSE",
                  decision.achievable_probability, decision.available_replicas);
    }
  };
  report("with the full pool");

  // Degrade the pool: crash two primaries, re-evaluate.
  bed.crash_replica(2);
  bed.crash_replica(3);
  sim.run_for(6s);  // failure detection + reconfiguration
  // Refresh histories against the reduced pool (same mixed workload as
  // the warm-up, so the two reports compare like for like).
  for (int i = 0; i < 40; ++i) {
    auto tick = std::make_shared<replication::TickerSet>();
    tick->symbol = "ACME";
    tick->price = 200.0 + i;
    client.update(tick, {});
    auto get = std::make_shared<replication::TickerGet>();
    get->symbol = "ACME";
    client.read(get, mapper.to_qos(core::Priority::kLow, 4, 300ms), {});
    sim.run_for(250ms);
  }
  report("after two primary crashes");

  // Cost-based mapping (Section 7's other suggestion).
  std::printf("\n--- willingness-to-pay mapping (max spend 100) ---\n");
  for (const double cost : {0.0, 25.0, 50.0, 75.0, 100.0}) {
    std::printf("spend %5.1f -> Pc = %.3f\n", cost,
                mapper.probability_for_cost(cost, 100.0));
  }
  return 0;
}
