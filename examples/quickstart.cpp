// Quickstart: boot a replicated key-value service and issue QoS-tagged
// reads and updates against it.
//
//   * 1 sequencer + 2 primary replicas + 3 secondary replicas
//   * updates are sequentially consistent (sequencer-ordered)
//   * reads carry a QoS spec <staleness a, deadline d, probability Pc>;
//     the client-side gateway picks the replica subset that meets it
//     (paper Algorithm 1) and delivers the first reply.
//
// Everything runs inside the deterministic discrete-event simulator, so
// the output is reproducible.
#include <cstdio>
#include <memory>

#include "client/handler.hpp"
#include "harness/testbed.hpp"
#include "replication/objects.hpp"

using namespace aqueduct;
using namespace std::chrono_literals;

int main() {
  // --- 1. The simulated LAN -------------------------------------------------
  harness::Testbed bed(/*seed=*/2026, std::make_unique<sim::NormalDuration>(500us, 200us));
  runtime::Executor& sim = bed.executor();
  const auto groups = replication::ServiceGroups::for_service(1);

  // --- 2. Replicas ----------------------------------------------------------
  auto add_replica = [&](bool primary) {
    replication::ReplicaConfig config;
    // Simulated request-processing load, as in the paper's experiments.
    config.service_time = std::make_shared<sim::NormalDuration>(40ms, 15ms);
    config.lazy_update_interval = 2s;  // the consistency/timeliness knob
    bed.add_replica(groups, primary, std::move(config),
                    [] { return std::make_unique<replication::KeyValueStore>(); });
  };
  add_replica(true);  // first primary-group joiner becomes the sequencer
  add_replica(true);
  add_replica(true);
  add_replica(false);
  add_replica(false);
  add_replica(false);
  bed.start_replicas();  // staggered, 10 ms apart

  // --- 3. A client ----------------------------------------------------------
  client::ClientHandler& client = bed.add_client(groups);
  sim.run_for(1s);  // let the groups form

  // --- 4. Updates (sequentially consistent) ---------------------------------
  for (int i = 0; i < 5; ++i) {
    auto put = std::make_shared<replication::KvPut>();
    put->key = "answer";
    put->value = "v" + std::to_string(i);
    client.update(put, [i](const client::UpdateOutcome& outcome) {
      std::printf("update %d committed in %s\n", i,
                  sim::format(outcome.response_time).c_str());
    });
    sim.run_for(300ms);
  }

  // --- 5. A QoS-tagged read -------------------------------------------------
  // "at most 1 version stale, within 120 ms, with probability >= 0.9"
  const core::QoSSpec qos{.staleness_threshold = 1,
                          .deadline = 120ms,
                          .min_probability = 0.9};
  auto get = std::make_shared<replication::KvGet>();
  get->key = "answer";
  client.read(get, qos, [](const client::ReadOutcome& outcome) {
    const auto result = net::message_cast<replication::KvResult>(outcome.result);
    std::printf(
        "read -> value=%s staleness=%llu versions, served by %s in %s "
        "(deferred=%s, %zu replicas selected, predicted P=%0.3f, timing "
        "failure=%s)\n",
        result && result->value ? result->value->c_str() : "<none>",
        static_cast<unsigned long long>(outcome.staleness),
        net::to_string(outcome.responder).c_str(),
        sim::format(outcome.response_time).c_str(),
        outcome.deferred ? "yes" : "no", outcome.replicas_selected,
        outcome.predicted_probability, outcome.timing_failure ? "YES" : "no");
  });
  sim.run_for(2s);

  const auto& stats = client.stats();
  std::printf(
      "\nclient stats: %llu updates, %llu reads, %llu timing failures, "
      "avg %.2f replicas selected per read\n",
      static_cast<unsigned long long>(stats.updates_completed),
      static_cast<unsigned long long>(stats.reads_completed),
      static_cast<unsigned long long>(stats.timing_failures),
      stats.avg_replicas_selected());
  return 0;
}
