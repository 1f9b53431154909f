// Multiple replicated services sharing one LAN (paper Figure 2: a client
// gateway talks to a TOTAL-ordered service A and a FIFO-ordered service B
// simultaneously).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "client/handler.hpp"
#include "harness/testbed.hpp"
#include "replication/objects.hpp"

namespace aqueduct {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

TEST(MultiService, TwoSequentialServicesAreIsolated) {
  harness::Testbed bed(3, std::make_unique<sim::NormalDuration>(
                              milliseconds(1), std::chrono::microseconds(200)));
  runtime::Executor& sim = bed.executor();
  const auto groups_a = replication::ServiceGroups::for_service(1);
  const auto groups_b = replication::ServiceGroups::for_service(2);

  auto add = [&](const replication::ServiceGroups& groups, bool primary) {
    replication::ReplicaConfig config;
    config.service_time = std::make_shared<sim::FixedDuration>(milliseconds(10));
    config.lazy_update_interval = seconds(1);
    bed.add_replica(groups, primary, std::move(config),
                    [] { return std::make_unique<replication::KeyValueStore>(); });
  };
  for (const auto* groups : {&groups_a, &groups_b}) {
    add(*groups, true);
    add(*groups, true);
    add(*groups, false);
  }
  bed.start_replicas(milliseconds(10));

  client::ClientHandler& client_a = bed.add_client(groups_a);
  client::ClientHandler& client_b = bed.add_client(groups_b);
  sim.run_for(seconds(2));

  auto put = [&](client::ClientHandler& c, const std::string& v) {
    auto op = std::make_shared<replication::KvPut>();
    op->key = "k";
    op->value = v;
    c.update(op, {});
  };
  put(client_a, "from-a");
  put(client_b, "from-b");
  sim.run_for(seconds(1));

  auto read = [&](client::ClientHandler& c, std::string& out) {
    auto op = std::make_shared<replication::KvGet>();
    op->key = "k";
    c.read(op,
           {.staleness_threshold = 5,
            .deadline = seconds(1),
            .min_probability = 0.5},
           [&out](const client::ReadOutcome& o) {
             auto result = net::message_cast<replication::KvResult>(o.result);
             if (result && result->value) out = *result->value;
           });
  };
  std::string got_a, got_b;
  read(client_a, got_a);
  read(client_b, got_b);
  sim.run_for(seconds(2));

  EXPECT_EQ(got_a, "from-a");
  EXPECT_EQ(got_b, "from-b");
  // Each service committed exactly its own update.
  EXPECT_EQ(bed.replica(0).csn(), 1u);
  EXPECT_EQ(bed.replica(3).csn(), 1u);
}

TEST(MultiService, SequentialAndFifoHandlersCoexist) {
  // One client process talks TOTAL to service A and FIFO to service B
  // through the same gateway endpoint — the paper's Figure 2 picture.
  harness::Testbed bed(9, std::make_unique<sim::NormalDuration>(
                              milliseconds(1), std::chrono::microseconds(200)));
  runtime::Executor& sim = bed.executor();
  const auto groups_a = replication::ServiceGroups::for_service(1);
  const auto groups_b = replication::ServiceGroups::for_service(2);

  for (const core::Ordering ordering :
       {core::Ordering::kSequential, core::Ordering::kFifo}) {
    const auto& groups =
        ordering == core::Ordering::kFifo ? groups_b : groups_a;
    for (int i = 0; i < 3; ++i) {
      replication::ReplicaConfig config;
      config.ordering = ordering;
      config.service_time = std::make_shared<sim::FixedDuration>(milliseconds(10));
      bed.add_replica(groups, i < 2, std::move(config), [] {
        return std::make_unique<replication::SharedDocument>();
      });
    }
  }
  bed.start_replicas(milliseconds(10));

  // Single client endpoint, two handlers — one per service, as an AQuA
  // gateway hosts one handler per contacted service.
  gcs::Endpoint& client_endpoint = bed.add_client_endpoint();
  client::ClientHandler total_handler(sim, client_endpoint, groups_a, {});
  client::ClientHandler fifo_handler(sim, client_endpoint, groups_b, {});
  total_handler.start();
  fifo_handler.start();
  sim.run_for(seconds(2));

  auto append = [](const std::string& line) {
    auto op = std::make_shared<replication::DocAppend>();
    op->line = line;
    return op;
  };
  total_handler.update(append("sequential-doc"), {});
  fifo_handler.update(append("fifo-doc"), {});
  sim.run_for(seconds(1));

  // Threshold 0: a secondary one update behind is a legal answer at any
  // higher threshold, and it would return the empty document.
  constexpr core::Staleness kThreshold = 0;
  std::string total_line, fifo_line;
  core::Staleness total_staleness = 0;
  total_handler.read(std::make_shared<replication::DocRead>(),
                     {.staleness_threshold = kThreshold,
                      .deadline = seconds(1),
                      .min_probability = 0.5},
                     [&](const client::ReadOutcome& o) {
                       total_staleness = o.staleness;
                       auto doc = net::message_cast<replication::DocContents>(o.result);
                       if (doc && !doc->lines.empty()) total_line = doc->lines[0];
                     });
  fifo_handler.read(std::make_shared<replication::DocRead>(),
                    {.staleness_threshold = 0,
                     .deadline = seconds(1),
                     .min_probability = 0.5},
                    [&](const client::ReadOutcome& o) {
                      auto doc = net::message_cast<replication::DocContents>(o.result);
                      if (doc && !doc->lines.empty()) fifo_line = doc->lines[0];
                    });
  sim.run_for(seconds(2));

  EXPECT_LE(total_staleness, kThreshold);
  EXPECT_EQ(total_line, "sequential-doc");
  EXPECT_EQ(fifo_line, "fifo-doc");
}

}  // namespace
}  // namespace aqueduct
