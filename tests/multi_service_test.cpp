// Multiple replicated services sharing one LAN (paper Figure 2: a client
// gateway talks to a TOTAL-ordered service A and a FIFO-ordered service B
// simultaneously).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "client/handler.hpp"
#include "gcs/endpoint.hpp"
#include "net/loopback.hpp"
#include "replication/objects.hpp"
#include "replication/replica.hpp"
#include "sim/simulator.hpp"

namespace aqueduct {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

TEST(MultiService, TwoSequentialServicesAreIsolated) {
  sim::Simulator sim(3);
  net::LoopbackTransport network(sim, std::make_unique<sim::NormalDuration>(
                                milliseconds(1), std::chrono::microseconds(200)));
  gcs::Directory directory;
  const auto groups_a = replication::ServiceGroups::for_service(1);
  const auto groups_b = replication::ServiceGroups::for_service(2);

  std::vector<std::unique_ptr<gcs::Endpoint>> endpoints;
  std::vector<std::unique_ptr<replication::ReplicaServer>> replicas;
  auto add = [&](const replication::ServiceGroups& groups, bool primary) {
    auto endpoint = std::make_unique<gcs::Endpoint>(sim, network, directory);
    replication::ReplicaConfig config;
    config.service_time = std::make_shared<sim::FixedDuration>(milliseconds(10));
    config.lazy_update_interval = seconds(1);
    replicas.push_back(std::make_unique<replication::ReplicaServer>(
        sim, *endpoint, groups, primary,
        std::make_unique<replication::KeyValueStore>(), std::move(config)));
    endpoints.push_back(std::move(endpoint));
  };
  for (const auto* groups : {&groups_a, &groups_b}) {
    add(*groups, true);
    add(*groups, true);
    add(*groups, false);
  }
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    sim.after(milliseconds(10 * (i + 1)), [&, i] { replicas[i]->start(); });
  }

  auto ep_a = std::make_unique<gcs::Endpoint>(sim, network, directory);
  client::ClientHandler client_a(sim, *ep_a, groups_a, {});
  client_a.start();
  auto ep_b = std::make_unique<gcs::Endpoint>(sim, network, directory);
  client::ClientHandler client_b(sim, *ep_b, groups_b, {});
  client_b.start();
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
  EXPECT_EQ(replicas[0]->csn(), 1u);
  EXPECT_EQ(replicas[3]->csn(), 1u);
}

TEST(MultiService, SequentialAndFifoHandlersCoexist) {
  // One client process talks TOTAL to service A and FIFO to service B
  // through the same gateway endpoint — the paper's Figure 2 picture.
  sim::Simulator sim(9);
  net::LoopbackTransport network(sim, std::make_unique<sim::NormalDuration>(
                                milliseconds(1), std::chrono::microseconds(200)));
  gcs::Directory directory;
  const auto groups_a = replication::ServiceGroups::for_service(1);
  const auto groups_b = replication::ServiceGroups::for_service(2);

  std::vector<std::unique_ptr<gcs::Endpoint>> endpoints;
  std::vector<std::unique_ptr<replication::ReplicaServer>> seq_replicas;
  std::vector<std::unique_ptr<replication::ReplicaServer>> fifo_replicas;
  for (int i = 0; i < 3; ++i) {
    auto endpoint = std::make_unique<gcs::Endpoint>(sim, network, directory);
    replication::ReplicaConfig config;
    config.service_time = std::make_shared<sim::FixedDuration>(milliseconds(10));
    seq_replicas.push_back(std::make_unique<replication::ReplicaServer>(
        sim, *endpoint, groups_a, i < 2,
        std::make_unique<replication::SharedDocument>(), std::move(config)));
    endpoints.push_back(std::move(endpoint));
  }
  for (int i = 0; i < 3; ++i) {
    auto endpoint = std::make_unique<gcs::Endpoint>(sim, network, directory);
    replication::ReplicaConfig config;
    config.ordering = core::Ordering::kFifo;
    config.service_time = std::make_shared<sim::FixedDuration>(milliseconds(10));
    fifo_replicas.push_back(std::make_unique<replication::ReplicaServer>(
        sim, *endpoint, groups_b, i < 2,
        std::make_unique<replication::SharedDocument>(), std::move(config)));
    endpoints.push_back(std::move(endpoint));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    sim.after(milliseconds(10 * (i + 1)), [&, i] { seq_replicas[i]->start(); });
    sim.after(milliseconds(10 * (i + 4)), [&, i] { fifo_replicas[i]->start(); });
  }

  // Single client endpoint, two handlers — one per service, as an AQuA
  // gateway hosts one handler per contacted service.
  auto client_endpoint = std::make_unique<gcs::Endpoint>(sim, network, directory);
  client::ClientHandler total_handler(sim, *client_endpoint, groups_a, {});
  client::ClientHandler fifo_handler(sim, *client_endpoint, groups_b, {});
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

  std::string total_line, fifo_line;
  total_handler.read(std::make_shared<replication::DocRead>(),
                     {.staleness_threshold = 2,
                      .deadline = seconds(1),
                      .min_probability = 0.5},
                     [&](const client::ReadOutcome& o) {
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

  EXPECT_EQ(total_line, "sequential-doc");
  EXPECT_EQ(fifo_line, "fifo-doc");
}

}  // namespace
}  // namespace aqueduct
