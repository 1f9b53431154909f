// The paper's request model (Section 2): method-name-based classification
// of invocations into read-only vs update operations.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "client/proxy.hpp"
#include "harness/testbed.hpp"
#include "replication/objects.hpp"

namespace aqueduct::client {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

struct Fixture {
  Fixture()
      : bed(5, std::make_unique<sim::NormalDuration>(
                   milliseconds(1), std::chrono::microseconds(200))) {
    auto add_replica = [&](bool primary) {
      replication::ReplicaConfig config;
      config.service_time = std::make_shared<sim::FixedDuration>(milliseconds(10));
      config.lazy_update_interval = seconds(1);
      bed.add_replica(groups, primary, std::move(config), [] {
        return std::make_unique<replication::KeyValueStore>();
      });
    };
    add_replica(true);
    add_replica(true);
    add_replica(false);
    bed.start_replicas(milliseconds(10));
    handler = &bed.add_client(groups);
    sim.run_for(seconds(2));
  }

  core::ReadOnlyRegistry kv_registry() {
    core::ReadOnlyRegistry registry;
    registry.declare_read_only("get");
    return registry;
  }

  harness::Testbed bed;
  runtime::Executor& sim = bed.executor();
  replication::ServiceGroups groups = replication::ServiceGroups::for_service(1);
  ClientHandler* handler = nullptr;
};

core::QoSSpec default_qos() {
  return {.staleness_threshold = 2,
          .deadline = milliseconds(500),
          .min_probability = 0.5};
}

TEST(ServiceProxy, DeclaredMethodRoutesAsRead) {
  Fixture f;
  ServiceProxy proxy(*f.handler, f.kv_registry(), default_qos());
  // Populate.
  auto put = std::make_shared<replication::KvPut>();
  put->key = "k";
  put->value = "v";
  proxy.invoke("put", put, {});
  f.sim.run_for(seconds(1));

  InvokeOutcome outcome;
  auto get = std::make_shared<replication::KvGet>();
  get->key = "k";
  proxy.invoke("get", get, [&](const InvokeOutcome& o) { outcome = o; });
  f.sim.run_for(seconds(1));

  EXPECT_TRUE(outcome.was_read);
  auto result = net::message_cast<replication::KvResult>(outcome.result);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(*result->value, "v");
  // Reads never advance the GSN; the single put is the only update.
  EXPECT_EQ(f.bed.replica(0).gsn(), 1u);
  EXPECT_EQ(f.handler->stats().reads_completed, 1u);
  EXPECT_EQ(f.handler->stats().updates_completed, 1u);
}

TEST(ServiceProxy, ReadOutcomeFieldsSurviveConversion) {
  // InvokeOutcome is built via the converting constructor; the read-path
  // details (responder, |K|, deferred flag) must come through intact.
  Fixture f;
  ServiceProxy proxy(*f.handler, f.kv_registry(), default_qos());
  auto put = std::make_shared<replication::KvPut>();
  put->key = "k";
  put->value = "v";
  proxy.invoke("put", put, {});
  f.sim.run_for(seconds(1));

  InvokeOutcome outcome;
  auto get = std::make_shared<replication::KvGet>();
  get->key = "k";
  proxy.invoke("get", get, [&](const InvokeOutcome& o) { outcome = o; });
  f.sim.run_for(seconds(1));

  EXPECT_TRUE(outcome.was_read);
  EXPECT_TRUE(outcome.responder.valid());
  EXPECT_GE(outcome.replicas_selected, 1u);
  EXPECT_GT(outcome.response_time, sim::Duration::zero());

  // The update path defaults the read-only fields.
  InvokeOutcome update_outcome;
  auto put2 = std::make_shared<replication::KvPut>();
  put2->key = "k";
  put2->value = "w";
  proxy.invoke("put", put2,
               [&](const InvokeOutcome& o) { update_outcome = o; });
  f.sim.run_for(seconds(1));
  EXPECT_FALSE(update_outcome.was_read);
  EXPECT_FALSE(update_outcome.responder.valid());
  EXPECT_EQ(update_outcome.replicas_selected, 0u);
}

TEST(ServiceProxy, UndeclaredMethodIsAnUpdate) {
  // "If an operation is not specified as read-only, then our middleware
  // considers it to be an update operation" — even if it happens to be a
  // semantically read-like call the client forgot to declare.
  Fixture f;
  ServiceProxy proxy(*f.handler, core::ReadOnlyRegistry{}, default_qos());
  InvokeOutcome outcome;
  auto put = std::make_shared<replication::KvPut>();
  put->key = "a";
  put->value = "1";
  proxy.invoke("put", put, [&](const InvokeOutcome& o) { outcome = o; });
  f.sim.run_for(seconds(1));
  EXPECT_FALSE(outcome.was_read);
  EXPECT_EQ(f.handler->stats().updates_completed, 1u);
  EXPECT_EQ(f.handler->stats().reads_completed, 0u);
}

TEST(ServiceProxy, PerCallQoSOverridesDefault) {
  Fixture f;
  ServiceProxy proxy(*f.handler, f.kv_registry(), default_qos());
  const core::QoSSpec impossible{.staleness_threshold = 2,
                                 .deadline = milliseconds(1),
                                 .min_probability = 0.5};
  InvokeOutcome outcome;
  auto get = std::make_shared<replication::KvGet>();
  get->key = "k";
  proxy.invoke("get", get, impossible,
               [&](const InvokeOutcome& o) { outcome = o; });
  f.sim.run_for(seconds(2));
  EXPECT_TRUE(outcome.was_read);
  EXPECT_TRUE(outcome.timing_failure);  // 1 ms deadline can't be met
}

TEST(ServiceProxy, ExposesClassification) {
  Fixture f;
  ServiceProxy proxy(*f.handler, f.kv_registry(), default_qos());
  EXPECT_TRUE(proxy.is_read_only("get"));
  EXPECT_FALSE(proxy.is_read_only("put"));
  EXPECT_FALSE(proxy.is_read_only("getOrCreate"));
}

TEST(ServiceProxy, RejectsInvalidDefaultQoS) {
  Fixture f;
  core::QoSSpec bad{.staleness_threshold = 0,
                    .deadline = sim::Duration::zero(),
                    .min_probability = 0.5};
  EXPECT_THROW(ServiceProxy(*f.handler, f.kv_registry(), bad),
               InvariantViolation);
}

}  // namespace
}  // namespace aqueduct::client
