// Tests for the unified observability subsystem (src/obs): the metrics
// registry, the multi-subscriber trace hub, the exporters, and the
// end-to-end integration with a full scenario run.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "harness/scenario.hpp"
#include "net/loopback.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/mirrored_stats.hpp"
#include "obs/observability.hpp"
#include "obs/trace.hpp"
#include "replication/messages.hpp"
#include "sim/check.hpp"
#include "sim/simulator.hpp"

namespace aqueduct {
namespace {

using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, SameNameSharesOneCounter) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x.events");
  obs::Counter& b = reg.counter("x.events");
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc(2);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, DistinctNamesAreIndependent) {
  obs::MetricsRegistry reg;
  reg.counter("a").inc(5);
  reg.counter("b").inc(7);
  EXPECT_EQ(reg.counter("a").value(), 5u);
  EXPECT_EQ(reg.counter("b").value(), 7u);
  EXPECT_TRUE(reg.contains("a"));
  EXPECT_FALSE(reg.contains("c"));
}

TEST(MetricsRegistry, GaugeSetAndAdd) {
  obs::MetricsRegistry reg;
  obs::Gauge& g = reg.gauge("depth");
  g.set(4.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(MetricsRegistry, HistogramBoundsFixedAtFirstRegistration) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat", {1.0, 2.0, 4.0});
  // Second registration ignores the different bounds and reuses the cell.
  obs::Histogram& h2 = reg.histogram("lat", {100.0});
  EXPECT_EQ(&h, &h2);
  ASSERT_EQ(h.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(h.bounds()[2], 4.0);
}

TEST(MetricsRegistry, HistogramCountsAndMean) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  ASSERT_EQ(h.buckets().size(), 4u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
}

TEST(MetricsRegistry, HistogramQuantile) {
  obs::Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) h.observe(5.0);    // all in first bucket
  EXPECT_LE(h.quantile(0.5), 10.0);
  EXPECT_GT(h.quantile(0.5), 0.0);
  obs::Histogram empty({10.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST(MetricsRegistry, QuantileBeyondLastBoundClamps) {
  obs::Histogram h({10.0});
  h.observe(1e9);  // overflow
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 10.0);
}

TEST(MetricsRegistry, WriteJsonIsWellFormedAndSorted) {
  obs::MetricsRegistry reg;
  reg.counter("z.last").inc(1);
  reg.counter("a.first").inc(2);
  reg.gauge("m.gauge").set(1.5);
  reg.histogram("h.lat", {1.0, 2.0}).observe(1.5);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // std::map iteration => name-sorted output.
  EXPECT_LT(json.find("\"a.first\":2"), json.find("\"z.last\":1"));
  EXPECT_NE(json.find("\"m.gauge\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"h.lat\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(MetricsRegistry, KindMismatchIsAnInvariantViolation) {
  obs::MetricsRegistry reg;
  reg.counter("dual");
  EXPECT_THROW(reg.gauge("dual"), InvariantViolation);
  EXPECT_THROW(reg.histogram("dual"), InvariantViolation);
  reg.histogram("h");
  EXPECT_THROW(reg.counter("h"), InvariantViolation);
}

// ---------------------------------------------------------------------------
// JSON writer determinism helpers
// ---------------------------------------------------------------------------

TEST(JsonWriter, EscapesAndNests) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("s", std::string("a\"b\\c\n"));
  w.key("arr");
  w.begin_array();
  w.element(std::uint64_t{1});
  w.element(2.5);
  w.element(true);
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(), "{\"s\":\"a\\\"b\\\\c\\n\",\"arr\":[1,2.5,true]}");
}

TEST(JsonWriter, IntegralDoublesHaveNoFraction) {
  EXPECT_EQ(obs::json_number(3.0), "3");
  EXPECT_EQ(obs::json_number(-2.0), "-2");
  EXPECT_EQ(obs::json_number(0.5), "0.5");
}

// ---------------------------------------------------------------------------
// TraceHub
// ---------------------------------------------------------------------------

struct CountingSink final : obs::TraceSink {
  int messages = 0;
  int spans = 0;
  int breakdowns = 0;
  void on_message(const obs::MessageEvent&) override { ++messages; }
  void on_span(const obs::SpanEvent&) override { ++spans; }
  void on_breakdown(const obs::BreakdownEvent&) override { ++breakdowns; }
};

TEST(TraceHub, MultipleSubscribersAllNotified) {
  obs::TraceHub hub;
  CountingSink a, b, c;
  EXPECT_FALSE(hub.active());
  hub.add(&a);
  hub.add(&b);
  hub.add(&c);
  EXPECT_TRUE(hub.active());
  EXPECT_EQ(hub.num_sinks(), 3u);
  hub.span(obs::SpanEvent{});
  hub.message(obs::MessageEvent{});
  hub.breakdown(obs::BreakdownEvent{});
  for (const CountingSink* s : {&a, &b, &c}) {
    EXPECT_EQ(s->messages, 1);
    EXPECT_EQ(s->spans, 1);
    EXPECT_EQ(s->breakdowns, 1);
  }
}

TEST(TraceHub, RemoveStopsDelivery) {
  obs::TraceHub hub;
  CountingSink a, b;
  hub.add(&a);
  hub.add(&b);
  hub.span(obs::SpanEvent{});
  hub.remove(&a);
  hub.span(obs::SpanEvent{});
  EXPECT_EQ(a.spans, 1);
  EXPECT_EQ(b.spans, 2);
  hub.remove(&b);
  EXPECT_FALSE(hub.active());
}

TEST(TraceHub, RemovingUnknownSinkIsHarmless) {
  obs::TraceHub hub;
  CountingSink a;
  hub.remove(&a);  // never added
  EXPECT_FALSE(hub.active());
}

// ---------------------------------------------------------------------------
// Network trace events through the hub
// ---------------------------------------------------------------------------

struct PingMsg final : net::Message {
  std::string type_name() const override { return "test.ping"; }
  std::size_t wire_size() const override { return 100; }
};

struct NullEndpoint final : net::Endpoint {
  void on_message(net::NodeId, net::MessagePtr) override {}
};

TEST(NetworkStats, SnapshotAssembledFromRegistry) {
  sim::Simulator sim(1);
  net::LoopbackTransport network(sim, std::make_unique<sim::FixedDuration>(milliseconds(1)));
  NullEndpoint a, b;
  const net::NodeId ida = network.attach(a);
  const net::NodeId idb = network.attach(b);
  network.send(ida, idb, std::make_shared<PingMsg>());
  sim.run();
  const net::TransportStats stats = network.stats();
  EXPECT_EQ(stats.messages_sent, 1u);
  EXPECT_EQ(stats.messages_delivered, 1u);
  EXPECT_EQ(stats.bytes_sent, 100u);
  EXPECT_EQ(network.metrics().counter("net.messages_sent").value(), 1u);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(JsonLinesSink, EmitsOneValidObjectPerEvent) {
  std::ostringstream os;
  obs::JsonLinesSink sink(os);

  obs::SpanEvent span;
  span.trace = obs::TraceId{7};
  span.kind = obs::SpanKind::kExecute;
  span.at = sim::kEpoch + milliseconds(5);
  span.duration = milliseconds(2);
  span.node = net::NodeId{3};
  sink.on_span(span);

  obs::MessageEvent msg;
  msg.at = sim::kEpoch + milliseconds(6);
  msg.from = net::NodeId{1};
  msg.to = net::NodeId{2};
  msg.type_name = "repl.read";
  msg.wire_size = 40;
  msg.dropped = "loss";
  sink.on_message(msg);

  const std::string out = os.str();
  std::istringstream lines(out);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(count, 2);
  EXPECT_NE(out.find("\"kind\":\"execute\""), std::string::npos);
  EXPECT_NE(out.find("\"trace\":7"), std::string::npos);
  EXPECT_NE(out.find("\"dur_ns\":2000000"), std::string::npos);
  EXPECT_NE(out.find("\"msg\":\"repl.read\""), std::string::npos);
  EXPECT_NE(out.find("\"dropped\":\"loss\""), std::string::npos);
}

TEST(ChromeTraceSink, WritesTraceEventEnvelope) {
  obs::ChromeTraceSink sink;
  obs::SpanEvent span;
  span.trace = obs::TraceId{1};
  span.kind = obs::SpanKind::kExecute;
  span.at = sim::kEpoch + milliseconds(10);
  span.duration = milliseconds(3);
  span.node = net::NodeId{4};
  sink.on_span(span);
  obs::SpanEvent instant;
  instant.trace = obs::TraceId{1};
  instant.kind = obs::SpanKind::kIssue;
  instant.at = sim::kEpoch + milliseconds(1);
  instant.node = net::NodeId{2};
  sink.on_span(instant);

  std::ostringstream os;
  sink.write(os);
  const std::string json = os.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete event
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant event
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process metadata
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_EQ(sink.num_events(), 2u);
}

TEST(LatencyBreakdownCollector, TotalsAndSumInvariant) {
  obs::LatencyBreakdownCollector collector;
  obs::BreakdownEvent e;
  e.is_read = true;
  e.total = milliseconds(10);
  e.client_overhead = milliseconds(1);
  e.gateway = milliseconds(2);
  e.queueing = milliseconds(3);
  e.service = milliseconds(4);
  e.lazy_wait = sim::Duration::zero();
  collector.on_breakdown(e);
  e.is_read = false;
  e.total = milliseconds(20);
  e.service = milliseconds(14);
  collector.on_breakdown(e);

  const auto reads = collector.totals(true);
  EXPECT_EQ(reads.count, 1u);
  EXPECT_EQ(reads.total, milliseconds(10));
  EXPECT_EQ(reads.service, milliseconds(4));
  const auto updates = collector.totals(false);
  EXPECT_EQ(updates.count, 1u);
  EXPECT_EQ(updates.total, milliseconds(20));
  EXPECT_EQ(collector.max_sum_error(), sim::Duration::zero());

  // A fudged event shows up in the invariant check.
  e.gateway = milliseconds(5);
  collector.on_breakdown(e);
  EXPECT_EQ(collector.max_sum_error(), milliseconds(3));
}

// ---------------------------------------------------------------------------
// End-to-end: trace a full scenario
// ---------------------------------------------------------------------------

struct RecordingSink final : obs::TraceSink {
  std::map<std::uint64_t, std::set<obs::SpanKind>> kinds_by_trace;
  std::vector<obs::BreakdownEvent> breakdowns;
  int messages = 0;
  void on_message(const obs::MessageEvent&) override { ++messages; }
  void on_span(const obs::SpanEvent& e) override {
    kinds_by_trace[e.trace.value].insert(e.kind);
  }
  void on_breakdown(const obs::BreakdownEvent& e) override {
    breakdowns.push_back(e);
  }
};

TEST(ObservabilityIntegration, EveryRequestLinksItsPipelineByTraceId) {
  harness::ScenarioConfig config;
  config.seed = 11;
  config.num_primaries = 2;
  config.num_secondaries = 2;
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 2,
              .deadline = milliseconds(200),
              .min_probability = 0.9},
      .request_delay = milliseconds(200),
      .num_requests = 40,
  });
  harness::Scenario scenario(std::move(config));
  RecordingSink sink;
  obs::LatencyBreakdownCollector collector;
  scenario.observability().trace.add(&sink);
  scenario.observability().trace.add(&collector);
  auto results = scenario.run();
  scenario.observability().trace.remove(&sink);
  scenario.observability().trace.remove(&collector);

  ASSERT_EQ(results.size(), 1u);
  const auto& stats = results[0].stats;
  EXPECT_EQ(stats.reads_completed + stats.reads_abandoned, 20u);
  EXPECT_GT(sink.messages, 0);

  // One breakdown per completed request, each satisfying the exact-sum
  // invariant and linked to the full span pipeline by its TraceId.
  EXPECT_EQ(sink.breakdowns.size(),
            stats.reads_completed + stats.updates_completed);
  EXPECT_EQ(collector.max_sum_error(), sim::Duration::zero());
  for (const obs::BreakdownEvent& b : sink.breakdowns) {
    ASSERT_TRUE(b.trace.valid());
    const auto it = sink.kinds_by_trace.find(b.trace.value);
    ASSERT_NE(it, sink.kinds_by_trace.end());
    const std::set<obs::SpanKind>& kinds = it->second;
    EXPECT_TRUE(kinds.contains(obs::SpanKind::kIssue));
    EXPECT_TRUE(kinds.contains(obs::SpanKind::kSend));
    EXPECT_TRUE(kinds.contains(obs::SpanKind::kDeliver));
    EXPECT_TRUE(kinds.contains(obs::SpanKind::kExecute));
    EXPECT_TRUE(kinds.contains(obs::SpanKind::kReply));
    EXPECT_TRUE(kinds.contains(obs::SpanKind::kReceive));
    EXPECT_TRUE(kinds.contains(obs::SpanKind::kComplete));
    EXPECT_EQ(b.total, b.client_overhead + b.gateway + b.queueing + b.service +
                           b.lazy_wait);
  }
}

/// Expects each counter field of `sum` to equal `reg`'s counter named
/// `prefix` + field name; returns how many it checked.
template <typename S>
std::size_t expect_mirrored(obs::MetricsRegistry& reg,
                            const std::string& prefix, S sum) {
  std::size_t checked = 0;
  auto check = [&](std::string_view name, const auto& field) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(field)>,
                                 std::uint64_t>) {
      const std::string metric = prefix + std::string(name);
      ASSERT_TRUE(reg.contains(metric)) << metric;
      EXPECT_EQ(reg.counter(metric).value(), field) << metric;
      ++checked;
    }
  };
  sum.fields(check);
  return checked;
}

TEST(ObservabilityIntegration, RegistryAggregatesAcrossInstances) {
  harness::ScenarioConfig config;
  config.seed = 5;
  config.num_primaries = 2;
  config.num_secondaries = 2;
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 4,
              .deadline = milliseconds(300),
              .min_probability = 0.5},
      .request_delay = milliseconds(300),
      .num_requests = 20,
  });
  harness::Scenario scenario(std::move(config));
  auto results = scenario.run();

  obs::MetricsRegistry& reg = scenario.observability().metrics;
  // Registry-wide counters equal the sum of the per-instance views, for
  // every counter field a stats struct lists.
  replication::ReplicaStats replicas;
  for (std::size_t i = 0; i < scenario.num_replicas(); ++i) {
    obs::add_fields(replicas, scenario.replica(i).stats());
  }
  client::ClientStats clients;
  for (std::size_t w = 0; w < scenario.num_workloads(); ++w) {
    obs::add_fields(clients, scenario.workload(w).handler().stats());
  }
  EXPECT_EQ(expect_mirrored(reg, "repl.", replicas), 13u);
  EXPECT_EQ(expect_mirrored(reg, "client.", clients), 13u);
  EXPECT_GT(replicas.reads_served, 0u);
  EXPECT_GT(replicas.updates_committed, 0u);
  EXPECT_EQ(clients.reads_issued, results[0].stats.reads_issued);
  EXPECT_GT(reg.counter("gcs.delivered").value(), 0u);
  EXPECT_GT(reg.counter("net.messages_sent").value(), 0u);
  EXPECT_GT(reg.histogram("repl.service_ms").count(), 0u);
  EXPECT_GT(reg.histogram("client.read_response_ms").count(), 0u);

  // The network-level view matches the registry too.
  EXPECT_EQ(scenario.transport_stats().messages_sent,
            reg.counter("net.messages_sent").value());
}

TEST(ObservabilityIntegration, TraceIdDerivation) {
  const replication::RequestId id{net::NodeId{9}, 1234};
  const obs::TraceId t = replication::trace_of(id);
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.value, (std::uint64_t{9} << 40) | 1234u);
  // Distinct clients and sequence numbers never collide (within 40 bits).
  EXPECT_NE(replication::trace_of({net::NodeId{9}, 1235}).value, t.value);
  EXPECT_NE(replication::trace_of({net::NodeId{10}, 1234}).value, t.value);
}

}  // namespace
}  // namespace aqueduct
