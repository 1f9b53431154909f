#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "obs/json.hpp"
#include "obs/sla.hpp"

namespace aqueduct::obs {

namespace {

std::int64_t ns_since_epoch(sim::TimePoint t) {
  return sim::since_epoch(t).count();
}

std::int64_t ns(sim::Duration d) { return d.count(); }

/// Chrome trace_event timestamps are microseconds.
double us_since_epoch(sim::TimePoint t) {
  return static_cast<double>(sim::since_epoch(t).count()) / 1000.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// JsonLinesSink
// ---------------------------------------------------------------------------

void JsonLinesSink::on_message(const MessageEvent& e) {
  JsonWriter w(os_);
  w.begin_object();
  w.field("type", "msg");
  w.field("t_ns", ns_since_epoch(e.at));
  w.field("from", e.from.value());
  w.field("to", e.to.value());
  w.field("msg", e.type_name);
  w.field("bytes", static_cast<std::uint64_t>(e.wire_size));
  w.field("dropped", e.dropped);
  w.end_object();
  os_ << '\n';
}

void JsonLinesSink::on_span(const SpanEvent& e) {
  JsonWriter w(os_);
  w.begin_object();
  w.field("type", "span");
  w.field("t_ns", ns_since_epoch(e.at));
  w.field("kind", to_string(e.kind));
  w.field("trace", e.trace.value);
  w.field("node", e.node.value());
  w.field("peer", e.peer.value());
  w.field("dur_ns", ns(e.duration));
  w.field("value", e.value);
  w.end_object();
  os_ << '\n';
}

void JsonLinesSink::on_breakdown(const BreakdownEvent& e) {
  JsonWriter w(os_);
  w.begin_object();
  w.field("type", "breakdown");
  w.field("t_ns", ns_since_epoch(e.at));
  w.field("trace", e.trace.value);
  w.field("client", e.client.value());
  w.field("replica", e.replica.value());
  w.field("read", e.is_read);
  w.field("deferred", e.deferred);
  w.field("timing_failure", e.timing_failure);
  w.field("total_ns", ns(e.total));
  w.field("client_ns", ns(e.client_overhead));
  w.field("gateway_ns", ns(e.gateway));
  w.field("queue_ns", ns(e.queueing));
  w.field("service_ns", ns(e.service));
  w.field("lazy_ns", ns(e.lazy_wait));
  w.end_object();
  os_ << '\n';
}

void JsonLinesSink::on_sla(const SlaEvent& e) {
  JsonWriter w(os_);
  w.begin_object();
  w.field("type", e.violating ? "sla_violation" : "sla_recovered");
  w.field("t_ns", ns_since_epoch(e.at));
  w.field("client", e.client.value());
  if (e.shard >= 0) w.field("shard", static_cast<std::uint64_t>(e.shard));
  w.field("spec", e.spec_index);
  w.field("failure_rate", e.failure_rate);
  w.field("wilson_lower", e.wilson_lower);
  w.field("budget", e.budget);
  w.field("window_reads", e.window_reads);
  w.field("window_failures", e.window_failures);
  w.end_object();
  os_ << '\n';
}

// ---------------------------------------------------------------------------
// ChromeTraceSink
// ---------------------------------------------------------------------------

void ChromeTraceSink::write(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();

  // Process-name metadata: one "process" per simulated node.
  std::vector<std::uint32_t> pids;
  for (const SpanEvent& e : spans_) pids.push_back(e.node.value());
  for (const MessageEvent& e : messages_) pids.push_back(e.from.value());
  std::sort(pids.begin(), pids.end());
  pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
  for (const std::uint32_t pid : pids) {
    w.begin_object();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", pid);
    w.key("args");
    w.begin_object();
    w.field("name", "node " + std::to_string(pid));
    w.end_object();
    w.end_object();
  }

  for (const SpanEvent& e : spans_) {
    w.begin_object();
    w.field("name", to_string(e.kind));
    w.field("cat", "span");
    if (e.duration > sim::Duration::zero()) {
      w.field("ph", "X");
      w.field("ts", us_since_epoch(e.at - e.duration));
      w.field("dur", static_cast<double>(e.duration.count()) / 1000.0);
    } else {
      w.field("ph", "i");
      w.field("s", "p");
      w.field("ts", us_since_epoch(e.at));
    }
    w.field("pid", e.node.value());
    w.field("tid", e.trace.value);
    w.key("args");
    w.begin_object();
    w.field("trace", e.trace.value);
    w.field("peer", e.peer.value());
    w.field("value", e.value);
    w.end_object();
    w.end_object();
  }

  for (const MessageEvent& e : messages_) {
    w.begin_object();
    w.field("name", e.type_name);
    w.field("cat", "net");
    w.field("ph", "i");
    w.field("s", "p");
    w.field("ts", us_since_epoch(e.at));
    w.field("pid", e.from.value());
    w.field("tid", std::uint64_t{0});
    w.key("args");
    w.begin_object();
    w.field("to", e.to.value());
    w.field("bytes", static_cast<std::uint64_t>(e.wire_size));
    w.field("dropped", e.dropped);
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();
}

// ---------------------------------------------------------------------------
// LatencyBreakdownCollector
// ---------------------------------------------------------------------------

LatencyBreakdownCollector::Totals LatencyBreakdownCollector::totals(
    bool reads) const {
  Totals t;
  for (const BreakdownEvent& e : events_) {
    if (e.is_read != reads) continue;
    ++t.count;
    t.client_overhead += e.client_overhead;
    t.gateway += e.gateway;
    t.queueing += e.queueing;
    t.service += e.service;
    t.lazy_wait += e.lazy_wait;
    t.total += e.total;
  }
  return t;
}

sim::Duration LatencyBreakdownCollector::max_sum_error() const {
  sim::Duration worst = sim::Duration::zero();
  for (const BreakdownEvent& e : events_) {
    const sim::Duration sum = e.client_overhead + e.gateway + e.queueing +
                              e.service + e.lazy_wait;
    const sim::Duration err = e.total >= sum ? e.total - sum : sum - e.total;
    worst = std::max(worst, err);
  }
  return worst;
}

void LatencyBreakdownCollector::write_json(std::ostream& os) const {
  auto write_side = [&](JsonWriter& w, bool reads) {
    const Totals t = totals(reads);
    std::vector<double> totals_ms;
    for (const BreakdownEvent& e : events_) {
      if (e.is_read == reads) totals_ms.push_back(sim::to_ms(e.total));
    }
    const double n = t.count == 0 ? 1.0 : static_cast<double>(t.count);
    w.begin_object();
    w.field("count", static_cast<std::uint64_t>(t.count));
    w.key("mean_ms");
    w.begin_object();
    w.field("total", sim::to_ms(t.total) / n);
    w.field("client", sim::to_ms(t.client_overhead) / n);
    w.field("gateway", sim::to_ms(t.gateway) / n);
    w.field("queueing", sim::to_ms(t.queueing) / n);
    w.field("service", sim::to_ms(t.service) / n);
    w.field("lazy_wait", sim::to_ms(t.lazy_wait) / n);
    w.end_object();
    w.key("total_ms");
    w.begin_object();
    w.field("p50", percentile(totals_ms, 0.50));
    w.field("p95", percentile(totals_ms, 0.95));
    w.field("p99", percentile(totals_ms, 0.99));
    w.end_object();
    w.end_object();
  };
  JsonWriter w(os);
  w.begin_object();
  w.key("reads");
  write_side(w, true);
  w.key("updates");
  write_side(w, false);
  w.field("max_sum_error_ns", max_sum_error().count());
  w.end_object();
}

}  // namespace aqueduct::obs
