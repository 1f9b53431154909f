// In-process loopback backend of net::Transport: the bare LAN model.
// Point-to-point message delivery through the executor's timer queue
// after a latency sampled per message; detaching an endpoint models a
// node crash.
//
// Under a SimExecutor this is the simulated LAN every experiment runs on
// (delivery in virtual time, deterministic per seed); under a
// RealTimeExecutor the same code delivers after real wall-clock latency.
// Messages travel as shared pointers — nothing is serialized, so the
// simulated trajectory is byte-identical to what it was before the
// Transport split. Injected faults (loss, partitions, extra delay) are the
// chaos decorator's job (net/chaos.hpp): fault_injection() is nullptr here.
//
// Only composition roots (tests, benches, examples, tools) may include
// this header; protocol layers build loopbacks through
// net::make_loopback_transport() (tools/check_layering.py enforces this).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "net/transport.hpp"

namespace aqueduct::net {

class LoopbackTransport final : public Transport {
 public:
  /// `default_latency` is sampled independently per message on every link.
  LoopbackTransport(runtime::Executor& exec,
                    std::unique_ptr<sim::DurationDistribution> default_latency);

  NodeId attach(Endpoint& endpoint) override;
  void detach(NodeId id) override;
  bool is_attached(NodeId id) const override { return endpoints_.contains(id); }
  /// Delivery is scheduled after a latency sample.
  void send(NodeId from, NodeId to, MessagePtr msg) override;
  TransportStats stats() const override;
  obs::Observability& observability() override { return obs_; }
  runtime::Executor& executor() override { return exec_; }

 private:
  runtime::Executor& exec_;
  sim::Rng rng_;
  std::unique_ptr<sim::DurationDistribution> default_latency_;
  std::unordered_map<NodeId, Endpoint*> endpoints_;
  std::uint32_t next_id_ = 1;

  obs::Observability obs_;  // must precede the instrument references below
  obs::Counter& c_sent_;
  obs::Counter& c_delivered_;
  obs::Counter& c_dropped_detached_;
  obs::Counter& c_bytes_sent_;
  obs::Histogram& h_delivery_latency_ms_;
};

}  // namespace aqueduct::net
