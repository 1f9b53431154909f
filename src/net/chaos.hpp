// Chaos decorator over any net::Transport: the one fault-injection layer,
// seeded-deterministic, on the send path.
//
// ChaosTransport wraps a backend (loopback or UDP) and intercepts every
// send() before it reaches the wire. Bare backends inject nothing, so
// every scripted network fault — crash-era loss and partitions as well as
// gray failures — lives here. Each message runs the same pipeline:
//
//   partition / partial-partition check  → drop
//   loss (per-link override, else max of outbound/inbound/global) → drop
//   duplication                          → one extra copy
//   extra delay (link dist → node dist → default dist)
//   reordering (extra uniform holdback in [0, window))
//   throttling (per directional link: serialize sends min_gap apart)
//   forward to the wrapped backend (immediately, or via exec.after)
//
// Every injected delay is *extra*: the backend still applies its own
// delivery latency underneath, so a slow node is the LAN model plus its
// spike. Drops are counted in the backend's own "net.messages_sent" and
// "net.messages_dropped_{loss,partition}" counters and traced with the
// "loss" / "partition" reason, as if the wire had lost them.
//
// All randomness comes from one sim::Rng split off the executor's root
// RNG, so under a SimExecutor the drop/delay/duplicate decisions are a
// deterministic function of the seed and the send sequence — the same
// seed replays the same gray failures byte-identically. Over a
// RealTimeExecutor (UDP between processes) the same code injects real
// wall-clock delay on localhost links.
//
// Only composition roots may include this header; protocol layers and
// fault schedules reach the chaos knobs through net::FaultInjection on a
// transport built with net::make_chaos_transport()
// (tools/check_layering.py enforces this).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/transport.hpp"

namespace aqueduct::net {

class ChaosTransport final : public Transport, public FaultInjection {
 public:
  /// Takes ownership of the wrapped backend. The chaos RNG is split off
  /// `inner->executor().rng()` at construction.
  explicit ChaosTransport(std::unique_ptr<Transport> inner);
  ~ChaosTransport() override;

  /// The wrapped backend (for tests and composition roots).
  Transport& inner() { return *inner_; }

  // ---- Transport ----
  NodeId attach(Endpoint& endpoint) override { return inner_->attach(endpoint); }
  void detach(NodeId id) override { inner_->detach(id); }
  bool is_attached(NodeId id) const override { return inner_->is_attached(id); }
  void send(NodeId from, NodeId to, MessagePtr msg) override;
  TransportStats stats() const override;
  obs::Observability& observability() override { return inner_->observability(); }
  runtime::Executor& executor() override { return inner_->executor(); }
  FaultInjection* fault_injection() override { return this; }

  // ---- FaultInjection: crash-era core ----
  void set_node_latency(
      NodeId node, std::shared_ptr<sim::DurationDistribution> latency) override;
  void clear_node_latency(NodeId node) override;
  void set_loss_probability(double p) override;
  void set_link_loss(NodeId from, NodeId to, double p) override;
  void clear_link_loss(NodeId from, NodeId to) override;
  void set_inbound_loss(NodeId node, double p) override;
  void set_outbound_loss(NodeId node, double p) override;
  double loss_probability(NodeId from, NodeId to) const override;
  void partition(std::vector<NodeId> side_a, std::vector<NodeId> side_b) override;
  void heal() override;

  // ---- FaultInjection: gray-failure surface ----
  void set_default_delay(
      std::shared_ptr<sim::DurationDistribution> extra) override;
  void set_link_delay(NodeId from, NodeId to,
                      std::shared_ptr<sim::DurationDistribution> extra) override;
  void clear_link_delay(NodeId from, NodeId to) override;
  void set_duplicate_probability(double p) override;
  void set_link_duplicate(NodeId from, NodeId to, double p) override;
  void clear_link_duplicate(NodeId from, NodeId to) override;
  void set_reorder_probability(double p) override;
  void set_reorder_window(sim::Duration window) override;
  void set_link_throttle(NodeId from, NodeId to, sim::Duration min_gap) override;
  void partial_partition(NodeId a, NodeId b) override;
  void heal_link(NodeId a, NodeId b) override;
  void heal_gray() override;

 private:
  using Link = std::pair<NodeId, NodeId>;
  struct LinkHash {
    std::size_t operator()(const Link& p) const noexcept {
      return std::hash<NodeId>{}(p.first) * 1000003u ^
             std::hash<NodeId>{}(p.second);
    }
  };

  bool partitioned(NodeId a, NodeId b) const;
  double duplicate_probability(NodeId from, NodeId to) const;
  /// Extra injected delay for one copy (link → node → default precedence),
  /// zero when no delay knob matches.
  sim::Duration sample_extra_delay(NodeId from, NodeId to);
  /// Delays (if needed) and forwards one copy to the wrapped backend.
  void forward_copy(NodeId from, NodeId to, MessagePtr msg);
  /// Counts and traces a message the chaos layer drops.
  void drop(NodeId from, NodeId to, const MessagePtr& msg,
            obs::Counter& reason_counter, const char* reason);

  std::unique_ptr<Transport> inner_;
  runtime::Executor& exec_;
  sim::Rng rng_;

  // Loss / partition state (per-link override authoritative, else max of
  // outbound, inbound, and global loss).
  double loss_probability_ = 0.0;
  std::unordered_map<Link, double, LinkHash> link_loss_;
  std::unordered_map<NodeId, double> inbound_loss_;
  std::unordered_map<NodeId, double> outbound_loss_;
  std::unordered_set<NodeId> partition_a_;
  std::unordered_set<NodeId> partition_b_;
  std::unordered_set<Link, LinkHash> blackholes_;  // partial partitions

  // Extra-delay state.
  std::shared_ptr<sim::DurationDistribution> default_delay_;
  std::unordered_map<Link, std::shared_ptr<sim::DurationDistribution>, LinkHash>
      link_delay_;
  std::unordered_map<NodeId, std::shared_ptr<sim::DurationDistribution>>
      node_delay_;

  // Duplication / reordering / throttling state.
  double duplicate_probability_ = 0.0;
  std::unordered_map<Link, double, LinkHash> link_duplicate_;
  double reorder_probability_ = 0.0;
  sim::Duration reorder_window_ = std::chrono::milliseconds(50);
  std::unordered_map<Link, sim::Duration, LinkHash> throttle_gap_;
  std::unordered_map<Link, sim::TimePoint, LinkHash> throttle_next_free_;

  // Outlives-check token: delayed forwards scheduled on the executor may
  // fire after this decorator is destroyed (same pattern as gcs::Member).
  std::shared_ptr<const bool> alive_;

  // Tallies in the wrapped backend's metrics registry. The send and drop
  // counters are the backend's own (the drop ones are created here when
  // the backend has none, as on UDP); the gray-only tallies exist only
  // here.
  obs::Counter& c_sent_;
  obs::Counter& c_dropped_loss_;
  obs::Counter& c_dropped_partition_;
  obs::Counter& c_duplicated_;
  obs::Counter& c_reordered_;
  obs::Counter& c_delayed_;
};

}  // namespace aqueduct::net
