// Client-side gateway handler (paper Sections 5.3 and 5.4).
//
// Transparently intercepts the application's requests:
//   * update operations are multicast to the whole primary group (the
//     server handlers order and commit them);
//   * read-only operations trigger probabilistic replica selection
//     (Algorithm 1 by default) and are sent to the chosen subset plus the
//     sequencer; the first reply is delivered to the application.
// The service's ordering guarantee comes from its role map: a GroupInfo
// without a sequencer means FIFO ordering. There, reads go to the chosen
// subset alone and the staleness threshold selects the session bound (see
// core::QoSSpec); FIFO has no global version count, so the secondary-group
// staleness factor is 1 without a session bound and 0 with one.
// It measures t_0/t_m/t_p, recovers the gateway delay from the piggybacked
// t_1, maintains the information repository, detects timing failures, and
// issues the QoS-violation callback when the observed frequency of timely
// responses drops below the client's requested probability.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "client/repository.hpp"
#include "core/qos.hpp"
#include "core/selection.hpp"
#include "gcs/endpoint.hpp"
#include "obs/mirrored_stats.hpp"
#include "obs/observability.hpp"
#include "replication/messages.hpp"
#include "replication/service.hpp"
#include "sim/random.hpp"
#include "runtime/executor.hpp"

namespace aqueduct::client {

struct ClientConfig {
  /// Sliding-window length l for the performance histories.
  std::size_t window_size = 20;
  /// Replica-selection strategy; defaults to the paper's Algorithm 1.
  std::unique_ptr<core::ReplicaSelector> selector;
  /// Liveness: re-select and re-send a request that got no reply within
  /// this duration (covers crashed replicas / sequencer failover). This is
  /// the *base* of the backoff schedule: attempt n waits
  /// retry_timeout * 2^(n-1), capped at 15 s and jittered by ±10%.
  sim::Duration retry_timeout = std::chrono::seconds(2);
  /// Give up after this many retries (the outcome reports failure).
  std::uint32_t max_retries = 10;
  /// Shard tag for SLA monitoring in a sharded service: the router sets
  /// the handler's shard index so the monitor keys (client, shard, spec)
  /// and names gauges `sla.c<id>.s<shard>.spec<k>.*`. -1 (unsharded)
  /// keeps the pre-shard key and gauge names bit-for-bit.
  std::int64_t shard = -1;
};

/// Delivered to the application when a read completes (or is abandoned).
struct ReadOutcome {
  /// First reply's result; nullptr if the request was abandoned after
  /// max_retries.
  net::MessagePtr result;
  /// t_r = t_p - t_0 for the first reply (time of abandonment if none).
  sim::Duration response_time = sim::Duration::zero();
  /// True if no response arrived within the requested deadline.
  bool timing_failure = false;
  /// The replying replica performed a deferred read.
  bool deferred = false;
  /// Staleness of the state the reply was served from.
  core::Staleness staleness = 0;
  net::NodeId responder;
  /// |K| — replicas selected (excluding the sequencer).
  std::size_t replicas_selected = 0;
  /// Whether the selection's terminating condition P_K(d) >= Pc(d) held.
  bool selection_satisfied = false;
  /// The model's predicted P_K(d) at selection time.
  double predicted_probability = 0.0;

  // Per-request latency breakdown (paper Eq. 5/6, from the piggybacked
  // t1 decomposition). The components sum exactly to response_time:
  //   response_time == client_overhead + gateway + queueing + service
  //                    + lazy_wait
  // `gateway` is computed as the remainder, so after a retry it can absorb
  // the abandoned attempt and go negative. All zero when abandoned.
  sim::Duration client_overhead = sim::Duration::zero();  // t_m - t_0
  sim::Duration gateway = sim::Duration::zero();          // G (two-way)
  sim::Duration queueing = sim::Duration::zero();         // W
  sim::Duration service = sim::Duration::zero();          // S
  sim::Duration lazy_wait = sim::Duration::zero();        // U
};

struct UpdateOutcome {
  net::MessagePtr result;  // nullptr if abandoned
  sim::Duration response_time = sim::Duration::zero();
};

struct ClientStats {
  std::uint64_t reads_issued = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t reads_abandoned = 0;
  std::uint64_t updates_issued = 0;
  std::uint64_t updates_completed = 0;
  /// Updates given up after max_retries with no reply.
  std::uint64_t updates_abandoned = 0;
  std::uint64_t timing_failures = 0;
  std::uint64_t deferred_replies = 0;
  std::uint64_t retries = 0;
  /// Transmissions performed (initial sends plus retries, reads and
  /// updates alike).
  std::uint64_t transmit_attempts = 0;
  /// Sum of armed retry-backoff delays (how long the backoff schedule kept
  /// this client waiting across all attempts).
  sim::Duration total_retry_backoff = sim::Duration::zero();
  std::uint64_t staleness_violations = 0;  // replies staler than requested
  std::uint64_t replicas_selected_total = 0;
  /// Selections run, counting the initial transmission AND each retry
  /// (each runs Algorithm 1 afresh against the current pool).
  std::uint64_t selection_attempts = 0;
  sim::Duration total_response_time = sim::Duration::zero();
  sim::Duration total_update_response_time = sim::Duration::zero();

  template <typename V>
  void fields(V& v) {
    v("reads_issued", reads_issued);
    v("reads_completed", reads_completed);
    v("reads_abandoned", reads_abandoned);
    v("updates_issued", updates_issued);
    v("updates_completed", updates_completed);
    v("updates_abandoned", updates_abandoned);
    v("timing_failures", timing_failures);
    v("deferred_replies", deferred_replies);
    v("retries", retries);
    v("transmit_attempts", transmit_attempts);
    v("total_retry_backoff", total_retry_backoff);
    v("staleness_violations", staleness_violations);
    v("replicas_selected_total", replicas_selected_total);
    v("selection_attempts", selection_attempts);
    v("total_response_time", total_response_time);
    v("total_update_response_time", total_update_response_time);
  }

  double timing_failure_probability() const {
    return reads_completed == 0
               ? 0.0
               : static_cast<double>(timing_failures) /
                     static_cast<double>(reads_completed);
  }
  /// Mean |K| per selection attempt (initial transmissions and retries).
  double avg_replicas_selected() const {
    return selection_attempts == 0
               ? 0.0
               : static_cast<double>(replicas_selected_total) /
                     static_cast<double>(selection_attempts);
  }
  sim::Duration avg_response_time() const {
    return reads_completed == 0 ? sim::Duration::zero()
                                : total_response_time / static_cast<int64_t>(
                                                            reads_completed);
  }
  sim::Duration avg_update_response_time() const {
    return updates_completed == 0
               ? sim::Duration::zero()
               : total_update_response_time /
                     static_cast<int64_t>(updates_completed);
  }
};

class ClientHandler {
 public:
  using ReadCallback = std::function<void(const ReadOutcome&)>;
  using UpdateCallback = std::function<void(const UpdateOutcome&)>;
  /// Fired when the observed frequency of timely responses drops below the
  /// client's requested probability (paper Section 5.4).
  using QoSAlarm = std::function<void(double observed_failure_rate)>;

  ClientHandler(runtime::Executor& exec, gcs::Endpoint& endpoint,
                replication::ServiceGroups groups, ClientConfig config);
  ~ClientHandler();

  ClientHandler(const ClientHandler&) = delete;
  ClientHandler& operator=(const ClientHandler&) = delete;

  /// Joins the service's QoS group. Requests issued before the role map
  /// arrives are queued and sent as soon as it does.
  void start();

  /// Issues a read-only operation with the given QoS specification.
  void read(net::MessagePtr op, const core::QoSSpec& qos, ReadCallback done);

  /// Issues an update operation (ordered by the service's guarantee).
  void update(net::MessagePtr op, UpdateCallback done);

  void set_qos_alarm(QoSAlarm alarm) { alarm_ = std::move(alarm); }

  bool ready() const { return repository_.has_roles(); }
  net::NodeId id() const { return endpoint_.id(); }
  const ClientStats& stats() const { return stats_.get(); }
  const InfoRepository& repository() const { return repository_; }
  core::ReplicaSelector& selector() { return *config_.selector; }

 private:
  /// One request from interception to outcome. A request issued before
  /// the role map arrives waits in pending_ and is issued when it does.
  struct OutstandingRequest {
    bool is_read = false;
    net::MessagePtr op;
    core::QoSSpec qos;
    ReadCallback read_done;
    UpdateCallback update_done;
    sim::TimePoint t0;  // issue time
    sim::TimePoint tm;  // transmission time of the latest attempt
    std::uint32_t attempts = 0;
    bool completed = false;
    bool timing_failure = false;  // deadline timer fired with no reply
    std::size_t replicas_selected = 0;
    bool selection_satisfied = false;
    double predicted_probability = 0.0;
    sim::EventHandle deadline_timer;
    sim::EventHandle retry_timer;
  };

  /// Parks `req` until the role map arrives, or gives it a RequestId and
  /// transmits it.
  void issue(OutstandingRequest req);
  void drain_pending();
  /// Sends an attempt: a read to its selected set, an update to the
  /// primary group, either plus the sequencer.
  void transmit(const replication::RequestId& id, OutstandingRequest& req);
  void arm_retry(const replication::RequestId& id);
  void on_retry(const replication::RequestId& id);
  void on_deadline(const replication::RequestId& id);
  void on_deliver(net::NodeId from, const net::MessagePtr& msg);
  void handle_reply(const replication::Reply& reply);
  /// The request's one outcome: the first reply, or abandonment after
  /// max_retries when `reply` is null.
  void finish(const replication::RequestId& id, OutstandingRequest& req,
              const replication::Reply* reply);
  void forget_later(const replication::RequestId& id);

  // ---- observability ----
  void span(obs::SpanKind kind, const replication::RequestId& id,
            net::NodeId peer, std::uint64_t value = 0,
            sim::Duration duration = sim::Duration::zero());
  void emit_breakdown(const replication::RequestId& id,
                      const OutstandingRequest& req, const ReadOutcome& outcome);

  runtime::Executor& exec_;
  gcs::Endpoint& endpoint_;
  replication::ServiceGroups groups_;
  ClientConfig config_;
  sim::Rng rng_;
  gcs::Member* qos_member_ = nullptr;
  InfoRepository repository_;
  QoSAlarm alarm_;

  std::uint64_t next_seq_ = 0;
  /// Seq of this client's latest update: the read-your-writes horizon of
  /// a FIFO service.
  std::uint64_t last_update_seq_ = 0;
  std::unordered_map<replication::RequestId, OutstandingRequest> outstanding_;
  std::vector<OutstandingRequest> pending_;  // issued before the role map

  obs::Observability& obs_;
  obs::MirroredStats<ClientStats> stats_;
  /// Retry backoff in whole ms, each delay truncated (client.retry_backoff_ms).
  struct BackoffStats {
    std::uint64_t retry_backoff_ms = 0;
    template <typename V>
    void fields(V& v) {
      v("retry_backoff_ms", retry_backoff_ms);
    }
  };
  obs::MirroredStats<BackoffStats> backoff_;
  obs::Histogram& read_response_ms_;
  obs::Histogram& update_response_ms_;
  obs::Histogram& gateway_ms_;
};

}  // namespace aqueduct::client
