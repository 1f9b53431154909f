// Bundle of the per-simulation observability state: the metrics registry,
// the trace hub, and the SLA monitor. Owned by the net::Transport backend (every
// process of one simulation attaches to exactly one network, so it is the
// natural shared fabric); higher layers reach it through their endpoint.
#pragma once

#include "obs/metrics.hpp"
#include "obs/sla.hpp"
#include "obs/trace.hpp"

namespace aqueduct::obs {

struct Observability {
  MetricsRegistry metrics;
  TraceHub trace;
  /// Watches observed per-client timing-failure rates against each QoS
  /// spec's Pc(d); fed by the client gateway on every completed read.
  SlaMonitor sla{metrics, trace};
};

}  // namespace aqueduct::obs
