// The traced run: rebuilds the harness::Scenario stack of a workload from
// public constructors, with timing decorators at each layer boundary, and
// turns the recorded spans into per-layer metrics and a CPU ledger.
//
// harness::Scenario has no injection seam, so the traced stack repeats its
// construction order, RNG splits and staggered start exactly; main.cpp
// checks that the traced run reproduces the untraced run's counts. The
// decorators are
//   * a forwarding net::Transport timing send()/multicast() and wrapping
//     every attached endpoint to time on_message(), keyed by message type,
//     payload type and node role;
//   * one runtime::Executor view per component (net, gcs, replication,
//     client, fault) that wraps scheduled callbacks in tagged spans and
//     forwards rng() untouched;
//   * a timing core::ReplicaSelector installed through ClientSpec::selector.
// The fourth decorator, the obs::TraceSink counting messages and bytes per
// type (bench.hpp), rides on a separate untraced run: the loopback encodes
// every message once more for a trace subscriber, and in the timed run that
// encode would be charged to net.send.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace ledgerbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One ledger row: self time of a group of spans.
struct LedgerRow {
  std::string name;
  std::string layer;
  double self_ns = 0.0;
};

/// One traced run of a unit, or the sum over the units of one pass (then
/// `counts` and `invariants` stay empty: they are checked per unit).
struct TracedReport {
  RunCounts counts;
  Invariants invariants;
  /// Whether every executed callback went through an executor view (the
  /// per-component event split is complete).
  bool views_cover_events = true;
  double run_cpu_s = 0.0;

  // Additive raw quantities; add_unit() sums them over a pass.
  double units = 0.0;
  double wall_ns = 0.0;
  /// Wall time inside top-level spans (the rest is the event queue).
  double root_ns = 0.0;
  double requests = 0.0;
  double messages = 0.0;
  double convolutions = 0.0;
  double restarts = 0.0;
  /// Summed over units; layer_metrics() divides by `units`.
  double shard_load_max_over_mean = 0.0;
  /// Indexed by the fixed tables of traced.cpp: span name, executor view,
  /// heartbeat group kind and registry counter.
  std::vector<double> self_ns;
  std::vector<double> span_counts;
  std::vector<double> view_callbacks;
  std::vector<double> heartbeats;
  std::vector<double> registry;
  /// Buckets of the repl.queueing_ms histogram.
  std::vector<double> queue_bounds;
  std::vector<std::uint64_t> queue_buckets;
};

/// Runs `unit` through the traced stack. When `spans_out` is not empty the
/// spans are written there as tab-separated text at the end of the run.
TracedReport run_traced(const Unit& unit, const std::string& spans_out);

/// Adds one unit's traced run to the report of its pass.
void add_unit(TracedReport& pass, const TracedReport& unit);

/// Per-layer metrics of one pass.
std::vector<Metric> layer_metrics(const TracedReport& pass);

/// Ledger rows (self time per row) of one pass; they sum to its wall time.
std::vector<LedgerRow> ledger_rows(const TracedReport& pass);

/// Fig. 3-style table (layer, self us/req, share of traced CPU), medians
/// over the passes.
std::string format_ledger(const std::string& workload,
                          const std::vector<TracedReport>& passes);

}  // namespace ledgerbench
