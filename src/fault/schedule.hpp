// Deterministic fault schedules (the dependability manager's input).
//
// A FaultSchedule is a declarative, seed-reproducible list of fault
// injections — crashes, restarts, partitions, loss, latency spikes —
// expressed against *replica indices* and offsets from the simulation
// epoch. It replaces the ad-hoc `sim.at(..., [&]{ replica.crash(); })`
// lambdas scattered through tests and benches: the same schedule value can
// be printed, compared across runs, and replayed bit-identically.
//
// Schedules are pure data until apply() binds them to a concrete run via
// FaultTargets (callbacks into the harness plus the transport FaultInjection surface to mutate).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/transport.hpp"
#include "net/node.hpp"
#include "runtime/executor.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace aqueduct::fault {

enum class FaultKind {
  kCrash,         // fail-stop crash of `replica`
  kRestart,       // reincarnate + rejoin of `replica`
  kPartition,     // split side_a | side_b until the next kHeal
  kHeal,          // remove any active partition
  kLoss,          // set the network-wide loss probability
  kLinkLoss,      // directional loss on the (replica, peer) link
  kInboundLoss,   // loss on everything `replica` receives
  kOutboundLoss,  // loss on everything `replica` sends
  kLatencySpike,  // extra Normal(latency_mean, latency_std) delay on top of
                  // the LAN latency on all of `replica`'s links for
                  // `duration`, then back to the bare LAN model

  // Gray-failure kinds.
  kDegradeLink,       // extra Normal(latency_mean, latency_std) delay and/or
                      // `probability` loss on the directional (replica, peer)
                      // link — a slow-but-alive / lossy link
  kPartialPartition,  // blackhole (replica, peer) both directions, leaving
                      // every other link intact
  kHealLink,          // restore (replica, peer): remove the partial
                      // partition and all per-link gray overrides
  kDuplicateStorm,    // duplicate each message with `probability`
  kReorder,           // hold back messages with `probability` by a uniform
                      // extra delay in [0, latency_mean)
  kThrottleLink,      // serialize (replica, peer) sends >= latency_mean apart
  kHealGray,          // reset every gray-failure knob and all loss settings
};

const char* to_string(FaultKind kind);

/// Stable replica identity: the `slot`-th server slot of shard `shard`.
/// Slots survive reincarnation (a restarted replica keeps its SlotRef while
/// its NodeId changes), so schedules written against SlotRefs replay
/// correctly across crash/restart cycles on any shard. A bare index
/// converts implicitly to (shard 0, slot) — the single-group scenario is
/// the 1-shard special case, and every pre-shard schedule keeps meaning
/// exactly what it meant.
struct SlotRef {
  std::size_t shard = 0;
  std::size_t slot = 0;
  constexpr SlotRef() = default;
  constexpr SlotRef(std::size_t flat_slot) : slot(flat_slot) {}  // NOLINT
  constexpr SlotRef(std::size_t shard, std::size_t slot)
      : shard(shard), slot(slot) {}
  friend constexpr auto operator<=>(SlotRef, SlotRef) = default;
};

struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  /// Injection time as an offset from sim::kEpoch.
  sim::Duration at = sim::Duration::zero();
  /// Target replica slot (crash/restart/loss shaping/latency spike).
  SlotRef replica;
  /// Link-loss destination replica slot.
  SlotRef peer;
  /// Partition sides (replica slots).
  std::vector<SlotRef> side_a;
  std::vector<SlotRef> side_b;
  /// Drop probability for the loss kinds, duplicate probability for
  /// kDuplicateStorm, holdback probability for kReorder (0 clears).
  double probability = 0.0;
  /// Latency-spike / degrade-link delay distribution; doubles as the
  /// reorder window (kReorder) and the throttle min-gap (kThrottleLink).
  sim::Duration latency_mean = sim::Duration::zero();
  sim::Duration latency_std = sim::Duration::zero();
  sim::Duration duration = sim::Duration::zero();
};

/// Parameters for FaultSchedule::random(): seed-derived crash/restart
/// sequences so chaos tests sweep many distinct-but-reproducible failure
/// patterns without hand-writing each one.
struct RandomFaultParams {
  /// Replica indices [0, crash_candidates) are eligible to crash. Callers
  /// typically exclude index 0 when they want the sequencer kept alive.
  std::size_t crash_candidates = 0;
  /// Smallest eligible index (set to 1 to spare the sequencer).
  std::size_t first_candidate = 0;
  std::size_t min_crashes = 1;
  std::size_t max_crashes = 2;
  /// No crash before this offset (lets the groups settle).
  sim::Duration earliest_crash = std::chrono::seconds(5);
  /// Each successive crash lands uniformly within this window after the
  /// previous one.
  sim::Duration crash_spacing = std::chrono::seconds(20);
  /// Whether crashed replicas are restarted after an outage.
  bool restart = true;
  sim::Duration min_outage = std::chrono::seconds(5);
  sim::Duration max_outage = std::chrono::seconds(15);
  /// Optional network-wide loss episode (0 disables).
  double loss_probability = 0.0;
  sim::Duration loss_from = sim::Duration::zero();
  sim::Duration loss_until = sim::Duration::zero();
};

/// Builder for an ordered fault-injection plan. All times are offsets from
/// sim::kEpoch; events() returns them sorted by time (stable for ties).
class FaultSchedule {
 public:
  FaultSchedule& crash(SlotRef replica, sim::Duration at);
  FaultSchedule& restart(SlotRef replica, sim::Duration at);
  /// crash + restart of the same replica (restart_at > crash_at).
  FaultSchedule& crash_restart(SlotRef replica, sim::Duration crash_at,
                               sim::Duration restart_at);
  FaultSchedule& partition(std::vector<SlotRef> side_a,
                           std::vector<SlotRef> side_b, sim::Duration at);
  FaultSchedule& heal(sim::Duration at);
  FaultSchedule& loss(double probability, sim::Duration at);
  FaultSchedule& link_loss(SlotRef from, SlotRef to,
                           double probability, sim::Duration at);
  FaultSchedule& inbound_loss(SlotRef replica, double probability,
                              sim::Duration at);
  FaultSchedule& outbound_loss(SlotRef replica, double probability,
                               sim::Duration at);
  /// Extra Normal(mean, std) delay on every link of `replica`, added to
  /// the LAN latency, for `duration`.
  FaultSchedule& latency_spike(SlotRef replica, sim::Duration mean,
                               sim::Duration std, sim::Duration at,
                               sim::Duration duration);

  // --- Gray-failure builders ------------------------------------------
  // A zero `duration` means "until explicitly healed"; a positive one
  // appends the matching heal/clear event at `at + duration`, so the
  // schedule stays pure, printable data.

  /// Degrades the directional link `from` → `to`: extra
  /// Normal(extra_mean, extra_std) delay per message (if extra_mean > 0)
  /// and drop probability `loss` (if > 0). A positive duration emits a
  /// heal_link at the end, restoring the whole link.
  FaultSchedule& degrade_link(SlotRef from, SlotRef to,
                              sim::Duration extra_mean, sim::Duration extra_std,
                              double loss, sim::Duration at,
                              sim::Duration duration = sim::Duration::zero());
  /// Blackholes the (a, b) pair both directions, everyone else untouched.
  FaultSchedule& partial_partition(
      SlotRef a, SlotRef b, sim::Duration at,
      sim::Duration duration = sim::Duration::zero());
  /// Restores the (a, b) pair (partial partition + per-link overrides).
  FaultSchedule& heal_link(SlotRef a, SlotRef b, sim::Duration at);
  /// Duplicates every message with `probability` (0 ends the storm).
  FaultSchedule& duplicate_storm(double probability, sim::Duration at,
                                 sim::Duration duration = sim::Duration::zero());
  /// Holds back messages with `probability` by uniform extra delay in
  /// [0, window), letting later sends overtake them.
  FaultSchedule& reorder(double probability, sim::Duration window,
                         sim::Duration at,
                         sim::Duration duration = sim::Duration::zero());
  /// Serializes the directional link `from` → `to` to one message per
  /// `min_gap` — a slow-but-alive link (min_gap 0 clears).
  FaultSchedule& throttle_link(SlotRef from, SlotRef to,
                               sim::Duration min_gap, sim::Duration at,
                               sim::Duration duration = sim::Duration::zero());
  /// Resets every gray-failure knob and all loss settings.
  FaultSchedule& heal_gray(sim::Duration at);

  /// One entry of a WAN latency matrix: mean one-way extra delay and
  /// jitter (Normal std) for messages from one region to another.
  struct WanLink {
    sim::Duration mean = sim::Duration::zero();
    sim::Duration jitter = sim::Duration::zero();
  };

  /// Installs a WAN topology at `at`: `region_of[i]` places replica i in a
  /// region, `matrix[r][s]` describes the r → s link (zero mean = LAN-local,
  /// no override). Emits one degrade_link per ordered cross-region replica
  /// pair, so asymmetric matrices yield asymmetric links.
  FaultSchedule& wan_topology(const std::vector<std::size_t>& region_of,
                              const std::vector<std::vector<WanLink>>& matrix,
                              sim::Duration at);

  // --- Cross-shard builders -------------------------------------------

  /// Hot shard: every server slot of `shard` (slots [0, slots)) suffers a
  /// latency spike of extra Normal(extra_mean, extra_std) delay on top of
  /// the LAN latency, on all its links, for `duration` — the
  /// network-level signature of one overloaded replica group in a sharded
  /// pool.
  FaultSchedule& hot_shard(std::size_t shard, std::size_t slots,
                           sim::Duration extra_mean, sim::Duration extra_std,
                           sim::Duration at, sim::Duration duration);

  /// Correlated rack failure: slot `rack_slot` of *every* shard in
  /// [0, num_shards) crashes at `crash_at` — the groups share physical
  /// racks, so one rack loss takes the same slot from each of them — and
  /// (if restart_at > crash_at) restarts together at `restart_at`.
  FaultSchedule& correlated_rack_failure(
      std::size_t rack_slot, std::size_t num_shards, sim::Duration crash_at,
      sim::Duration restart_at = sim::Duration::zero());

  /// Derives a crash/restart plan from `seed` (same seed, same plan).
  static FaultSchedule random(std::uint64_t seed,
                              const RandomFaultParams& params);

  /// Events sorted by injection time.
  std::vector<FaultEvent> events() const;
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

 private:
  std::vector<FaultEvent> events_;
};

/// Binds a schedule to one concrete run. The callbacks translate replica
/// indices into actions on the harness's objects; `node_id` resolves the
/// *current incarnation*'s NodeId at injection time (the id of a reborn
/// replica differs from its pre-crash one). `network` is whatever
/// Transport::fault_injection() returned for the run's transport: the
/// chaos decorator over any backend, or nullptr on a bare backend, which
/// injects no faults. apply() rejects every network kind against nullptr
/// up front.
struct FaultTargets {
  std::function<void(std::size_t)> crash;
  std::function<void(std::size_t)> restart;
  std::function<net::NodeId(std::size_t)> node_id;
  net::FaultInjection* network = nullptr;
  std::size_t num_replicas = 0;
  /// Maps a (shard, slot) reference onto the flat index the callbacks
  /// above consume. Null restricts the schedule to shard 0 (identity on
  /// the slot): single-group harnesses need not provide one, and a
  /// multi-shard event against such a target fails loudly in apply().
  std::function<std::size_t(SlotRef)> slot_index;
};

/// Schedules every event of `schedule` onto `exec`. Network-affecting kinds
/// require `targets.network`; crash/restart require the matching callback.
/// Index resolution happens at fire time, so a restart followed by a
/// latency spike hits the reborn incarnation.
void apply(const FaultSchedule& schedule, runtime::Executor& exec,
           FaultTargets targets);

}  // namespace aqueduct::fault
