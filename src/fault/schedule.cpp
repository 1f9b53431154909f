#include "fault/schedule.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "sim/check.hpp"

namespace aqueduct::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kHeal: return "heal";
    case FaultKind::kLoss: return "loss";
    case FaultKind::kLatencySpike: return "latency_spike";
    case FaultKind::kDegradeLink: return "degrade_link";
    case FaultKind::kPartialPartition: return "partial_partition";
    case FaultKind::kHealLink: return "heal_link";
    case FaultKind::kDuplicateStorm: return "duplicate_storm";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kThrottleLink: return "throttle_link";
    case FaultKind::kHealGray: return "heal_gray";
  }
  return "unknown";
}

namespace {
/// Kinds that act on the whole network and need no replica-index → NodeId
/// resolution.
bool is_global(FaultKind kind) {
  switch (kind) {
    case FaultKind::kHeal:
    case FaultKind::kLoss:
    case FaultKind::kDuplicateStorm:
    case FaultKind::kReorder:
    case FaultKind::kHealGray:
      return true;
    default:
      return false;
  }
}
}  // namespace

FaultSchedule& FaultSchedule::crash(SlotRef replica, sim::Duration at) {
  FaultEvent e;
  e.kind = FaultKind::kCrash;
  e.at = at;
  e.replica = replica;
  events_.push_back(std::move(e));
  return *this;
}

FaultSchedule& FaultSchedule::restart(SlotRef replica, sim::Duration at) {
  FaultEvent e;
  e.kind = FaultKind::kRestart;
  e.at = at;
  e.replica = replica;
  events_.push_back(std::move(e));
  return *this;
}

FaultSchedule& FaultSchedule::crash_restart(SlotRef replica,
                                            sim::Duration crash_at,
                                            sim::Duration restart_at) {
  AQUEDUCT_CHECK_MSG(restart_at > crash_at,
                     "restart must come after the crash");
  crash(replica, crash_at);
  return restart(replica, restart_at);
}

FaultSchedule& FaultSchedule::partition(std::vector<SlotRef> side_a,
                                        std::vector<SlotRef> side_b,
                                        sim::Duration at) {
  FaultEvent e;
  e.kind = FaultKind::kPartition;
  e.at = at;
  e.side_a = std::move(side_a);
  e.side_b = std::move(side_b);
  events_.push_back(std::move(e));
  return *this;
}

FaultSchedule& FaultSchedule::heal(sim::Duration at) {
  FaultEvent e;
  e.kind = FaultKind::kHeal;
  e.at = at;
  events_.push_back(std::move(e));
  return *this;
}

FaultSchedule& FaultSchedule::loss(double probability, sim::Duration at) {
  FaultEvent e;
  e.kind = FaultKind::kLoss;
  e.at = at;
  e.probability = probability;
  events_.push_back(std::move(e));
  return *this;
}

FaultSchedule& FaultSchedule::latency_spike(SlotRef replica,
                                            sim::Duration mean,
                                            sim::Duration std,
                                            sim::Duration at,
                                            sim::Duration duration) {
  AQUEDUCT_CHECK(duration > sim::Duration::zero());
  FaultEvent e;
  e.kind = FaultKind::kLatencySpike;
  e.at = at;
  e.replica = replica;
  e.latency_mean = mean;
  e.latency_std = std;
  e.duration = duration;
  events_.push_back(std::move(e));
  return *this;
}

FaultSchedule& FaultSchedule::degrade_link(SlotRef from, SlotRef to,
                                           sim::Duration extra_mean,
                                           sim::Duration extra_std, double loss,
                                           sim::Duration at,
                                           sim::Duration duration) {
  AQUEDUCT_CHECK_MSG(extra_mean > sim::Duration::zero() || loss > 0.0,
                     "degrade_link with neither extra delay nor loss");
  FaultEvent e;
  e.kind = FaultKind::kDegradeLink;
  e.at = at;
  e.replica = from;
  e.peer = to;
  e.probability = loss;
  e.latency_mean = extra_mean;
  e.latency_std = extra_std;
  events_.push_back(std::move(e));
  if (duration > sim::Duration::zero()) heal_link(from, to, at + duration);
  return *this;
}

FaultSchedule& FaultSchedule::partial_partition(SlotRef a, SlotRef b,
                                                sim::Duration at,
                                                sim::Duration duration) {
  FaultEvent e;
  e.kind = FaultKind::kPartialPartition;
  e.at = at;
  e.replica = a;
  e.peer = b;
  events_.push_back(std::move(e));
  if (duration > sim::Duration::zero()) heal_link(a, b, at + duration);
  return *this;
}

FaultSchedule& FaultSchedule::heal_link(SlotRef a, SlotRef b,
                                        sim::Duration at) {
  FaultEvent e;
  e.kind = FaultKind::kHealLink;
  e.at = at;
  e.replica = a;
  e.peer = b;
  events_.push_back(std::move(e));
  return *this;
}

FaultSchedule& FaultSchedule::duplicate_storm(double probability,
                                              sim::Duration at,
                                              sim::Duration duration) {
  FaultEvent e;
  e.kind = FaultKind::kDuplicateStorm;
  e.at = at;
  e.probability = probability;
  events_.push_back(std::move(e));
  if (duration > sim::Duration::zero() && probability > 0.0) {
    duplicate_storm(0.0, at + duration);
  }
  return *this;
}

FaultSchedule& FaultSchedule::reorder(double probability, sim::Duration window,
                                      sim::Duration at, sim::Duration duration) {
  AQUEDUCT_CHECK_MSG(window > sim::Duration::zero(),
                     "reorder needs a positive window");
  FaultEvent e;
  e.kind = FaultKind::kReorder;
  e.at = at;
  e.probability = probability;
  e.latency_mean = window;
  events_.push_back(std::move(e));
  if (duration > sim::Duration::zero() && probability > 0.0) {
    reorder(0.0, window, at + duration);
  }
  return *this;
}

FaultSchedule& FaultSchedule::throttle_link(SlotRef from, SlotRef to,
                                            sim::Duration min_gap,
                                            sim::Duration at,
                                            sim::Duration duration) {
  FaultEvent e;
  e.kind = FaultKind::kThrottleLink;
  e.at = at;
  e.replica = from;
  e.peer = to;
  e.latency_mean = min_gap;
  events_.push_back(std::move(e));
  if (duration > sim::Duration::zero() && min_gap > sim::Duration::zero()) {
    throttle_link(from, to, sim::Duration::zero(), at + duration);
  }
  return *this;
}

FaultSchedule& FaultSchedule::heal_gray(sim::Duration at) {
  FaultEvent e;
  e.kind = FaultKind::kHealGray;
  e.at = at;
  events_.push_back(std::move(e));
  return *this;
}

FaultSchedule& FaultSchedule::hot_shard(std::size_t shard, std::size_t slots,
                                        sim::Duration extra_mean,
                                        sim::Duration extra_std,
                                        sim::Duration at,
                                        sim::Duration duration) {
  AQUEDUCT_CHECK_MSG(slots > 0, "hot_shard needs at least one slot");
  for (std::size_t slot = 0; slot < slots; ++slot) {
    latency_spike(SlotRef{shard, slot}, extra_mean, extra_std, at, duration);
  }
  return *this;
}

FaultSchedule& FaultSchedule::correlated_rack_failure(std::size_t rack_slot,
                                                      std::size_t num_shards,
                                                      sim::Duration crash_at,
                                                      sim::Duration restart_at) {
  AQUEDUCT_CHECK_MSG(num_shards > 0, "correlated rack failure needs shards");
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    if (restart_at > crash_at) {
      crash_restart(SlotRef{shard, rack_slot}, crash_at, restart_at);
    } else {
      crash(SlotRef{shard, rack_slot}, crash_at);
    }
  }
  return *this;
}

FaultSchedule FaultSchedule::random(std::uint64_t seed,
                                    const RandomFaultParams& params) {
  AQUEDUCT_CHECK_MSG(params.crash_candidates > 0, "no eligible crash candidates");
  AQUEDUCT_CHECK(params.min_crashes <= params.max_crashes);
  sim::Rng rng(seed);
  FaultSchedule schedule;

  const std::size_t span = params.max_crashes - params.min_crashes + 1;
  const std::size_t crashes =
      params.min_crashes + static_cast<std::size_t>(rng.uniform_int(span));

  sim::Duration cursor = params.earliest_crash;
  for (std::size_t i = 0; i < crashes; ++i) {
    // Drawn independently: a replica may be drawn again, even before its
    // restart fires.
    const auto victim = static_cast<std::size_t>(rng.uniform_int(params.crash_candidates));
    const auto spacing_ms = static_cast<double>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            params.crash_spacing)
            .count());
    cursor += std::chrono::duration_cast<sim::Duration>(
        std::chrono::duration<double, std::milli>(
            rng.uniform(0.0, spacing_ms)));
    schedule.crash(victim, cursor);

    const auto min_ms = static_cast<double>(
        std::chrono::duration_cast<std::chrono::milliseconds>(params.min_outage).count());
    const auto max_ms = static_cast<double>(
        std::chrono::duration_cast<std::chrono::milliseconds>(params.max_outage).count());
    const sim::Duration outage = std::chrono::duration_cast<sim::Duration>(
        std::chrono::duration<double, std::milli>(
            rng.uniform(min_ms, std::max(min_ms, max_ms))));
    schedule.restart(victim, cursor + outage);
  }

  if (params.loss_probability > 0.0 &&
      params.loss_until > params.loss_from) {
    schedule.loss(params.loss_probability, params.loss_from);
    schedule.loss(0.0, params.loss_until);
  }
  return schedule;
}

std::vector<FaultEvent> FaultSchedule::events() const {
  std::vector<FaultEvent> sorted = events_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  return sorted;
}

void apply(const FaultSchedule& schedule, runtime::Executor& exec,
           FaultTargets targets) {
  auto shared = std::make_shared<FaultTargets>(std::move(targets));
  for (const FaultEvent& event : schedule.events()) {
    const bool needs_network = event.kind != FaultKind::kCrash &&
                               event.kind != FaultKind::kRestart;
    if (needs_network) {
      AQUEDUCT_CHECK_MSG(
          shared->network != nullptr,
          "schedule injects '"
              << to_string(event.kind) << "' at " << sim::format(event.at)
              << " but Transport::fault_injection() returned nullptr — a "
                 "bare backend injects no faults (wrap it via "
                 "net::make_chaos_transport() to get an injectable surface)");
      AQUEDUCT_CHECK_MSG(static_cast<bool>(shared->node_id) ||
                             is_global(event.kind),
                         "fault schedule needs a node_id resolver");
    }
    exec.at(sim::kEpoch + event.at, [event, shared, &exec] {
      net::FaultInjection* net = shared->network;
      // (shard, slot) -> flat index. Without a resolver only shard 0 is
      // addressable and the slot doubles as the flat index (the pre-shard
      // contract).
      const auto flat = [&shared](SlotRef ref) {
        if (shared->slot_index) return shared->slot_index(ref);
        AQUEDUCT_CHECK_MSG(ref.shard == 0,
                           "fault event targets shard "
                               << ref.shard
                               << " but FaultTargets has no slot_index "
                                  "resolver (single-group harness)");
        return ref.slot;
      };
      const auto node_of = [&shared, &flat](SlotRef ref) {
        return shared->node_id(flat(ref));
      };
      switch (event.kind) {
        case FaultKind::kCrash:
          AQUEDUCT_CHECK_MSG(static_cast<bool>(shared->crash),
                             "fault schedule needs a crash callback");
          shared->crash(flat(event.replica));
          break;
        case FaultKind::kRestart:
          AQUEDUCT_CHECK_MSG(static_cast<bool>(shared->restart),
                             "fault schedule needs a restart callback");
          shared->restart(flat(event.replica));
          break;
        case FaultKind::kPartition: {
          std::vector<net::NodeId> a, b;
          a.reserve(event.side_a.size());
          b.reserve(event.side_b.size());
          for (const SlotRef ref : event.side_a)
            a.push_back(node_of(ref));
          for (const SlotRef ref : event.side_b)
            b.push_back(node_of(ref));
          net->partition(std::move(a), std::move(b));
          break;
        }
        case FaultKind::kHeal:
          net->heal();
          break;
        case FaultKind::kLoss:
          net->set_loss_probability(event.probability);
          break;
        case FaultKind::kLatencySpike: {
          const net::NodeId node = node_of(event.replica);
          net->set_node_latency(node, std::make_shared<sim::NormalDuration>(
                                          event.latency_mean,
                                          event.latency_std));
          exec.after(event.duration,
                    [node, net] { net->clear_node_latency(node); });
          break;
        }
        case FaultKind::kDegradeLink: {
          const net::NodeId from = node_of(event.replica);
          const net::NodeId to = node_of(event.peer);
          if (event.latency_mean > sim::Duration::zero()) {
            net->set_link_delay(from, to,
                                std::make_shared<sim::NormalDuration>(
                                    event.latency_mean, event.latency_std));
          }
          if (event.probability > 0.0) {
            net->set_link_loss(from, to, event.probability);
          }
          break;
        }
        case FaultKind::kPartialPartition:
          net->partial_partition(node_of(event.replica),
                                 node_of(event.peer));
          break;
        case FaultKind::kHealLink:
          net->heal_link(node_of(event.replica),
                         node_of(event.peer));
          break;
        case FaultKind::kDuplicateStorm:
          net->set_duplicate_probability(event.probability);
          break;
        case FaultKind::kReorder:
          net->set_reorder(event.probability, event.latency_mean);
          break;
        case FaultKind::kThrottleLink:
          net->set_link_throttle(node_of(event.replica),
                                 node_of(event.peer),
                                 event.latency_mean);
          break;
        case FaultKind::kHealGray:
          net->heal_gray();
          break;
      }
    });
  }
}

}  // namespace aqueduct::fault
