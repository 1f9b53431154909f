#include "fault/dependability.hpp"

#include <utility>

#include "sim/check.hpp"

namespace aqueduct::fault {

DependabilityManager::DependabilityManager(runtime::Executor& exec,
                                           obs::Observability& obs,
                                           DependabilityConfig config,
                                           Hooks hooks)
    : exec_(exec),
      config_(config),
      hooks_(std::move(hooks)),
      restarts_budget_(config.max_restarts),
      stats_(&obs.metrics, "dm.") {
  AQUEDUCT_CHECK(static_cast<bool>(hooks_.num_replicas));
  AQUEDUCT_CHECK(static_cast<bool>(hooks_.alive));
  AQUEDUCT_CHECK(static_cast<bool>(hooks_.restart));
  poll_task_ = std::make_unique<runtime::PeriodicTask>(
      exec_, config_.poll_period, [this] { tick(); });
}

DependabilityManager::~DependabilityManager() { stop(); }

void DependabilityManager::start() { poll_task_->start(); }

void DependabilityManager::stop() {
  if (poll_task_) poll_task_->stop();
}

void DependabilityManager::tick() {
  stats_.inc(&DependabilityStats::polls);

  const std::size_t slots = hooks_.num_replicas();
  const std::size_t target =
      config_.target_level == 0 ? slots
                                : std::min(config_.target_level, slots);
  std::size_t live = 0;
  for (std::size_t i = 0; i < slots; ++i) {
    if (hooks_.alive(i)) ++live;
  }
  if (live + pending_.size() >= target) return;

  stats_.inc(&DependabilityStats::deficits_observed);

  // Schedule one bounded-latency restart per dead slot until the level
  // (counting restarts already in flight) reaches the target again.
  std::size_t needed = target - live - pending_.size();
  for (std::size_t i = 0; i < slots && needed > 0; ++i) {
    if (hooks_.alive(i) || pending_.contains(i)) continue;
    if (restarts_budget_ == 0) return;
    --restarts_budget_;
    --needed;
    pending_.insert(i);
    exec_.after(config_.restart_latency,
               [this, i, token = std::weak_ptr<const bool>(alive_token_)] {
                 if (token.expired()) return;
                 pending_.erase(i);
                 if (hooks_.alive(i)) return;  // raced with a manual restart
                 stats_.inc(&DependabilityStats::restarts_issued);
                 hooks_.restart(i);
               });
  }
}

}  // namespace aqueduct::fault
