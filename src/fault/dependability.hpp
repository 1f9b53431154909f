// Dependability manager: monitors the replication level and restarts
// crashed replicas with bounded latency (the AQuA dependability manager's
// availability-management role, scoped to this simulation's fail-stop
// model).
//
// The manager polls the harness every `poll_period`. When the number of
// live replicas drops below the target it schedules a restart for each
// crashed replica after `restart_latency` (modelling the time a real
// manager needs to notice the failure and spawn a replacement process).
// Restarts in flight are tracked so one outage never triggers a second
// replacement for the same slot.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>

#include "obs/mirrored_stats.hpp"
#include "obs/observability.hpp"
#include "runtime/executor.hpp"
#include "runtime/periodic_task.hpp"
#include "sim/time.hpp"

namespace aqueduct::fault {

struct DependabilityConfig {
  /// Desired number of live replicas; 0 means "all slots live".
  std::size_t target_level = 0;
  /// How often the manager inspects the replication level.
  sim::Duration poll_period = std::chrono::milliseconds(500);
  /// Bound on the time from a deficit being observed to the restart
  /// firing.
  sim::Duration restart_latency = std::chrono::seconds(1);
  /// Safety cap on restarts issued over the manager's lifetime.
  std::size_t max_restarts = SIZE_MAX;
};

struct DependabilityStats {
  std::uint64_t polls = 0;
  /// Polls that observed fewer live replicas than the target.
  std::uint64_t deficits_observed = 0;
  std::uint64_t restarts_issued = 0;

  template <typename V>
  void fields(V& v) {
    v("polls", polls);
    v("deficits_observed", deficits_observed);
    v("restarts_issued", restarts_issued);
  }
};

class DependabilityManager {
 public:
  /// Callbacks into the harness. `alive(i)` reports whether slot i hosts a
  /// live (started, non-crashed) replica; `restart(i)` reincarnates it.
  struct Hooks {
    std::function<std::size_t()> num_replicas;
    std::function<bool(std::size_t)> alive;
    std::function<void(std::size_t)> restart;
  };

  DependabilityManager(runtime::Executor& exec, obs::Observability& obs,
                       DependabilityConfig config, Hooks hooks);
  ~DependabilityManager();

  DependabilityManager(const DependabilityManager&) = delete;
  DependabilityManager& operator=(const DependabilityManager&) = delete;

  void start();
  void stop();

  const DependabilityStats& stats() const { return stats_.get(); }

 private:
  void tick();

  runtime::Executor& exec_;
  DependabilityConfig config_;
  Hooks hooks_;
  std::unique_ptr<runtime::PeriodicTask> poll_task_;
  /// Slots with a restart scheduled but not yet fired.
  std::unordered_set<std::size_t> pending_;
  std::size_t restarts_budget_;
  obs::MirroredStats<DependabilityStats> stats_;
  /// Weakly captured by the scheduled restart lambdas so a destroyed
  /// manager's in-flight restarts become no-ops.
  std::shared_ptr<const bool> alive_token_ = std::make_shared<bool>(true);
};

}  // namespace aqueduct::fault
