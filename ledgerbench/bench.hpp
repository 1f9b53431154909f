// Shared pieces of the ledger benchmark: the three workloads, the counts a
// run must reproduce exactly for its seed, the safety checks every run must
// pass, and the untraced harness::Scenario run the end-to-end metrics come
// from.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/schedule.hpp"
#include "harness/scenario.hpp"
#include "obs/trace.hpp"
#include "replication/replica.hpp"
#include "shard/shard_map.hpp"

namespace ledgerbench {

namespace aq = aqueduct;

/// One simulated run: a Scenario configuration plus the faults and the
/// dependability manager that run alongside it.
struct Unit {
  aq::harness::ScenarioConfig config;
  aq::fault::FaultSchedule faults;
  bool dependability = false;
};

/// One benchmark workload: independent units built from the run seed (unit
/// k of seed s runs Scenario seed 16 s + k). A pass runs every unit once;
/// QoS metrics pool the units, so they average over independent
/// trajectories.
struct Workload {
  std::string name;
  std::vector<Unit> units;
};

const std::vector<std::string>& workload_names();

/// Builds workload `name` for `seed`; nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

/// Counts that are a pure function of (workload, seed). The traced stack
/// must reproduce them exactly.
struct RunCounts {
  struct Client {
    std::uint64_t reads_completed = 0;
    std::uint64_t reads_abandoned = 0;
    std::uint64_t updates_completed = 0;
    std::uint64_t timing_failures = 0;
    bool operator==(const Client&) const = default;
  };
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::vector<Client> clients;
  bool operator==(const RunCounts&) const = default;
};

/// The safety checks of the shard and chaos sweep plans. Every counter must
/// stay 0.
struct Invariants {
  std::uint64_t liveness = 0;       // a client's operations did not all end
  std::uint64_t staleness = 0;      // replies staler than the client's `a`
  std::uint64_t gsn_conflicts = 0;  // one GSN assigned to two requests
  std::uint64_t csn_mismatches = 0;  // store version != replica CSN
  std::uint64_t divergences = 0;     // primary behind its shard's prefix
  std::uint64_t leaked_keys = 0;     // key stored on a shard that does not own it
  std::uint64_t total() const {
    return liveness + staleness + gsn_conflicts + csn_mismatches +
           divergences + leaked_keys;
  }
  std::string describe() const;
};

/// Runs the checks over a finished run. `replica(i)` returns flat slot i
/// (shard-major, slot 0 of each shard is its sequencer).
Invariants check_invariants(
    std::size_t num_shards, std::size_t servers_per_shard,
    const std::function<const aq::replication::ReplicaServer&(std::size_t)>&
        replica,
    const aq::shard::ShardMap& map,
    const std::vector<aq::harness::ClientResult>& results,
    const std::vector<aq::harness::ClientSpec>& specs);

RunCounts client_counts(const std::vector<aq::harness::ClientResult>& results);

/// What the application saw in one run.
struct QosSummary {
  std::uint64_t ops_issued = 0;
  /// Reads and updates that ended with a reply.
  std::uint64_t ops_completed = 0;
  std::uint64_t reads_attempted = 0;
  /// Completed reads that met their deadline.
  std::uint64_t reads_on_time = 0;
  std::vector<double> read_ms;

  void add(const QosSummary& other);
};

QosSummary summarize(const std::vector<aq::harness::ClientResult>& results,
                     const std::vector<aq::harness::ClientSpec>& specs);

/// One untraced harness::Scenario run.
struct RunReport {
  RunCounts counts;
  Invariants invariants;
  QosSummary qos;
  /// Thread CPU of Scenario::run(), and its split by simulated second.
  double run_cpu_s = 0.0;
  std::vector<double> cpu_slices_s;
  /// Reference kernel time before the first slice and after each slice.
  std::vector<double> kernel_s;

  /// Reference kernel time around slice `i`: the mean of the samples on
  /// either side of it.
  double slice_kernel_s(std::size_t i) const;
};

/// The TraceSink of the benchmark: counts sent messages and bytes by kind
/// (gcs heartbeats, gcs data, and every other gcs message, which is
/// membership and retransmission control).
class MessageCounter final : public aq::obs::TraceSink {
 public:
  enum Kind { kHeartbeat, kData, kMembership, kKinds };
  static constexpr std::array<const char*, kKinds> kKindNames = {
      "heartbeat", "data", "membership"};

  void on_message(const aq::obs::MessageEvent& e) override;

  std::uint64_t messages(Kind kind) const { return messages_[kind]; }
  std::uint64_t bytes(Kind kind) const { return bytes_[kind]; }
  std::uint64_t total_messages() const;
  std::uint64_t total_bytes() const;

 private:
  std::array<std::uint64_t, kKinds> messages_{};
  std::array<std::uint64_t, kKinds> bytes_{};
};

/// Runs `unit` through harness::Scenario, with `counter` subscribed to the
/// run's trace hub when it is not null.
RunReport run_scenario(const Unit& unit, MessageCounter* counter = nullptr);

/// Thread CPU time: scheduler waits on a shared machine are excluded.
double thread_cpu_seconds();

double median(std::vector<double> values);

/// CPU seconds of one run of a fixed reference kernel (about half a
/// millisecond). The kernel is throughput-bound like the program, so other
/// tenants sharing the core or its caches slow both alike.
double reference_kernel_seconds();

/// About the kernel's fastest time on a shared 4-vCPU 2.0 GHz Intel Xeon
/// VM. It only sets the scale of at_reference_speed(): a CPU figure then
/// reads roughly as thread CPU time on that VM when its neighbours are
/// quiet.
inline constexpr double kReferenceKernelSeconds = 0.45e-3;

/// `cpu_s` of program work scaled by how much the machine slowed the
/// reference kernel timed around it (`kernel_s`): the CPU seconds the work
/// would take at the reference speed.
double at_reference_speed(double cpu_s, double kernel_s);

/// CPU seconds of one run of the seed at the reference speed, robust to
/// other load on the machine. Each simulated second of each run is scaled
/// by the kernel timed around it; the sum over simulated seconds then takes
/// the median across `runs` (repeats of one seed, so every slice does
/// the same work in each).
double sliced_cpu_seconds(const std::vector<RunReport>& runs);

}  // namespace ledgerbench
