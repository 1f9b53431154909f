#include "bench.hpp"

#include <time.h>

#include <algorithm>
#include <sstream>

#include "replication/objects.hpp"
#include "sim/random.hpp"

namespace ledgerbench {

namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

// Sizes are chosen so that every pass completes at least 1000 reads (p99
// then has at least ten samples beyond it) and a pass takes a few seconds.
constexpr std::size_t kManyUnits = 2;
constexpr std::size_t kManyClients = 16;
constexpr std::size_t kManyRequests = 66;
constexpr std::size_t kBusyUnits = 2;
constexpr std::size_t kBusyClients = 4;
constexpr std::size_t kBusyRequests = 2000;
constexpr std::size_t kChurnUnits = 16;
constexpr std::size_t kChurnShards = 12;
constexpr std::size_t kChurnClients = 3;
constexpr std::size_t kChurnRequests = 350;
/// The last rolling crash of a churn unit (its clients finish after about
/// 50 simulated seconds).
constexpr auto kChurnFaultsUntil = milliseconds(45000);

/// One shard with the paper's pool (sequencer + 4 primaries + 6
/// secondaries, 100 ms service) and 16 clients at the paper's 1000 ms
/// request delay, alternating the two Fig. 4 QoS classes. The QoS group
/// holds every client, so the heartbeat plane and the per-client folding of
/// every performance publication dominate the cost.
Unit many_clients(std::uint64_t seed) {
  Unit u;
  u.config.seed = seed;
  for (std::size_t c = 0; c < kManyClients; ++c) {
    const bool loose = c % 2 == 0;
    u.config.clients.push_back(aq::harness::ClientSpec{
        .qos = {.staleness_threshold = loose ? 4u : 2u,
                .deadline = milliseconds(loose ? 200 : 140),
                .min_probability = loose ? 0.1 : 0.9},
        .request_delay = milliseconds(1000),
        .num_requests = kManyRequests,
    });
  }
  return u;
}

/// The same pool with 4 clients at zero think time and a 10 ms service
/// time. Heartbeat cost is fixed per simulated second, so spread over this
/// many requests the data path dominates. Strict clients get wide fan-out
/// and deferred reads, relaxed ones narrow fan-out from secondaries.
Unit busy_clients(std::uint64_t seed) {
  Unit u;
  u.config.seed = seed;
  u.config.service_mean = milliseconds(10);
  u.config.service_std = milliseconds(5);
  for (std::size_t c = 0; c < kBusyClients; ++c) {
    const bool strict = c % 2 == 0;
    u.config.clients.push_back(aq::harness::ClientSpec{
        .qos = {.staleness_threshold = strict ? 0u : 4u,
                .deadline = milliseconds(strict ? 30 : 60),
                .min_probability = strict ? 0.9 : 0.5},
        .request_delay = milliseconds(0),
        .num_requests = kBusyRequests,
    });
  }
  return u;
}

/// Many small replica groups under churn: 12 shards of sequencer + 1
/// primary + 2 secondaries, 3 clients over 64 keys, the dependability
/// manager on, rolling crash/restarts of secondaries plus one correlated
/// rack failure that the manager repairs. The gcs load is view changes,
/// flushes, joins and state transfer rather than steady heartbeats.
Unit sharded_churn(std::uint64_t seed) {
  Unit u;
  u.config.seed = seed;
  u.config.num_shards = kChurnShards;
  u.config.num_primaries = 1;
  u.config.num_secondaries = 2;
  u.config.lazy_update_interval = seconds(2);
  for (std::size_t c = 0; c < kChurnClients; ++c) {
    u.config.clients.push_back(aq::harness::ClientSpec{
        .qos = {.staleness_threshold = 2,
                .deadline = milliseconds(250),
                .min_probability = 0.5},
        .request_delay = milliseconds(50),
        .num_requests = kChurnRequests,
        .num_keys = 64,
    });
  }
  u.dependability = true;

  // Rolling crash/restarts visit every secondary slot of every shard in a
  // seed-shuffled round robin, one every 3-4 s, so each seed spreads the
  // same outage over the shards. Primaries are spared: with one primary per
  // shard, a primary crash leaves every client with an update abandoned
  // after max_retries, which would fail the liveness check on every seed.
  aq::sim::Rng rng(seed * 7919 + 13);
  const std::size_t first_secondary = 1 + u.config.num_primaries;
  const std::size_t secondaries = u.config.num_secondaries;
  std::vector<aq::fault::SlotRef> victims;
  for (std::size_t shard = 0; shard < kChurnShards; ++shard) {
    for (std::size_t s = 0; s < secondaries; ++s) {
      victims.emplace_back(shard, first_secondary + s);
    }
  }
  for (std::size_t i = victims.size(); i > 1; --i) {
    std::swap(victims[i - 1], victims[rng.uniform_int(i)]);
  }
  auto at = milliseconds(6000);
  for (std::size_t i = 0; at < kChurnFaultsUntil; ++i) {
    const auto outage = milliseconds(300 + 100 * rng.uniform_int(8));
    u.faults.crash_restart(victims[i % victims.size()], at, at + outage);
    at += milliseconds(3000 + 100 * rng.uniform_int(10));
  }
  // Crash only: the dependability manager brings the rack back.
  const std::size_t rack_slot = first_secondary + rng.uniform_int(secondaries);
  u.faults.correlated_rack_failure(
      rack_slot, kChurnShards, milliseconds(10000 + 500 * rng.uniform_int(60)));
  return u;
}

Workload build(std::string name, std::uint64_t seed, std::size_t units,
               Unit (*unit)(std::uint64_t)) {
  Workload w;
  w.name = std::move(name);
  for (std::uint64_t k = 0; k < units; ++k) w.units.push_back(unit(16 * seed + k));
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"many_clients", "busy_clients",
                                                 "sharded_churn"};
  return names;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  if (name == "many_clients") return build(name, seed, kManyUnits, many_clients);
  if (name == "busy_clients") return build(name, seed, kBusyUnits, busy_clients);
  if (name == "sharded_churn") return build(name, seed, kChurnUnits, sharded_churn);
  return std::nullopt;
}

std::string Invariants::describe() const {
  std::ostringstream os;
  os << "liveness=" << liveness << " staleness=" << staleness
     << " gsn_conflicts=" << gsn_conflicts
     << " csn_mismatches=" << csn_mismatches << " divergences=" << divergences
     << " leaked_keys=" << leaked_keys;
  return os.str();
}

Invariants check_invariants(
    std::size_t num_shards, std::size_t servers_per_shard,
    const std::function<const aq::replication::ReplicaServer&(std::size_t)>&
        replica,
    const aq::shard::ShardMap& map,
    const std::vector<aq::harness::ClientResult>& results,
    const std::vector<aq::harness::ClientSpec>& specs) {
  Invariants inv;
  for (std::size_t c = 0; c < results.size(); ++c) {
    const auto& stats = results[c].stats;
    const std::size_t n = specs[c].num_requests;
    if (stats.reads_completed + stats.reads_abandoned != n / 2 ||
        stats.updates_completed != (n + 1) / 2) {
      ++inv.liveness;
    }
    inv.staleness += stats.staleness_violations;
  }
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    std::uint64_t max_csn = 0;
    for (std::size_t slot = 0; slot < servers_per_shard; ++slot) {
      const auto& server = replica(shard * servers_per_shard + slot);
      inv.gsn_conflicts += server.stats().gsn_conflicts;
      // Placement holds for crashed replicas too: a misplaced key means an
      // update crossed group boundaries.
      const auto& store =
          dynamic_cast<const aq::replication::KeyValueStore&>(server.object());
      for (const auto& entry : store.entries()) {
        if (map.shard_for(entry.first) != shard) ++inv.leaked_keys;
      }
      if (server.crashed() || !server.is_primary() || server.recovering()) {
        continue;
      }
      if (store.version() != server.csn()) ++inv.csn_mismatches;
      max_csn = std::max(max_csn, server.csn());
    }
    // Committed-prefix agreement inside the shard (slot 0 = sequencer).
    for (std::size_t slot = 1; slot < servers_per_shard; ++slot) {
      const auto& server = replica(shard * servers_per_shard + slot);
      if (server.crashed() || !server.is_primary() || server.recovering()) {
        continue;
      }
      if (server.csn() + 2 < max_csn) ++inv.divergences;
    }
  }
  return inv;
}

RunCounts client_counts(const std::vector<aq::harness::ClientResult>& results) {
  RunCounts counts;
  for (const auto& r : results) {
    counts.clients.push_back({r.stats.reads_completed, r.stats.reads_abandoned,
                              r.stats.updates_completed,
                              r.stats.timing_failures});
  }
  return counts;
}

QosSummary summarize(const std::vector<aq::harness::ClientResult>& results,
                     const std::vector<aq::harness::ClientSpec>& specs) {
  QosSummary q;
  for (std::size_t c = 0; c < results.size(); ++c) {
    const auto& stats = results[c].stats;
    q.ops_issued += specs[c].num_requests;
    q.reads_attempted += specs[c].num_requests / 2;
    q.ops_completed += stats.reads_completed + stats.updates_completed;
    q.reads_on_time += stats.reads_completed - stats.timing_failures;
    for (const double s : results[c].read_response_times) {
      q.read_ms.push_back(s * 1000.0);
    }
  }
  return q;
}

void MessageCounter::on_message(const aq::obs::MessageEvent& e) {
  const Kind kind = e.type_name == "gcs.heartbeat" ? kHeartbeat
                    : e.type_name == "gcs.data"    ? kData
                                                   : kMembership;
  ++messages_[kind];
  bytes_[kind] += e.wire_size;
}

std::uint64_t MessageCounter::total_messages() const {
  return messages_[kHeartbeat] + messages_[kData] + messages_[kMembership];
}

std::uint64_t MessageCounter::total_bytes() const {
  return bytes_[kHeartbeat] + bytes_[kData] + bytes_[kMembership];
}

namespace {

/// Reads the thread CPU clock at every simulated second of a run, and times
/// the reference kernel there. Runs of one seed do identical work slice by
/// slice, so comparing them slice by slice separates the program's cost
/// from other load on the machine. The probe only reads a clock and runs
/// the kernel: it draws no randomness and touches no protocol state, and
/// its callbacks and kernel time are not counted as the run's.
class CpuProbe {
 public:
  void start(aq::runtime::Executor& exec) {
    exec_ = &exec;
    kernel_s_.push_back(reference_kernel_seconds());
    begin_ = thread_cpu_seconds();
    arm();
  }
  /// Ends the last slice and hands the slices over.
  void finish(RunReport& report) {
    end_slice();
    report.cpu_slices_s = std::move(slices_);
    report.kernel_s = std::move(kernel_s_);
  }
  std::uint64_t callbacks() const { return callbacks_; }

 private:
  void arm() {
    exec_->after(std::chrono::seconds(1), [this] {
      ++callbacks_;
      end_slice();
      arm();
    });
  }
  void end_slice() {
    slices_.push_back(thread_cpu_seconds() - begin_);
    kernel_s_.push_back(reference_kernel_seconds());
    begin_ = thread_cpu_seconds();
  }

  aq::runtime::Executor* exec_ = nullptr;
  double begin_ = 0.0;
  std::vector<double> slices_;
  std::vector<double> kernel_s_;
  std::uint64_t callbacks_ = 0;
};

}  // namespace

void QosSummary::add(const QosSummary& other) {
  ops_issued += other.ops_issued;
  ops_completed += other.ops_completed;
  reads_attempted += other.reads_attempted;
  reads_on_time += other.reads_on_time;
  read_ms.insert(read_ms.end(), other.read_ms.begin(), other.read_ms.end());
}

RunReport run_scenario(const Unit& unit, MessageCounter* counter) {
  RunReport report;
  // Declared first, so it outlives the probe callback still queued in the
  // scenario's executor when the run ends.
  CpuProbe probe;
  aq::harness::Scenario scenario(unit.config);
  scenario.apply_faults(unit.faults);
  if (unit.dependability) scenario.enable_dependability({});
  if (counter != nullptr) scenario.observability().trace.add(counter);
  probe.start(scenario.executor());
  const auto results = scenario.run();
  probe.finish(report);
  if (counter != nullptr) scenario.observability().trace.remove(counter);
  for (const double s : report.cpu_slices_s) report.run_cpu_s += s;

  report.counts = client_counts(results);
  const aq::net::TransportStats ts = scenario.transport_stats();
  report.counts.messages = ts.messages_sent;
  report.counts.bytes = ts.bytes_sent;
  report.counts.events = scenario.executor().events_executed() - probe.callbacks();
  report.invariants = check_invariants(
      scenario.num_shards(), scenario.servers_per_shard(),
      [&scenario](std::size_t i) -> const aq::replication::ReplicaServer& {
        return scenario.replica(i);
      },
      scenario.shard_map(), results, unit.config.clients);
  report.qos = summarize(results, unit.config.clients);
  return report;
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double sliced_cpu_seconds(const std::vector<RunReport>& runs) {
  const std::size_t slices = runs.front().cpu_slices_s.size();
  double total = 0.0;
  for (std::size_t i = 0; i < slices; ++i) {
    std::vector<double> values;
    for (const RunReport& r : runs) {
      values.push_back(at_reference_speed(r.cpu_slices_s.at(i), r.slice_kernel_s(i)));
    }
    total += median(values);
  }
  return total;
}

double RunReport::slice_kernel_s(std::size_t i) const {
  return 0.5 * (kernel_s.at(i) + kernel_s.at(i + 1));
}

double at_reference_speed(double cpu_s, double kernel_s) {
  return cpu_s * kReferenceKernelSeconds / kernel_s;
}

double reference_kernel_seconds() {
  // Independent integer operations plus loads from a 256 KB table: the
  // kernel is throughput-bound like the program, so it slows down when
  // another tenant shares the core or its caches. It allocates nothing.
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(std::size_t{1} << 16);
    aq::sim::Rng rng(12345);
    for (auto& v : t) v = static_cast<std::uint32_t>(rng.uniform_int(1u << 30));
    return t;
  }();
  const double t0 = thread_cpu_seconds();
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < 100000; ++i) {
    a = a * 6364136223846793005ull + 1442695040888963407ull;
    b += table[(a >> 40) & 0xffff];
    c ^= (b << 1) + (a >> 7);
    d += static_cast<std::uint64_t>(__builtin_popcountll(a ^ c));
  }
  const double t = thread_cpu_seconds() - t0;
  static volatile std::uint64_t sink;
  sink = sink + a + b + c + d;
  return t;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace ledgerbench
