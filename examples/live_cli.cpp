// Live scenario runner: the same protocol stack every experiment runs
// under the discrete-event simulator, driven by the wall clock instead.
//
//   live_cli [--duration SEC] [--requests N] [--seed S]
//            [--runtime real|sim] [--json-out FILE] [--no-json]
//            [--telemetry-out FILE] [--telemetry-period MS]
//            [--prom-out FILE]
//   live_cli --role {sequencer,primary,secondary,publisher,client}
//            --listen HOST:PORT --peer NAME=HOST:PORT [--peer ...]
//            [--duration SEC] [--requests N] [--seed S]
//            [--json-out FILE] [--no-json]
//            [--chaos-loss P] [--chaos-duplicate P] [--chaos-reorder P]
//            [--chaos-delay-ms MS]
//
// Single-process mode boots a sequencer, two primaries, two secondaries,
// and two workload clients with different QoS specs (a strict low-deadline
// reader and a relaxed staleness-tolerant one) on a RealTimeExecutor:
// messages are delivered in-process after real injected latency,
// heartbeats and the lazy publisher fire on wall-clock timers, and
// requests complete in real elapsed time. While running, a
// MetricsSnapshotter captures the registry every --telemetry-period ms and
// streams it to the console, a JSONL time series (--telemetry-out), and a
// Prometheus text file (--prom-out). Prints the observed timing-failure
// probability, per-client SLA status from the live SlaMonitor, and the
// per-request latency breakdown from the obs pipeline, then verifies
// committed-prefix agreement across the replicas before exiting.
//
// Multi-process mode (--role) runs ONE node of the service per OS process
// over localhost UDP: the identical protocol stack, but messages cross a
// real socket through the wire codec (net/codec.hpp).
// The --chaos-* flags wrap this process's UDP socket in the chaos
// decorator (net/chaos.hpp): outbound messages are dropped, duplicated,
// reordered, or delayed with the given parameters before they reach the
// wire, so a cluster of chaos-flagged processes exercises the gray-failure
// hardening over real sockets (tools/live_smoke.py --chaos drives this). Every process gets
// the same --peer address book; --listen must match this process's own
// entry, which names it (e.g. "primary2") and fixes its NodeId. The
// process whose name is "sequencer" bootstraps the groups; everyone else
// pre-seeds its join directory with the sequencer and joins through the
// normal gcs machinery. tools/live_smoke.py launches a full cluster and
// cross-checks the per-process reports for committed-prefix agreement.
//
// Exit status: 0 on a clean run, 1 if no request completed or any
// ordering/agreement check failed, 2 on a malformed command line. The
// emitted BENCH_live.json is machine- and load-dependent by construction
// and is NOT part of the bench-trend gate (see EXPERIMENTS.md).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gcs/directory.hpp"
#include "gcs/endpoint.hpp"
#include "harness/cli.hpp"
#include "harness/scenario.hpp"
#include "harness/stats.hpp"
#include "net/transport.hpp"
#include "net/udp_transport.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/sinks.hpp"
#include "replication/objects.hpp"
#include "replication/replica.hpp"
#include "runner/plans.hpp"
#include "runtime/sim_executor.hpp"

using namespace aqueduct;

namespace {

void print_usage(const char* prog, std::ostream& os) {
  os << "usage: " << prog
     << " [--duration SEC] [--requests N] [--seed S]\n"
        "  [--runtime real|sim] [--json-out FILE] [--no-json]\n"
        "  [--telemetry-out FILE] [--telemetry-period MS]\n"
        "  [--prom-out FILE]\n"
        "or (one node per process, over localhost UDP):\n"
        "  "
     << prog
     << " --role {sequencer,primary,secondary,publisher,client}\n"
        "    --listen HOST:PORT --peer NAME=HOST:PORT [--peer ...]\n"
        "    [--duration SEC] [--requests N] [--seed S]\n"
        "    [--json-out FILE] [--no-json]\n"
        "    [--chaos-loss P] [--chaos-duplicate P] [--chaos-reorder P]\n"
        "    [--chaos-delay-ms MS]\n"
        "  where NAME is sequencer, primaryN, secondaryN, publisher, or\n"
        "  clientN, and --listen matches this process's --peer entry.\n";
}

[[noreturn]] void usage() {
  print_usage("live_cli", std::cerr);
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Multi-process deployment
// ---------------------------------------------------------------------------

/// One "NAME=HOST:PORT" address-book entry.
struct PeerSpec {
  std::string name;
  std::string host;
  std::uint16_t port = 0;
};

/// Splits the HOST:PORT value of `flag`; exits with usage() on malformed
/// input.
std::pair<std::string, std::uint16_t> parse_hostport(const char* flag,
                                                     const std::string& s) {
  const std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == s.size()) {
    usage();
  }
  const std::string text = s.substr(colon + 1);
  const std::uint64_t port =
      harness::parse_count("live_cli", flag, text.c_str(), print_usage);
  if (port == 0 || port > 65535) usage();
  return {s.substr(0, colon), static_cast<std::uint16_t>(port)};
}

PeerSpec parse_peer(const std::string& s) {
  const std::size_t eq = s.find('=');
  if (eq == std::string::npos || eq == 0) usage();
  PeerSpec peer;
  peer.name = s.substr(0, eq);
  std::tie(peer.host, peer.port) = parse_hostport("--peer", s.substr(eq + 1));
  return peer;
}

/// Deterministic node identity from a peer name. The mapping is part of
/// the deployment contract: every process derives the same NodeId for the
/// same name, so the address book needs no coordination service.
///   sequencer -> 1, primaryN -> 1+N (N in 1..8), publisher -> 10,
///   secondaryN -> 10+N, clientN -> 20+N (N in 1..9).
struct NodeName {
  std::string role;       // sequencer|primary|secondary|publisher|client
  std::size_t index = 0;  // the N suffix (0 for sequencer/publisher)
  net::NodeId id;
};

std::optional<NodeName> resolve_name(const std::string& name) {
  const auto suffix_index = [&](const std::string& prefix,
                                std::size_t max_n) -> std::optional<std::size_t> {
    const std::string digits = name.substr(prefix.size());
    if (digits.empty() || digits.size() > 1) return std::nullopt;
    if (digits[0] < '1' || digits[0] > '9') return std::nullopt;
    const std::size_t n = static_cast<std::size_t>(digits[0] - '0');
    if (n > max_n) return std::nullopt;
    return n;
  };
  if (name == "sequencer") return NodeName{"sequencer", 0, net::NodeId{1}};
  if (name == "publisher") return NodeName{"publisher", 0, net::NodeId{10}};
  if (name.rfind("primary", 0) == 0) {
    if (auto n = suffix_index("primary", 8)) {
      return NodeName{"primary", *n, net::NodeId{static_cast<std::uint32_t>(1 + *n)}};
    }
  }
  if (name.rfind("secondary", 0) == 0) {
    if (auto n = suffix_index("secondary", 9)) {
      return NodeName{"secondary", *n,
                      net::NodeId{static_cast<std::uint32_t>(10 + *n)}};
    }
  }
  if (name.rfind("client", 0) == 0) {
    if (auto n = suffix_index("client", 9)) {
      return NodeName{"client", *n,
                      net::NodeId{static_cast<std::uint32_t>(20 + *n)}};
    }
  }
  return std::nullopt;
}

/// Join stagger: the sequencer must bootstrap before anyone joins, and the
/// publisher must join the primary group *last* so the lazy-publisher role
/// (the last primary-view member) lands on it. Offsets are from this
/// process's own startup; the 1 s gcs join retry absorbs skew between
/// process launches.
sim::Duration start_delay(const NodeName& self) {
  if (self.role == "sequencer") return sim::Duration::zero();
  if (self.role == "primary") {
    return std::chrono::milliseconds(300 + 100 * self.index);
  }
  if (self.role == "secondary") {
    return std::chrono::milliseconds(600 + 100 * self.index);
  }
  if (self.role == "publisher") return std::chrono::milliseconds(1500);
  return std::chrono::milliseconds(2000);  // client workloads start last
}

struct MultiprocOptions {
  std::string role;
  std::string listen;
  std::vector<PeerSpec> peers;
  double duration_s = 10.0;
  std::size_t requests = 15;
  std::uint64_t seed = 42;
  std::string json_out = "BENCH_live.json";
  bool write_json = true;
  // Gray-failure injection on this process's outbound path (0 = off).
  double chaos_loss = 0.0;
  double chaos_duplicate = 0.0;
  double chaos_reorder = 0.0;
  double chaos_delay_ms = 0.0;

  bool chaos_enabled() const {
    return chaos_loss > 0.0 || chaos_duplicate > 0.0 || chaos_reorder > 0.0 ||
           chaos_delay_ms > 0.0;
  }
};

int run_multiproc(const MultiprocOptions& opt) {
  if (opt.listen.empty() || opt.peers.empty()) usage();
  const auto [listen_host, listen_port] = parse_hostport("--listen", opt.listen);

  // This process is the address-book entry whose endpoint matches
  // --listen; the entry's name fixes the NodeId and (via the role prefix)
  // must agree with --role.
  std::optional<NodeName> self;
  std::string self_name;
  net::UdpConfig ucfg;
  for (const PeerSpec& peer : opt.peers) {
    const auto resolved = resolve_name(peer.name);
    if (!resolved) {
      std::fprintf(stderr, "live_cli: unknown peer name '%s'\n",
                   peer.name.c_str());
      return 2;
    }
    ucfg.peers.push_back(net::UdpPeer{resolved->id, peer.host, peer.port});
    if (peer.host == listen_host && peer.port == listen_port) {
      self = resolved;
      self_name = peer.name;
    }
  }
  if (!self) {
    std::fprintf(stderr, "live_cli: --listen %s matches no --peer entry\n",
                 opt.listen.c_str());
    return 2;
  }
  if (self->role != opt.role) {
    std::fprintf(stderr, "live_cli: --role %s but --listen names '%s'\n",
                 opt.role.c_str(), self_name.c_str());
    return 2;
  }
  ucfg.local_id = self->id;
  ucfg.listen_host = listen_host;
  ucfg.listen_port = listen_port;

  // Receiving serialized frames requires the decoders of every layer in
  // the stack (replication's registration pulls in gcs's).
  replication::register_wire_codecs();

  auto exec = runtime::make_executor(runtime::Kind::kRealTime, opt.seed);
  std::unique_ptr<net::Transport> transport_owner =
      std::make_unique<net::UdpTransport>(*exec, ucfg);
  if (opt.chaos_enabled()) {
    // Wrap the socket in the chaos decorator: every send from this process
    // runs the gray-failure pipeline before it reaches the wire. Each
    // process degrades only its own outbound path, so a chaos-flagged
    // cluster models per-host gray failures, not a lossy switch.
    transport_owner = net::make_chaos_transport(std::move(transport_owner));
    net::FaultInjection& chaos = *transport_owner->fault_injection();
    if (opt.chaos_loss > 0.0) chaos.set_loss_probability(opt.chaos_loss);
    if (opt.chaos_duplicate > 0.0) {
      chaos.set_duplicate_probability(opt.chaos_duplicate);
    }
    if (opt.chaos_reorder > 0.0) {
      chaos.set_reorder(opt.chaos_reorder, std::chrono::milliseconds(50));
    }
    if (opt.chaos_delay_ms > 0.0) {
      chaos.set_default_delay(std::make_shared<sim::FixedDuration>(
          sim::from_ms(opt.chaos_delay_ms)));
    }
  }
  net::Transport& transport = *transport_owner;

  // Per-process join directory: everyone but the sequencer is told where
  // the groups' coordinator lives; the sequencer finds its directory empty,
  // claims the groups, and bootstraps singleton views.
  const auto groups = replication::ServiceGroups::for_service(1);
  gcs::Directory directory;
  const net::NodeId sequencer_id{1};
  if (self->id != sequencer_id) {
    directory.update(groups.primary, sequencer_id);
    directory.update(groups.replication, sequencer_id);
    directory.update(groups.qos, sequencer_id);
  }
  gcs::Endpoint endpoint(*exec, transport, directory, gcs::Config{});

  const sim::TimePoint deadline = runtime::kEpoch + sim::from_sec(opt.duration_s);
  std::printf("live_cli[%s]: node n%u listening on %s:%u, %zu peers, %.1fs\n",
              self_name.c_str(), self->id.value(), listen_host.c_str(),
              listen_port, ucfg.peers.size(), opt.duration_s);
  if (opt.chaos_enabled()) {
    std::printf(
        "live_cli[%s]: chaos on outbound: loss=%.2f dup=%.2f reorder=%.2f "
        "delay=%.1fms\n",
        self_name.c_str(), opt.chaos_loss, opt.chaos_duplicate,
        opt.chaos_reorder, opt.chaos_delay_ms);
  }

  int exit_code = 0;
  std::uint64_t completed = 0;
  double failure_rate = 0.0;

  const auto write_report = [&](const std::function<void(obs::JsonWriter&)>& extra) {
    if (!opt.write_json) return;
    std::ofstream out(opt.json_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_out.c_str());
      exit_code = 1;
      return;
    }
    const net::TransportStats tstats = transport.stats();
    obs::JsonWriter w(out);
    w.begin_object();
    w.field("bench", "live_multiproc");
    w.field("role", opt.role);
    w.field("name", self_name);
    w.field("node", std::uint64_t{self->id.value()});
    w.field("seed", opt.seed);
    w.field("elapsed_s", sim::to_sec(exec->now() - runtime::kEpoch));
    w.field("messages_sent", tstats.messages_sent);
    w.field("messages_delivered", tstats.messages_delivered);
    w.field("decode_errors", tstats.decode_errors);
    w.field("bytes_sent", tstats.bytes_sent);
    w.field("chaos", opt.chaos_enabled());
    w.field("messages_dropped_loss", tstats.messages_dropped_loss);
    w.field("messages_duplicated", tstats.messages_duplicated);
    w.field("messages_reordered", tstats.messages_reordered);
    w.field("messages_delayed", tstats.messages_delayed);
    extra(w);
    w.end_object();
    out << "\n";
    std::printf("wrote %s\n", opt.json_out.c_str());
  };

  if (opt.role == "client") {
    harness::ClientSpec spec;
    spec.qos = {.staleness_threshold = self->index % 2 == 1 ? 1u : 4u,
                .deadline = std::chrono::milliseconds(
                    self->index % 2 == 1 ? 150 : 250),
                .min_probability = self->index % 2 == 1 ? 0.9 : 0.5};
    spec.request_delay = std::chrono::milliseconds(50);
    spec.num_requests = opt.requests;
    const shard::ShardMap shard_map(opt.seed, /*num_shards=*/1);
    harness::WorkloadClient workload(*exec, endpoint, shard_map, {groups},
                                     std::move(spec),
                                     /*window_size=*/20);
    exec->after(start_delay(*self), [&] { workload.start(); });
    // Poll for completion so a finished workload exits without burning the
    // full duration cap; the cap still bounds a stuck run.
    std::function<void()> check = [&] {
      if (workload.done()) {
        exec->stop();
        return;
      }
      exec->after(std::chrono::milliseconds(100), check);
    };
    exec->after(std::chrono::milliseconds(100), check);
    exec->run_until(deadline);

    const harness::ClientResult result = workload.result();
    const auto& stats = result.stats;
    completed = stats.reads_completed + stats.updates_completed;
    std::uint64_t timing_failures = stats.timing_failures;
    failure_rate = stats.reads_completed > 0
                       ? static_cast<double>(timing_failures) /
                             static_cast<double>(stats.reads_completed)
                       : 0.0;
    std::printf(
        "%s: %llu reads, %llu updates, %llu timing failures "
        "(rate %.3f), avg read %.1f ms\n",
        self_name.c_str(),
        static_cast<unsigned long long>(stats.reads_completed),
        static_cast<unsigned long long>(stats.updates_completed),
        static_cast<unsigned long long>(timing_failures), failure_rate,
        sim::to_ms(stats.avg_response_time()));
    write_report([&](obs::JsonWriter& w) {
      w.field("requests_completed", completed);
      w.field("reads_completed", stats.reads_completed);
      w.field("timing_failure_rate", failure_rate);
    });
    if (completed == 0) {
      std::fprintf(stderr, "FAIL[%s]: no request completed\n",
                   self_name.c_str());
      exit_code = 1;
    }
  } else {
    const bool is_primary = opt.role != "secondary";
    replication::ReplicaConfig rcfg;
    rcfg.service_time = std::make_shared<sim::NormalDuration>(
        std::chrono::milliseconds(20), std::chrono::milliseconds(5));
    rcfg.lazy_update_interval = std::chrono::milliseconds(500);
    replication::ReplicaServer server(
        *exec, endpoint, groups, is_primary,
        std::make_unique<replication::KeyValueStore>(), rcfg);
    exec->after(start_delay(*self), [&] { server.start(); });
    exec->run_until(deadline);

    const auto& store =
        dynamic_cast<const replication::KeyValueStore&>(server.object());
    const auto& rstats = server.stats();
    std::printf(
        "%s: csn=%llu gsn=%llu store_version=%llu conflicts=%llu "
        "lazy_published=%llu recovering=%d\n",
        self_name.c_str(), static_cast<unsigned long long>(server.csn()),
        static_cast<unsigned long long>(server.gsn()),
        static_cast<unsigned long long>(store.version()),
        static_cast<unsigned long long>(rstats.gsn_conflicts),
        static_cast<unsigned long long>(rstats.lazy_updates_published),
        server.recovering() ? 1 : 0);
    // Local committed-prefix checks; cross-process CSN agreement is
    // asserted by tools/live_smoke.py over the per-process reports.
    if (rstats.gsn_conflicts != 0) {
      std::fprintf(stderr, "FAIL[%s]: %llu gsn conflicts\n", self_name.c_str(),
                   static_cast<unsigned long long>(rstats.gsn_conflicts));
      exit_code = 1;
    }
    if (is_primary && !server.recovering() &&
        store.version() != server.csn()) {
      std::fprintf(stderr,
                   "FAIL[%s]: applied %llu updates but committed %llu\n",
                   self_name.c_str(),
                   static_cast<unsigned long long>(store.version()),
                   static_cast<unsigned long long>(server.csn()));
      exit_code = 1;
    }
    write_report([&](obs::JsonWriter& w) {
      w.field("csn", server.csn());
      w.field("gsn", server.gsn());
      w.field("store_version", store.version());
      w.field("gsn_conflicts", rstats.gsn_conflicts);
      w.field("is_primary", is_primary);
      w.field("recovering", server.recovering());
    });
  }
  if (opt.chaos_enabled()) {
    const net::TransportStats ts = transport.stats();
    std::printf(
        "%s: chaos injected: dropped=%llu duplicated=%llu reordered=%llu "
        "delayed=%llu\n",
        self_name.c_str(),
        static_cast<unsigned long long>(ts.messages_dropped_loss),
        static_cast<unsigned long long>(ts.messages_duplicated),
        static_cast<unsigned long long>(ts.messages_reordered),
        static_cast<unsigned long long>(ts.messages_delayed));
  }
  return exit_code;
}

// ---------------------------------------------------------------------------
// Single-process mode (the original live scenario)
// ---------------------------------------------------------------------------

/// One console line per snapshot: elapsed time, request progress (total and
/// delta since the previous snapshot), SLA violations so far.
class ConsoleTelemetry final : public obs::SnapshotSink {
 public:
  void on_snapshot(const obs::MetricsSnapshot& snap) override {
    const auto counter = [](const auto& pairs, const char* name) {
      for (const auto& [n, v] : pairs) {
        if (n == name) return v;
      }
      return std::uint64_t{0};
    };
    const std::uint64_t reads = counter(snap.counters, "client.reads_completed");
    const std::uint64_t updates =
        counter(snap.counters, "client.updates_completed");
    const std::uint64_t delta =
        counter(snap.counter_deltas, "client.reads_completed") +
        counter(snap.counter_deltas, "client.updates_completed");
    const std::uint64_t violations = counter(snap.counters, "sla.violations");
    std::printf(
        "[telemetry] t=%8.3fs seq=%3llu reads=%llu updates=%llu (+%llu) "
        "sla_violations=%llu\n",
        sim::to_sec(snap.at), static_cast<unsigned long long>(snap.seq),
        static_cast<unsigned long long>(reads),
        static_cast<unsigned long long>(updates),
        static_cast<unsigned long long>(delta),
        static_cast<unsigned long long>(violations));
  }
};

/// Safety at shutdown, judged by the sweep plans' invariant collector:
/// no stale reply, no GSN conflict, every live primary's store at its CSN,
/// live primaries within 2 commits of each other, no misplaced key.
/// Liveness is not gated, since a wall-clock-capped run need not finish
/// its workload. Returns the number of violations.
int check_agreement(harness::Scenario& scenario,
                    const std::vector<harness::ClientResult>& results) {
  const runner::Invariants inv =
      runner::collect_invariants(scenario, results, /*expected_reads=*/0);
  const std::pair<const char*, std::uint64_t> rules[] = {
      {"staleness violations", inv.staleness_violations},
      {"GSN conflicts", inv.gsn_conflicts},
      {"CSN mismatches", inv.csn_mismatches},
      {"diverged primaries", inv.divergences},
      {"misplaced keys", inv.leaked_keys},
  };
  for (const auto& [rule, count] : rules) {
    if (count != 0) {
      std::fprintf(stderr, "VIOLATION: %llu %s\n",
                   static_cast<unsigned long long>(count), rule);
    }
  }
  return static_cast<int>(inv.safety_violations());
}

}  // namespace

int main(int argc, char** argv) {
  double duration_s = 2.0;
  bool duration_set = false;
  std::size_t requests = 15;
  std::uint64_t seed = 42;
  runtime::Kind kind = runtime::Kind::kRealTime;
  std::string json_out = "BENCH_live.json";
  bool write_json = true;
  std::string telemetry_out;  // empty = console only
  double telemetry_period_ms = 100.0;
  std::string prom_out;  // empty = no Prometheus dump
  std::string role;
  std::string listen;
  std::vector<PeerSpec> peers;
  double chaos_loss = 0.0;
  double chaos_duplicate = 0.0;
  double chaos_reorder = 0.0;
  double chaos_delay_ms = 0.0;

  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage();
    return argv[++i];
  };
  // Strict number parsing (harness/cli.hpp): a malformed value exits 2.
  auto number = [&](int& i, auto parse) {
    const char* flag = argv[i];
    return parse(argv[0], flag, next_value(i), print_usage);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--duration") {
      duration_s = number(i, harness::parse_real);
      if (duration_s <= 0.0) usage();
      duration_set = true;
    } else if (arg == "--requests") {
      requests = static_cast<std::size_t>(number(i, harness::parse_count));
    } else if (arg == "--seed") {
      seed = number(i, harness::parse_count);
    } else if (arg == "--runtime") {
      const std::string name = next_value(i);
      if (name == "real") {
        kind = runtime::Kind::kRealTime;
      } else if (name == "sim") {
        kind = runtime::Kind::kSim;
      } else {
        usage();
      }
    } else if (arg == "--json-out") {
      json_out = next_value(i);
    } else if (arg == "--no-json") {
      write_json = false;
    } else if (arg == "--telemetry-out") {
      telemetry_out = next_value(i);
    } else if (arg == "--telemetry-period") {
      telemetry_period_ms = number(i, harness::parse_real);
      if (telemetry_period_ms <= 0.0) usage();
    } else if (arg == "--prom-out") {
      prom_out = next_value(i);
    } else if (arg == "--role") {
      role = next_value(i);
      if (role != "sequencer" && role != "primary" && role != "secondary" &&
          role != "publisher" && role != "client") {
        usage();
      }
    } else if (arg == "--listen") {
      listen = next_value(i);
    } else if (arg == "--peer") {
      peers.push_back(parse_peer(next_value(i)));
    } else if (arg == "--chaos-loss") {
      chaos_loss = number(i, harness::parse_probability);
    } else if (arg == "--chaos-duplicate") {
      chaos_duplicate = number(i, harness::parse_probability);
    } else if (arg == "--chaos-reorder") {
      chaos_reorder = number(i, harness::parse_probability);
    } else if (arg == "--chaos-delay-ms") {
      chaos_delay_ms = number(i, harness::parse_real);
      if (chaos_delay_ms < 0.0) usage();
    } else {
      usage();
    }
  }

  if (!role.empty() || !listen.empty() || !peers.empty()) {
    if (role.empty()) usage();
    if (!telemetry_out.empty() || !prom_out.empty()) usage();
    MultiprocOptions opt;
    opt.role = role;
    opt.listen = listen;
    opt.peers = std::move(peers);
    opt.duration_s = duration_set ? duration_s : 10.0;
    opt.requests = requests;
    opt.seed = seed;
    opt.json_out = json_out;
    opt.write_json = write_json;
    opt.chaos_loss = chaos_loss;
    opt.chaos_duplicate = chaos_duplicate;
    opt.chaos_reorder = chaos_reorder;
    opt.chaos_delay_ms = chaos_delay_ms;
    return run_multiproc(opt);
  }
  // The single-process scenario injects faults through fault::FaultSchedule
  // (see sweep_cli's chaos plans); the --chaos-* flags are for the
  // per-process UDP deployment only.
  if (chaos_loss > 0.0 || chaos_duplicate > 0.0 || chaos_reorder > 0.0 ||
      chaos_delay_ms > 0.0) {
    usage();
  }

  // A small cluster with fast service times so a couple of wall-clock
  // seconds carries a meaningful number of requests: sequencer + 2
  // primaries + 2 secondaries, ~20 ms service, 500 ms lazy publication.
  harness::ScenarioConfig config;
  config.seed = seed;
  config.runtime = kind;
  config.num_primaries = 2;
  config.num_secondaries = 2;
  config.service_mean = std::chrono::milliseconds(20);
  config.service_std = std::chrono::milliseconds(5);
  config.lazy_update_interval = std::chrono::milliseconds(500);
  config.max_sim_time = sim::from_sec(duration_s);
  config.drain = std::chrono::milliseconds(250);
  // Client 0 is demanding (fresh data, tight deadline, high assurance);
  // client 1 tolerates staleness for cheap reads — the paper's trade-off,
  // live.
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 1,
              .deadline = std::chrono::milliseconds(150),
              .min_probability = 0.9},
      .request_delay = std::chrono::milliseconds(50),
      .num_requests = requests,
  });
  config.clients.push_back(harness::ClientSpec{
      .qos = {.staleness_threshold = 4,
              .deadline = std::chrono::milliseconds(250),
              .min_probability = 0.5},
      .request_delay = std::chrono::milliseconds(50),
      .num_requests = requests,
  });

  harness::Scenario scenario(std::move(config));
  obs::LatencyBreakdownCollector breakdown;
  scenario.observability().trace.add(&breakdown);

  // Telemetry pipeline: console every period, plus optional JSONL time
  // series and Prometheus text dump. The snapshotter runs on the scenario's
  // executor, so the cadence is wall time under `real` and simulated time
  // under `sim`.
  obs::MetricsSnapshotter& telemetry =
      scenario.enable_telemetry(sim::from_ms(telemetry_period_ms));
  ConsoleTelemetry console;
  telemetry.add_sink(&console);
  std::ofstream telemetry_file;
  std::unique_ptr<obs::JsonlSnapshotSink> jsonl_sink;
  if (!telemetry_out.empty()) {
    telemetry_file.open(telemetry_out, std::ios::trunc);
    if (!telemetry_file) {
      std::fprintf(stderr, "cannot write %s\n", telemetry_out.c_str());
      return 1;
    }
    jsonl_sink = std::make_unique<obs::JsonlSnapshotSink>(telemetry_file);
    telemetry.add_sink(jsonl_sink.get());
  }
  std::unique_ptr<obs::PrometheusTextSink> prom_sink;
  if (!prom_out.empty()) {
    prom_sink = std::make_unique<obs::PrometheusTextSink>(prom_out);
    telemetry.add_sink(prom_sink.get());
  }

  std::printf("live_cli: %s runtime, %zu requests x 2 clients, %.1fs cap\n",
              runtime::to_string(kind), requests, duration_s);
  auto results = scenario.run();
  scenario.observability().trace.remove(&breakdown);

  std::uint64_t completed = 0;
  std::uint64_t reads_completed = 0;
  std::uint64_t timing_failures = 0;
  std::vector<double> read_times_s;
  for (std::size_t c = 0; c < results.size(); ++c) {
    const auto& stats = results[c].stats;
    completed += stats.reads_completed + stats.updates_completed;
    reads_completed += stats.reads_completed;
    timing_failures += stats.timing_failures;
    read_times_s.insert(read_times_s.end(),
                        results[c].read_response_times.begin(),
                        results[c].read_response_times.end());
    std::printf(
        "client %zu: %llu reads, %llu updates, %llu timing failures, "
        "avg read %.1f ms\n",
        c, static_cast<unsigned long long>(stats.reads_completed),
        static_cast<unsigned long long>(stats.updates_completed),
        static_cast<unsigned long long>(stats.timing_failures),
        sim::to_ms(stats.avg_response_time()));
  }
  const double failure_rate =
      reads_completed > 0
          ? static_cast<double>(timing_failures) /
                static_cast<double>(reads_completed)
          : 0.0;
  const double p50_ms = harness::percentile(read_times_s, 0.50) * 1000.0;
  const double p95_ms = harness::percentile(read_times_s, 0.95) * 1000.0;

  std::printf("\n%llu requests completed in %s (%llu events)\n",
              static_cast<unsigned long long>(completed),
              sim::format(scenario.executor().now()).c_str(),
              static_cast<unsigned long long>(
                  scenario.executor().events_executed()));
  std::printf("observed timing-failure probability: %.3f (%llu/%llu)\n",
              failure_rate, static_cast<unsigned long long>(timing_failures),
              static_cast<unsigned long long>(reads_completed));
  std::printf("read latency: p50 %.1f ms, p95 %.1f ms\n", p50_ms, p95_ms);

  // Per-client SLA status from the live monitor (one line per monitored
  // (client, spec) pair; the workload guarantees at least one read each).
  const auto sla_statuses =
      scenario.observability().sla.statuses(scenario.executor().now());
  std::printf("\nSLA status (%llu snapshots captured):\n",
              static_cast<unsigned long long>(telemetry.snapshots()));
  if (sla_statuses.empty()) {
    std::printf("sla: no reads recorded\n");
  }
  for (const auto& s : sla_statuses) {
    std::printf(
        "sla client n%u spec%u: Pc(d)=%.2f budget=%.3f observed=%.3f "
        "[wilson %.3f..%.3f] window=%llu/%llu %s, avg staleness %.2f, "
        "avg attempts %.2f\n",
        s.client.value(), s.spec_index, s.spec.min_probability, s.budget,
        s.failure_rate, s.wilson_lower, s.wilson_upper,
        static_cast<unsigned long long>(s.window_failures),
        static_cast<unsigned long long>(s.window_reads),
        s.violating ? "VIOLATING" : "ok", s.avg_staleness, s.avg_attempts);
  }

  std::printf("\nper-request latency breakdown (%zu requests):\n",
              breakdown.events().size());
  breakdown.write_json(std::cout);
  std::printf("\n");

  const int violations = check_agreement(scenario, results);
  if (violations == 0) {
    std::printf("committed-prefix agreement: OK\n");
  }

  if (write_json) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    obs::JsonWriter w(out);
    w.begin_object();
    w.field("bench", "live");
    w.field("runtime", runtime::to_string(kind));
    w.field("seed", seed);
    w.field("duration_cap_s", duration_s);
    w.field("elapsed_s", sim::to_sec(scenario.executor().now() - sim::kEpoch));
    w.field("requests_completed", completed);
    w.field("reads_completed", reads_completed);
    w.field("timing_failure_rate", failure_rate);
    w.field("p50_ms", p50_ms);
    w.field("p95_ms", p95_ms);
    w.field("agreement_violations", static_cast<std::int64_t>(violations));
    w.field("telemetry_snapshots", telemetry.snapshots());
    w.field("sla_violations",
            scenario.observability().sla.total_violations());
    w.end_object();
    out << "\n";
    std::printf("wrote %s\n", json_out.c_str());
  }

  if (completed == 0) {
    std::fprintf(stderr, "FAIL: no request completed\n");
    return 1;
  }
  if (violations != 0) {
    std::fprintf(stderr, "FAIL: %d agreement violations\n", violations);
    return 1;
  }
  return 0;
}
