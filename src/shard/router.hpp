// Client-side shard router: multiplexes QoS-tagged requests across the
// per-shard gateway handlers of a sharded service.
//
// One application endpoint hosts one ClientHandler per shard (the paper's
// Figure 2 gateway, instantiated per replica group); the router consults
// the ShardMap to place each keyed operation and forwards it unchanged, so
// selection state, the information repository, retries, and SLA tracking
// all stay per-shard. With a single shard the router degenerates to a
// plain pass-through around today's one handler — same construction
// order, same RNG draws, same metric names — which is what keeps the
// 1-shard scenario bit-identical to the pre-shard stack.
//
// Layering: this directory is protocol-level — it sees only the abstract
// runtime::Executor and gcs::Endpoint interfaces, never a concrete
// executor, transport backend, or exporter (tools/check_layering.py
// enforces it).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "client/handler.hpp"
#include "gcs/endpoint.hpp"
#include "obs/mirrored_stats.hpp"
#include "replication/service.hpp"
#include "runtime/executor.hpp"
#include "shard/shard_map.hpp"

namespace aqueduct::shard {

/// Per-shard routing tallies (mirrored to `shard<k>.*` counters when the
/// router spans more than one shard).
struct ShardRouteStats {
  std::uint64_t reads_routed = 0;
  std::uint64_t updates_routed = 0;

  template <typename V>
  void fields(V& v) {
    v("reads_routed", reads_routed);
    v("updates_routed", updates_routed);
  }
};

class ShardRouter {
 public:
  /// Builds `config(k)` for each shard k in [0, map.num_shards()) and a
  /// ClientHandler per shard on `endpoint` (one endpoint may host many
  /// handlers — each joins its service's QoS group independently).
  /// `groups[k]` names shard k's gcs groups. The factory runs once per
  /// shard, in shard order, so per-handler RNG splits stay deterministic.
  ShardRouter(runtime::Executor& exec, gcs::Endpoint& endpoint,
              const ShardMap& map,
              std::vector<replication::ServiceGroups> groups,
              std::function<client::ClientConfig(std::size_t)> config);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Joins every shard's QoS group.
  void start();

  /// Routes a read for `key` to its shard's handler.
  void read(std::string_view key, net::MessagePtr op, const core::QoSSpec& qos,
            client::ClientHandler::ReadCallback done);

  /// Routes an update for `key` to its shard's handler.
  void update(std::string_view key, net::MessagePtr op,
              client::ClientHandler::UpdateCallback done);

  std::size_t shard_for(std::string_view key) const {
    return map_.shard_for(key);
  }
  std::size_t num_shards() const { return handlers_.size(); }

  client::ClientHandler& handler(std::size_t shard) {
    return *handlers_.at(shard);
  }
  const client::ClientHandler& handler(std::size_t shard) const {
    return *handlers_.at(shard);
  }

  /// Aggregate of every shard handler's stats.
  client::ClientStats stats() const;

  const ShardRouteStats& route_stats(std::size_t shard) const {
    return route_stats_.at(shard).get();
  }

 private:
  const ShardMap& map_;
  std::vector<std::unique_ptr<client::ClientHandler>> handlers_;
  std::vector<obs::MirroredStats<ShardRouteStats>> route_stats_;
};

}  // namespace aqueduct::shard
