#include "shard/router.hpp"

#include <string>
#include <utility>

#include "sim/check.hpp"

namespace aqueduct::shard {

ShardRouter::ShardRouter(
    runtime::Executor& exec, gcs::Endpoint& endpoint, const ShardMap& map,
    std::vector<replication::ServiceGroups> groups,
    std::function<client::ClientConfig(std::size_t)> config)
    : map_(map) {
  AQUEDUCT_CHECK_MSG(groups.size() == map.num_shards(),
                     "one ServiceGroups per shard required");
  const std::size_t shards = groups.size();
  handlers_.reserve(shards);
  route_stats_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    handlers_.push_back(std::make_unique<client::ClientHandler>(
        exec, endpoint, groups[k], config(k)));
    // A single shard registers no shard<k> name.
    route_stats_.emplace_back(
        shards > 1 ? &endpoint.observability().metrics : nullptr,
        "shard" + std::to_string(k) + ".");
  }
}

ShardRouter::~ShardRouter() = default;

void ShardRouter::start() {
  for (auto& handler : handlers_) handler->start();
}

void ShardRouter::read(std::string_view key, net::MessagePtr op,
                       const core::QoSSpec& qos,
                       client::ClientHandler::ReadCallback done) {
  const std::size_t shard = map_.shard_for(key);
  route_stats_.at(shard).inc(&ShardRouteStats::reads_routed);
  handlers_.at(shard)->read(std::move(op), qos, std::move(done));
}

void ShardRouter::update(std::string_view key, net::MessagePtr op,
                         client::ClientHandler::UpdateCallback done) {
  const std::size_t shard = map_.shard_for(key);
  route_stats_.at(shard).inc(&ShardRouteStats::updates_routed);
  handlers_.at(shard)->update(std::move(op), std::move(done));
}

client::ClientStats ShardRouter::stats() const {
  client::ClientStats total;
  for (const auto& handler : handlers_) obs::add_fields(total, handler->stats());
  return total;
}

}  // namespace aqueduct::shard
