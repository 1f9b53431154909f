// Seeded consistent-hash ring mapping object keys onto shards.
//
// Each shard owns `vnodes_per_shard` points on a 64-bit ring; a key is
// served by the shard owning the first ring point at or after the key's
// hash (wrapping at the top). Placement is a pure function of
// (seed, shard set, key): no executor RNG is consumed, so a scenario can
// consult the map during construction without perturbing the simulated
// trajectory, and the same seed reproduces the same placement on any
// machine or thread count.
//
// Consistent hashing gives the minimal-remap property the rebalance
// scenarios rely on: adding a shard moves only the keys that now hash to
// the new shard's vnodes, and removing one moves only the keys it owned —
// every other key keeps its placement bit-for-bit.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace aqueduct::shard {

class ShardMap {
 public:
  /// Builds the ring for shards {0, ..., num_shards-1}. More vnodes tighten
  /// the load balance (relative spread ~ 1/sqrt(vnodes_per_shard)) at the
  /// cost of a larger ring to binary-search.
  explicit ShardMap(std::uint64_t seed, std::size_t num_shards,
                    std::size_t vnodes_per_shard = 128);

  /// The shard serving `key`.
  std::size_t shard_for(std::string_view key) const;

  /// Raw ring lookup by an already-computed key hash (for property tests).
  std::size_t shard_for_hash(std::uint64_t hash) const;

  /// Hash of `key` as used by shard_for (seed-mixed FNV-1a).
  std::uint64_t key_hash(std::string_view key) const;

  /// Adds the next shard id (= num_shards() before the call) to the ring.
  std::size_t add_shard();

  /// Removes `shard`'s vnodes from the ring; its keys redistribute to the
  /// ring survivors. The id is retired, not reused.
  void remove_shard(std::size_t shard);

  bool contains(std::size_t shard) const;

  /// Shards currently on the ring (not retired), ascending.
  std::vector<std::size_t> shards() const;
  std::size_t num_shards() const { return num_active_; }

  std::uint64_t seed() const { return seed_; }
  std::size_t vnodes_per_shard() const { return vnodes_per_shard_; }

 private:
  struct Vnode {
    std::uint64_t point = 0;
    std::uint32_t shard = 0;
  };

  void insert_shard(std::size_t shard);

  std::uint64_t seed_;
  std::size_t vnodes_per_shard_;
  std::size_t next_shard_id_ = 0;  // ids are never reused
  std::size_t num_active_ = 0;
  std::vector<Vnode> ring_;  // sorted by point
};

}  // namespace aqueduct::shard
