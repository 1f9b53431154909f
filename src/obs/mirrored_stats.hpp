// Per-instance statistics mirrored into the metrics registry.
//
// A component's stats struct (gcs::MemberStats, replication::ReplicaStats,
// ...) lists its fields once, as a member `template <typename V> void
// fields(V& v)` that calls v("name", name) for each field. Its
// std::uint64_t fields are event counters; any other field (a sim::Duration
// total) is per-instance only. Two walkers read that one list:
// MirroredStats<S> binds each counter field to the registry counter named
// prefix + name, so one inc() bumps the field and the fleet-wide aggregate
// (two adds, no lookup); add_fields() sums two structs field by field.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/check.hpp"

namespace aqueduct::obs {

template <typename S>
class MirroredStats {
  static_assert(std::is_standard_layout_v<S>);

 public:
  /// Binds every counter field to `reg`'s counter named `prefix` + its
  /// name. A null `reg` registers no name: the fields count alone.
  MirroredStats(MetricsRegistry* reg, std::string_view prefix) {
    if (reg == nullptr) unbound_ = std::make_unique<Counter>();
    std::size_t listed = 0;
    auto bind = [&](std::string_view name, auto& field) {
      listed += sizeof(field);
      if constexpr (std::is_same_v<std::remove_cvref_t<decltype(field)>,
                                   std::uint64_t>) {
        cells_[slot(field)] = reg ? &reg->counter(std::string(prefix).append(name))
                                  : unbound_.get();
      }
    };
    stats_.fields(bind);
    AQUEDUCT_CHECK_MSG(listed == sizeof(S),
                       "a stats struct's fields() must list every field");
  }

  void inc(std::uint64_t S::*field, std::uint64_t n = 1) {
    std::uint64_t& value = stats_.*field;
    value += n;
    cells_[slot(value)]->inc(n);
  }

  /// Adds to a field that has no counter (a sim::Duration total).
  template <typename T>
  void add(T S::*field, T amount) {
    static_assert(!std::is_same_v<T, std::uint64_t>, "count with inc()");
    stats_.*field += amount;
  }

  const S& get() const { return stats_; }

 private:
  std::size_t slot(const std::uint64_t& field) const {
    return (reinterpret_cast<std::uintptr_t>(&field) -
            reinterpret_cast<std::uintptr_t>(&stats_)) /
           sizeof(std::uint64_t);
  }

  S stats_;
  std::array<Counter*, sizeof(S) / sizeof(std::uint64_t)> cells_{};
  std::unique_ptr<Counter> unbound_;
};

/// Adds every field of `part` into the same field of `total`.
template <typename S>
void add_fields(S& total, const S& part) {
  std::vector<const void*> from;
  auto collect = [&](std::string_view, auto& field) { from.push_back(&field); };
  // Walking never changes a field; fields() is non-const so that `total`
  // can be written through the same list.
  const_cast<S&>(part).fields(collect);
  std::size_t i = 0;
  auto add = [&](std::string_view, auto& field) {
    using T = std::remove_reference_t<decltype(field)>;
    field += *static_cast<const T*>(from[i++]);
  };
  total.fields(add);
}

}  // namespace aqueduct::obs
