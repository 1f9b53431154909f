#include "gcs/stability.hpp"

#include <algorithm>
#include <limits>

namespace aqueduct::gcs {

namespace {

constexpr std::uint64_t kNoRows = std::numeric_limits<std::uint64_t>::max();

std::uint64_t cell(const AckMatrix::Row& row, net::NodeId sender) {
  const std::uint64_t* ack = net::find_node(row, sender);
  return ack == nullptr ? 0 : *ack;
}

std::vector<net::NodeId> sorted_unique(std::vector<net::NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace

std::size_t AckMatrix::index_of(const std::vector<net::NodeId>& nodes,
                                net::NodeId node) {
  auto it = std::lower_bound(nodes.begin(), nodes.end(), node);
  if (it == nodes.end() || *it != node) return kAbsent;
  return static_cast<std::size_t>(it - nodes.begin());
}

void AckMatrix::include(std::size_t j, std::uint64_t ack) {
  if (ack < min_[j]) {
    min_[j] = ack;
    at_min_[j] = 1;
  } else if (ack == min_[j]) {
    ++at_min_[j];
  }
}

void AckMatrix::exclude(std::size_t j, std::uint64_t ack) {
  // Leaves at_min_[j] == 0 when the last cell at the minimum moved away; the
  // caller recomputes the column once the row holds its new value.
  if (ack == min_[j]) --at_min_[j];
}

void AckMatrix::include_row(const Row& row) {
  auto cursor = row.begin();
  for (std::size_t j = 0; j < senders_.size(); ++j) {
    while (cursor != row.end() && cursor->first < senders_[j]) ++cursor;
    include(j, cursor != row.end() && cursor->first == senders_[j]
                   ? cursor->second
                   : 0);
  }
}

void AckMatrix::recompute(std::size_t j) {
  min_[j] = kNoRows;
  at_min_[j] = 0;
  for (const Row* row : counted_) {
    if (row != nullptr) include(j, cell(*row, senders_[j]));
  }
}

void AckMatrix::set_row(net::NodeId member, const Row& acks) {
  auto [it, inserted] = rows_.try_emplace(member);
  Row& row = it->second;
  const std::size_t k = index_of(members_, member);
  if (k == kAbsent) {
    row = acks;
    return;
  }
  if (inserted) {
    row = acks;
    counted_[k] = &row;
    --missing_rows_;
    include_row(row);
    return;
  }
  // One merge walk over the tracked senders, the old row and the new one.
  auto before = row.begin();
  auto after = acks.begin();
  bool stale = false;
  for (std::size_t j = 0; j < senders_.size(); ++j) {
    const net::NodeId sender = senders_[j];
    while (before != row.end() && before->first < sender) ++before;
    while (after != acks.end() && after->first < sender) ++after;
    const std::uint64_t old_ack =
        before != row.end() && before->first == sender ? before->second : 0;
    const std::uint64_t new_ack =
        after != acks.end() && after->first == sender ? after->second : 0;
    if (old_ack == new_ack) continue;
    exclude(j, old_ack);
    include(j, new_ack);
    stale = stale || at_min_[j] == 0;
  }
  row = acks;
  if (!stale) return;
  for (std::size_t j = 0; j < senders_.size(); ++j) {
    if (at_min_[j] == 0) recompute(j);
  }
}

void AckMatrix::set_cell(net::NodeId member, net::NodeId sender,
                         std::uint64_t ack) {
  auto [it, inserted] = rows_.try_emplace(member);
  Row& row = it->second;
  auto pos = std::lower_bound(
      row.begin(), row.end(), sender,
      [](const auto& pair, net::NodeId n) { return pair.first < n; });
  std::uint64_t old_ack = 0;
  if (pos != row.end() && pos->first == sender) {
    old_ack = pos->second;
    pos->second = ack;
  } else {
    row.insert(pos, {sender, ack});
  }
  const std::size_t k = index_of(members_, member);
  if (k == kAbsent) return;
  if (inserted) {
    counted_[k] = &row;
    --missing_rows_;
    include_row(row);
    return;
  }
  const std::size_t j = index_of(senders_, sender);
  if (j == kAbsent || old_ack == ack) return;
  exclude(j, old_ack);
  include(j, ack);
  if (at_min_[j] == 0) recompute(j);
}

void AckMatrix::set_view(const std::vector<net::NodeId>& members,
                         const std::vector<net::NodeId>& senders,
                         net::NodeId self) {
  members_ = sorted_unique(members);
  senders_ = sorted_unique(senders);
  std::erase_if(rows_, [&](const auto& kv) {
    return kv.first != self && index_of(members_, kv.first) == kAbsent;
  });
  counted_.assign(members_.size(), nullptr);
  missing_rows_ = 0;
  min_.assign(senders_.size(), kNoRows);
  at_min_.assign(senders_.size(), 0);
  for (std::size_t k = 0; k < members_.size(); ++k) {
    auto it = rows_.find(members_[k]);
    if (it == rows_.end()) {
      ++missing_rows_;
      continue;
    }
    counted_[k] = &it->second;
    include_row(it->second);
  }
}

std::uint64_t AckMatrix::stable(net::NodeId sender) const {
  if (members_.empty() || missing_rows_ > 0) return 0;
  std::uint64_t stable = kNoRows;
  if (const std::size_t j = index_of(senders_, sender); j != kAbsent) {
    stable = min_[j];
  } else {
    for (const Row* row : counted_) stable = std::min(stable, cell(*row, sender));
  }
  return stable == kNoRows ? 0 : stable;
}

}  // namespace aqueduct::gcs
