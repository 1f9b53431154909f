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

bool AckMatrix::set_cell_at(std::size_t j, std::size_t k, std::uint64_t ack) {
  std::uint64_t& slot = cells_[j * members_.size() + k];
  const std::uint64_t old = slot;
  if (ack == old) return false;
  slot = ack;
  const std::uint64_t before = min_[j];
  if (ack < before) {
    min_[j] = ack;
    at_min_[j] = 1;
  } else if (ack == before) {
    ++at_min_[j];
  } else if (old == before && --at_min_[j] == 0) {
    recompute(j);  // the last cell at the minimum rose
  }
  return min_[j] != before;
}

bool AckMatrix::count_row(std::size_t k, const Row& row) {
  counted_[k] = &row;
  --missing_rows_;
  auto cursor = row.begin();
  for (std::size_t j = 0; j < senders_.size(); ++j) {
    while (cursor != row.end() && cursor->first < senders_[j]) ++cursor;
    const bool listed = cursor != row.end() && cursor->first == senders_[j];
    set_cell_at(j, k, listed ? cursor->second : 0);
  }
  // Until the last missing row arrives, every stable() is 0.
  return missing_rows_ == 0;
}

void AckMatrix::recompute(std::size_t j) {
  const std::uint64_t* column = cells_.data() + j * members_.size();
  std::uint64_t min = kNoRows;
  std::size_t at_min = 0;
  for (std::size_t k = 0; k < members_.size(); ++k) {
    if (column[k] < min) {
      min = column[k];
      at_min = 1;
    } else if (column[k] == min) {
      ++at_min;
    }
  }
  min_[j] = min;
  at_min_[j] = at_min;
}

bool AckMatrix::set_row(net::NodeId member, const Row& acks) {
  auto [it, inserted] = rows_.try_emplace(member);
  Row& row = it->second;
  const std::size_t k = index_of(members_, member);
  if (k == kAbsent || inserted) {
    row = acks;
    return k != kAbsent && count_row(k, row);
  }
  // One merge walk over the old row, the new one and the tracked senders.
  // A tracked cell already holds its old value; any other cell moves only
  // the stable() of an untracked sender, which is derived from the rows.
  bool changed = false;
  bool moved = false;
  auto before = row.begin();
  auto after = acks.begin();
  std::size_t j = 0;
  while (before != row.end() || after != acks.end()) {
    const bool in_old = after == acks.end() ||
                        (before != row.end() && before->first <= after->first);
    const bool in_new = before == row.end() ||
                        (after != acks.end() && after->first <= before->first);
    const net::NodeId node = in_old ? before->first : after->first;
    const std::uint64_t old_ack = in_old ? (before++)->second : 0;
    const std::uint64_t new_ack = in_new ? (after++)->second : 0;
    if (old_ack == new_ack) continue;
    changed = true;
    while (j < senders_.size() && senders_[j] < node) ++j;
    if (j < senders_.size() && senders_[j] == node) {
      moved = set_cell_at(j, k, new_ack) || moved;
    } else {
      moved = true;
    }
  }
  if (!changed) return false;
  row = acks;
  return moved && missing_rows_ == 0;
}

bool AckMatrix::set_cell(net::NodeId member, net::NodeId sender,
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
  if (k == kAbsent) return false;
  if (inserted) return count_row(k, row);
  if (old_ack == ack) return false;
  const std::size_t j = index_of(senders_, sender);
  const bool moved = j == kAbsent || set_cell_at(j, k, ack);
  return moved && missing_rows_ == 0;
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
  missing_rows_ = members_.size();
  cells_.assign(senders_.size() * members_.size(), kNoRows);
  min_.assign(senders_.size(), kNoRows);
  at_min_.assign(senders_.size(), members_.size());
  for (std::size_t k = 0; k < members_.size(); ++k) {
    auto it = rows_.find(members_[k]);
    if (it != rows_.end()) count_row(k, it->second);
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

AckMatrix::Row AckMatrix::stable_row() const {
  Row row;
  if (members_.empty() || missing_rows_ > 0) return row;
  for (std::size_t j = 0; j < senders_.size(); ++j) {
    if (min_[j] > 0) row.emplace_back(senders_[j], min_[j]);
  }
  return row;
}

}  // namespace aqueduct::gcs
