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

}  // namespace

std::size_t AckMatrix::view_index(net::NodeId node) const {
  auto it = std::lower_bound(members_.begin(), members_.end(), node);
  if (it == members_.end() || *it != node) return kNotInView;
  return static_cast<std::size_t>(it - members_.begin());
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
  for (std::size_t j = 0; j < members_.size(); ++j) {
    while (cursor != row.end() && cursor->first < members_[j]) ++cursor;
    include(j, cursor != row.end() && cursor->first == members_[j]
                   ? cursor->second
                   : 0);
  }
}

void AckMatrix::recompute(std::size_t j) {
  min_[j] = kNoRows;
  at_min_[j] = 0;
  for (const Row* row : view_rows_) {
    if (row != nullptr) include(j, cell(*row, members_[j]));
  }
}

void AckMatrix::set_row(net::NodeId member, const Row& acks) {
  auto [it, inserted] = rows_.try_emplace(member);
  Row& row = it->second;
  const std::size_t k = view_index(member);
  if (k == kNotInView) {
    row = acks;
    return;
  }
  if (inserted) {
    row = acks;
    view_rows_[k] = &row;
    --missing_rows_;
    include_row(row);
    return;
  }
  // One merge walk over the view's senders, the old row and the new one.
  auto before = row.begin();
  auto after = acks.begin();
  bool stale = false;
  for (std::size_t j = 0; j < members_.size(); ++j) {
    const net::NodeId sender = members_[j];
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
  for (std::size_t j = 0; j < members_.size(); ++j) {
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
  const std::size_t k = view_index(member);
  if (k == kNotInView) return;
  if (inserted) {
    view_rows_[k] = &row;
    --missing_rows_;
    include_row(row);
    return;
  }
  const std::size_t j = view_index(sender);
  if (j == kNotInView || old_ack == ack) return;
  exclude(j, old_ack);
  include(j, ack);
  if (at_min_[j] == 0) recompute(j);
}

void AckMatrix::set_view(const std::vector<net::NodeId>& members,
                         net::NodeId self) {
  members_ = members;
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()), members_.end());
  std::erase_if(rows_, [&](const auto& kv) {
    return kv.first != self && view_index(kv.first) == kNotInView;
  });
  const std::size_t n = members_.size();
  view_rows_.assign(n, nullptr);
  missing_rows_ = 0;
  min_.assign(n, kNoRows);
  at_min_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    auto it = rows_.find(members_[k]);
    if (it == rows_.end()) {
      ++missing_rows_;
      continue;
    }
    view_rows_[k] = &it->second;
    include_row(it->second);
  }
}

std::uint64_t AckMatrix::stable(net::NodeId sender) const {
  if (members_.empty() || missing_rows_ > 0) return 0;
  std::uint64_t stable = kNoRows;
  if (const std::size_t j = view_index(sender); j != kNotInView) {
    stable = min_[j];
  } else {
    for (const Row* row : view_rows_) stable = std::min(stable, cell(*row, sender));
  }
  return stable == kNoRows ? 0 : stable;
}

}  // namespace aqueduct::gcs
