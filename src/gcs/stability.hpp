// Multicast stability bookkeeping of one group member.
//
// A multicast (sender, seq) is stable once every member of the current view
// has delivered it; stable copies can then be dropped from the flush
// protocol's retained logs and from the sender's own buffer. Each member
// announces its cumulative delivery acks in its heartbeats (a *row*: sender
// -> highest contiguously delivered seq); this member's own row is updated
// on every delivery.
//
// AckMatrix keeps the rows as NodeId-sorted flat vectors and maintains, for
// every sender of the current view, the minimum over the view's rows plus
// how many rows sit at that minimum. A row change then costs one merge walk
// over the old and new row: a minimum moves only when a cell at it changes,
// and is re-derived from the rows only when the last cell at it rises. The
// view-change path rebuilds everything from the rows.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/codec.hpp"
#include "net/node.hpp"

namespace aqueduct::gcs {

class AckMatrix {
 public:
  using Row = net::NodeU64Pairs;

  /// Replaces `member`'s row with `acks` (its latest heartbeat). Rows of
  /// nodes outside the view are kept: they count once the node joins.
  void set_row(net::NodeId member, const Row& acks);

  /// Sets one cell of `member`'s row, creating the row if it has none.
  void set_cell(net::NodeId member, net::NodeId sender, std::uint64_t ack);

  /// Switches to a new view: drops the rows of nodes outside `members`
  /// (except `self`'s own row) and re-derives every minimum.
  void set_view(const std::vector<net::NodeId>& members, net::NodeId self);

  /// Highest seq of `sender` that every view member has delivered. 0 when
  /// the view is empty or some view member has no row yet; a sender missing
  /// from a row counts as 0. O(log n) for a view member, O(n log n) for a
  /// sender outside the view.
  std::uint64_t stable(net::NodeId sender) const;

 private:
  static constexpr std::size_t kNotInView = static_cast<std::size_t>(-1);

  /// Index of `node` in members_, or kNotInView.
  std::size_t view_index(net::NodeId node) const;
  /// A present row's cell for view sender `j` entered / left column j.
  void include(std::size_t j, std::uint64_t ack);
  void exclude(std::size_t j, std::uint64_t ack);
  /// Folds a new view row into every column.
  void include_row(const Row& row);
  /// Re-derives column j's minimum from the view's rows.
  void recompute(std::size_t j);

  /// All rows, by member. Node-based, so view_rows_ pointers stay valid.
  std::map<net::NodeId, Row> rows_;
  /// The current view's members, sorted, and each one's row (or nullptr).
  std::vector<net::NodeId> members_;
  std::vector<const Row*> view_rows_;
  std::size_t missing_rows_ = 0;
  /// Per view sender (indexed like members_): the minimum over the present
  /// view rows (UINT64_MAX when none), and how many rows hold it.
  std::vector<std::uint64_t> min_;
  std::vector<std::size_t> at_min_;
};

}  // namespace aqueduct::gcs
