// Multicast stability bookkeeping of one group member.
//
// A multicast (sender, seq) is stable once every member this member hears
// acks from has delivered it; stable copies can then be dropped from the
// flush protocol's retained logs and from the sender's own buffer. Each
// member announces its cumulative delivery acks in its heartbeats (a *row*:
// sender -> highest contiguously delivered seq); this member's own row is
// updated on every delivery.
//
// Which rows count and which senders are tracked are set per view. The
// *columns* are the view's senders, its full members (listeners never
// multicast). The rows are the members whose acks reach this member along
// the pairs that heartbeat: the full members and the leader at a full
// member, and itself and the leader at a listener. The leader keeps two
// matrices, one counting the full members and one counting itself and the
// listeners, and announces each one's stable() values as its row to the
// other side, so every row a member counts stands for the members behind
// it (gcs/member.hpp).
//
// AckMatrix keeps the rows as NodeId-sorted flat vectors, and a copy of the
// counted rows' cells of the tracked columns in one column-major array, so
// a column is contiguous. For every column it maintains the minimum plus
// how many cells sit at that minimum. A row change then costs one merge
// walk over the old and new row: a minimum moves only when a cell at it
// changes, and is re-derived by one scan of its column only when the last
// cell at it rises. The view-change path rebuilds everything from the rows.
//
// Every update reports whether some stable() value may have moved, so the
// member frees copies only after an update that can have made some stable:
// when an update returns false, every sender's stable() is what it was.
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

  /// Replaces `member`'s row with `acks` (its latest heartbeat). A row that
  /// does not count is kept until the next set_view(): a joiner's row counts
  /// once the view that admits it is set. Returns false when no sender's
  /// stable() changed.
  bool set_row(net::NodeId member, const Row& acks);

  /// Sets one cell of `member`'s row, creating the row if it has none.
  /// Returns false when no sender's stable() changed.
  bool set_cell(net::NodeId member, net::NodeId sender, std::uint64_t ack);

  /// Switches to a new view: from now on the rows of `members` count and the
  /// minima of `senders` are kept. Drops the rows of nodes outside `members`
  /// (except `self`'s own row) and re-derives every minimum.
  void set_view(const std::vector<net::NodeId>& members,
                const std::vector<net::NodeId>& senders, net::NodeId self);

  /// Highest seq of `sender` that every counted member has delivered. 0
  /// when no row counts or some counted member has no row yet; a sender
  /// missing from a row counts as 0. O(log n) for a tracked sender, O(n log
  /// n) for any other.
  std::uint64_t stable(net::NodeId sender) const;

  /// stable() of every tracked sender where it is above 0, as a row sorted
  /// by sender: what a member announces for the rows this matrix counts.
  Row stable_row() const;

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  /// Index of `node` in the sorted `nodes`, or kAbsent.
  static std::size_t index_of(const std::vector<net::NodeId>& nodes,
                              net::NodeId node);
  /// Sets counted row k's cell in column j to `ack`, keeping the column's
  /// minimum; returns whether the minimum moved.
  bool set_cell_at(std::size_t j, std::size_t k, std::uint64_t ack);
  /// Row k becomes counted with `row` as its cells; returns whether some
  /// stable() value may have moved.
  bool count_row(std::size_t k, const Row& row);
  /// Re-derives column j's minimum from its cells.
  void recompute(std::size_t j);

  /// All rows, by member. Node-based, so counted_ pointers stay valid.
  std::map<net::NodeId, Row> rows_;
  /// The members whose rows count, sorted, and each one's row (or nullptr).
  std::vector<net::NodeId> members_;
  std::vector<const Row*> counted_;
  std::size_t missing_rows_ = 0;
  /// The tracked senders, sorted.
  std::vector<net::NodeId> senders_;
  /// Column j (sender senders_[j]) holds counted row k's ack at
  /// cells_[j * members_.size() + k], or UINT64_MAX while row k is missing.
  std::vector<std::uint64_t> cells_;
  /// Per column: the minimum of its cells (so of the present rows;
  /// UINT64_MAX when none is), and how many cells hold it.
  std::vector<std::uint64_t> min_;
  std::vector<std::size_t> at_min_;
};

}  // namespace aqueduct::gcs
