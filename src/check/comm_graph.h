// How a send meets its receive, and how a dependency cycle is found: the
// one matcher behind check_schedule (single schedules and compositions) and
// timeline_from_comm, and the one Kahn pass behind check_schedule and
// check_timeline.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "check/plan_model.h"
#include "hw/params.h"

namespace swcaffe::check {

/// "send @(r,c)->(pr,pc)" for sends, "<kind> @(r,c)" otherwise.
std::string describe_op(const CommOp& op);

/// One receive queue: the messages delivered to CPE/rank (row, col) on one
/// bus, and the receives that pop them.
struct CommQueue {
  int row = 0, col = 0;
  bool column_bus = false;
  std::vector<int> sends;     ///< delivering ops, one entry per message
  std::vector<int> receives;  ///< consuming ops, in list order
};

/// The message structure of one op list (ops in per-CPE program order).
struct CommMatching {
  std::vector<CommQueue> queues;  ///< sorted by (row, col, bus)
  /// Mesh sends to a CPE sharing neither row nor column with the sender
  /// (or to itself): RLC cannot deliver them, so they enter no queue.
  std::vector<int> diagonal;
  /// (send, receive) op pairs: the k-th receive on a queue consumes the
  /// k-th message delivered to it, wherever either sits in the list (which
  /// is what makes a recv-before-send cycle detectable rather than
  /// impossible). Listed queue by queue, then by k.
  std::vector<std::pair<int, int>> messages;
  /// Dependency successors of every op: the next op of the same CPE/rank
  /// (program order) and the receive of every message it delivers.
  std::vector<std::vector<int>> succ;
};

/// Matches `ops`. Broadcasts fan out to the other CPEs of the sender's
/// mesh row (row bus) or column (column bus). With `mesh`, a send travels
/// on the row bus to a CPE of its row and on the column bus to one of its
/// column; without it (cluster schedules) every send uses the row bus.
CommMatching match_comm(const std::vector<CommOp>& ops, bool mesh,
                        const hw::HwParams& hp);

/// Kahn's algorithm: the nodes of the successor-list graph in a
/// topological order. On a cyclic graph the order is partial: the missing
/// nodes are exactly those on a cycle or downstream of one.
std::vector<int> topological_order(const std::vector<std::vector<int>>& succ);

}  // namespace swcaffe::check
