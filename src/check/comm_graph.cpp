#include "check/comm_graph.h"

#include <iterator>
#include <map>
#include <tuple>

namespace swcaffe::check {

std::string describe_op(const CommOp& op) {
  static constexpr const char* kKind[] = {"row-broadcast", "col-broadcast",
                                          "send", "recv-row", "recv-col"};
  static_assert(std::size(kKind) ==
                static_cast<std::size_t>(CommOp::Kind::kRecvCol) + 1);
  std::string s = std::string(kKind[static_cast<std::size_t>(op.kind)]) +
                  " @(" + std::to_string(op.row) + "," +
                  std::to_string(op.col) + ")";
  if (op.kind == CommOp::Kind::kSend) {
    s += "->(" + std::to_string(op.peer_row) + "," +
         std::to_string(op.peer_col) + ")";
  }
  return s;
}

CommMatching match_comm(const std::vector<CommOp>& ops, bool mesh,
                        const hw::HwParams& hp) {
  enum Bus { kRowBus = 0, kColBus = 1 };
  using QueueKey = std::tuple<int, int, int>;  // (dst row, dst col, bus)
  std::map<QueueKey, CommQueue> queues;

  CommMatching m;
  m.succ.resize(ops.size());
  std::map<std::pair<int, int>, int> last_op;  // CPE -> its latest op
  for (int i = 0; i < static_cast<int>(ops.size()); ++i) {
    const CommOp& op = ops[static_cast<std::size_t>(i)];
    const auto [it, first] = last_op.try_emplace({op.row, op.col}, i);
    if (!first) {
      m.succ[static_cast<std::size_t>(it->second)].push_back(i);
      it->second = i;
    }

    switch (op.kind) {
      case CommOp::Kind::kRowBroadcast:
        for (int c = 0; c < hp.mesh_cols; ++c) {
          if (c != op.col) queues[{op.row, c, kRowBus}].sends.push_back(i);
        }
        break;
      case CommOp::Kind::kColBroadcast:
        for (int r = 0; r < hp.mesh_rows; ++r) {
          if (r != op.row) queues[{r, op.col, kColBus}].sends.push_back(i);
        }
        break;
      case CommOp::Kind::kSend: {
        int bus = kRowBus;
        if (mesh) {
          const bool same_row = op.peer_row == op.row;
          const bool same_col = op.peer_col == op.col;
          if (same_row == same_col) {  // diagonal pair or self-send
            m.diagonal.push_back(i);
            break;
          }
          bus = same_row ? kRowBus : kColBus;
        }
        queues[{op.peer_row, op.peer_col, bus}].sends.push_back(i);
        break;
      }
      case CommOp::Kind::kRecvRow:
        queues[{op.row, op.col, kRowBus}].receives.push_back(i);
        break;
      case CommOp::Kind::kRecvCol:
        queues[{op.row, op.col, kColBus}].receives.push_back(i);
        break;
    }
  }

  for (auto& [key, q] : queues) {
    std::tie(q.row, q.col, std::ignore) = key;
    q.column_bus = std::get<2>(key) == kColBus;
    for (std::size_t k = 0; k < q.receives.size() && k < q.sends.size(); ++k) {
      m.messages.emplace_back(q.sends[k], q.receives[k]);
      m.succ[static_cast<std::size_t>(q.sends[k])].push_back(q.receives[k]);
    }
    m.queues.push_back(std::move(q));
  }
  return m;
}

std::vector<int> topological_order(const std::vector<std::vector<int>>& succ) {
  std::vector<int> indegree(succ.size(), 0);
  for (const std::vector<int>& out : succ) {
    for (const int s : out) ++indegree[static_cast<std::size_t>(s)];
  }
  std::vector<int> order;
  order.reserve(succ.size());
  for (std::size_t i = 0; i < succ.size(); ++i) {
    if (indegree[i] == 0) order.push_back(static_cast<int>(i));
  }
  // `order` doubles as the ready queue: entries past `head` are runnable
  // but their successors are not yet released.
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const int s : succ[static_cast<std::size_t>(order[head])]) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) order.push_back(s);
    }
  }
  return order;
}

}  // namespace swcaffe::check
