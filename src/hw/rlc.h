// Register-level communication (RLC) fabric model.
//
// SW26010 CPEs in the same row or column of the 8x8 mesh exchange 256-bit
// messages over register buses in an anonymous producer-consumer pattern
// with FIFO buffers (paper Principle 4). This model moves real data through
// per-CPE FIFO queues (so algorithms built on it are functionally testable)
// and charges transfer volume to a TrafficLedger.
#pragma once

#include <deque>
#include <span>
#include <vector>

#include "hw/cost_model.h"
#include "hw/params.h"

namespace swcaffe::hw {

/// Row/column FIFO fabric of one CPE mesh.
///
/// Hardware constraint enforced: direct RLC is only legal between CPEs that
/// share a row or a column; anything else throws.
class RlcFabric {
 public:
  explicit RlcFabric(const HwParams& params);

  /// CPE (row, src_col) broadcasts `data` to the other 7 CPEs in its row.
  void row_broadcast(int row, int src_col, std::span<const double> data);

  /// CPE (src_row, col) broadcasts `data` to the other 7 CPEs in its column.
  void col_broadcast(int src_row, int col, std::span<const double> data);

  /// P2P send; (src_row, src_col) and (dst_row, dst_col) must share a row or
  /// a column. Blocking-queue semantics are modelled as FIFO order.
  void send(int src_row, int src_col, int dst_row, int dst_col,
            std::span<const double> data);

  /// Pops the oldest pending message for CPE (row, col) from its row bus.
  std::vector<double> receive_row(int row, int col);
  /// Pops the oldest pending message for CPE (row, col) from its column bus.
  std::vector<double> receive_col(int row, int col);

  /// Number of undelivered messages (tests assert it returns to zero).
  std::size_t pending() const;

  /// Traffic charged so far (volume counts payload bytes once per receiver,
  /// matching how the paper accounts RLC bandwidth).
  const TrafficLedger& ledger() const { return ledger_; }
  void reset_ledger() { ledger_ = TrafficLedger{}; }

  /// Attaches an optional tracer (see CostModel::set_tracer): broadcasts and
  /// sends emit "hw.rlc" spans of their charged duration on `track`.
  void set_tracer(trace::Tracer* tracer, int track = 0) {
    cost_.set_tracer(tracer, track);
  }

 private:
  struct Queues {
    std::deque<std::vector<double>> row;  // messages arriving over the row bus
    std::deque<std::vector<double>> col;  // messages arriving over the col bus
  };

  int index(int row, int col) const;
  void check_coord(int row, int col) const;

  HwParams params_;
  CostModel cost_;
  std::vector<Queues> queues_;
  TrafficLedger ledger_;
};

}  // namespace swcaffe::hw
