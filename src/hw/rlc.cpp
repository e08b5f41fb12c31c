#include "hw/rlc.h"

#include "base/log.h"
#include "trace/tracer.h"

namespace swcaffe::hw {

namespace {

/// Records one charged RLC operation as a "hw.rlc" span in the attached
/// tracer (if any) on its track clock.
void trace_rlc(const CostModel& cost, const char* name, std::size_t bytes,
               double seconds) {
  trace::Tracer* tracer = cost.tracer();
  if (!tracer) return;
  const int track = cost.trace_track();
  tracer->begin_span(track, name, "hw.rlc");
  sim::TrafficCounters c;
  c.rlc_bytes = bytes;
  tracer->charge(track, c);
  tracer->end_span(track, seconds);
}

}  // namespace

RlcFabric::RlcFabric(const HwParams& params)
    : params_(params), cost_(params), queues_(params.mesh_size()) {}

int RlcFabric::index(int row, int col) const {
  return row * params_.mesh_cols + col;
}

void RlcFabric::check_coord(int row, int col) const {
  SWC_CHECK_GE(row, 0);
  SWC_CHECK_LT(row, params_.mesh_rows);
  SWC_CHECK_GE(col, 0);
  SWC_CHECK_LT(col, params_.mesh_cols);
}

void RlcFabric::row_broadcast(int row, int src_col,
                              std::span<const double> data) {
  check_coord(row, src_col);
  const std::size_t bytes = data.size() * sizeof(double);
  for (int c = 0; c < params_.mesh_cols; ++c) {
    if (c == src_col) continue;
    queues_[index(row, c)].row.emplace_back(data.begin(), data.end());
    ledger_.rlc_bytes += bytes;
  }
  const double seconds = cost_.rlc_time(bytes, /*broadcast=*/true);
  ledger_.elapsed_s += seconds;
  trace_rlc(cost_, "rlc.row_broadcast", bytes * (params_.mesh_cols - 1),
            seconds);
}

void RlcFabric::col_broadcast(int src_row, int col,
                              std::span<const double> data) {
  check_coord(src_row, col);
  const std::size_t bytes = data.size() * sizeof(double);
  for (int r = 0; r < params_.mesh_rows; ++r) {
    if (r == src_row) continue;
    queues_[index(r, col)].col.emplace_back(data.begin(), data.end());
    ledger_.rlc_bytes += bytes;
  }
  const double seconds = cost_.rlc_time(bytes, /*broadcast=*/true);
  ledger_.elapsed_s += seconds;
  trace_rlc(cost_, "rlc.col_broadcast", bytes * (params_.mesh_rows - 1),
            seconds);
}

void RlcFabric::send(int src_row, int src_col, int dst_row, int dst_col,
                     std::span<const double> data) {
  check_coord(src_row, src_col);
  check_coord(dst_row, dst_col);
  SWC_CHECK_MSG(src_row == dst_row || src_col == dst_col,
                "RLC is only legal within a row or a column: ("
                    << src_row << "," << src_col << ") -> (" << dst_row << ","
                    << dst_col << ")");
  const std::size_t bytes = data.size() * sizeof(double);
  auto& q = queues_[index(dst_row, dst_col)];
  if (src_row == dst_row) {
    q.row.emplace_back(data.begin(), data.end());
  } else {
    q.col.emplace_back(data.begin(), data.end());
  }
  ledger_.rlc_bytes += bytes;
  const double seconds = cost_.rlc_time(bytes, /*broadcast=*/false);
  ledger_.elapsed_s += seconds;
  trace_rlc(cost_, "rlc.send", bytes, seconds);
}

std::vector<double> RlcFabric::receive_row(int row, int col) {
  check_coord(row, col);
  auto& q = queues_[index(row, col)].row;
  SWC_CHECK_MSG(!q.empty(), "RLC row receive on empty FIFO at (" << row << ","
                                                                 << col << ")");
  std::vector<double> out = std::move(q.front());
  q.pop_front();
  return out;
}

std::vector<double> RlcFabric::receive_col(int row, int col) {
  check_coord(row, col);
  auto& q = queues_[index(row, col)].col;
  SWC_CHECK_MSG(!q.empty(), "RLC col receive on empty FIFO at (" << row << ","
                                                                 << col << ")");
  std::vector<double> out = std::move(q.front());
  q.pop_front();
  return out;
}

std::size_t RlcFabric::pending() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.row.size() + q.col.size();
  return n;
}

}  // namespace swcaffe::hw
