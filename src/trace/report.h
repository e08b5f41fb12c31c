// Aggregate report over a recorded trace: groups spans by name within one
// category and sums simulated time and traffic — the shape of the paper's
// Table IV/V per-layer breakdowns (time, DMA volume, RLC volume, flops,
// achieved Gflops), printable as an ASCII table or machine-readable JSON.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/tracer.h"

namespace swcaffe::trace {

struct ReportRow {
  std::string name;
  std::string category;
  int count = 0;          ///< number of spans aggregated
  double total_s = 0.0;   ///< summed inclusive simulated time
  sim::TrafficCounters traffic;

  /// Achieved Gflops over the aggregated interval (0 when no flops charged).
  double gflops() const {
    return total_s > 0.0 ? traffic.flops / total_s / 1e9 : 0.0;
  }
};

class Report {
 public:
  /// Aggregates spans whose category matches `category` exactly, or every
  /// TOP-LEVEL span (depth 0) when `category` is empty. Rows keep first-
  /// appearance order (so a per-layer report lists layers in net order).
  static Report build(const Tracer& tracer, const std::string& category = "");

  const std::vector<ReportRow>& rows() const { return rows_; }
  /// Sum of total_s over all rows.
  double total_seconds() const;

  /// ASCII table: name, time, dma/rlc/net volume, Gflops.
  void print(std::ostream& os) const;
  /// JSON object {"rows":[...], "total_s": ...}.
  void write_json(std::ostream& os) const;

 private:
  std::vector<ReportRow> rows_;
};

}  // namespace swcaffe::trace
