// Timing model for the SW26010 core group.
//
// Every kernel plan in swgemm/swdnn describes its data movement and compute
// as events; CostModel converts events to simulated seconds using the
// calibrated HwParams. The same model backs both the functional micro
// simulator (hw::DmaEngine / hw::RlcFabric charge their real transfers here)
// and the analytic layer estimators used at paper scale.
#pragma once

#include <cstddef>

#include "hw/params.h"

namespace swcaffe::trace {
class Tracer;
}  // namespace swcaffe::trace

namespace swcaffe::hw {

/// Accumulated traffic and simulated time of a kernel or plan.
///
/// `elapsed_s` is the simulated wall time (kernels decide how compute and
/// DMA overlap); the byte/flop counters are bookkeeping used by tests (e.g.
/// the mesh-GEMM "touch main memory once" invariant) and bench reports.
struct TrafficLedger {
  std::size_t dma_get_bytes = 0;  ///< main memory -> LDM
  std::size_t dma_put_bytes = 0;  ///< LDM -> main memory
  std::size_t rlc_bytes = 0;      ///< register-level communication volume
  std::size_t mpe_bytes = 0;      ///< memory copies through the MPE
  double flops = 0.0;             ///< arithmetic executed on the CPE cluster
  double elapsed_s = 0.0;         ///< simulated time

  void add(const TrafficLedger& other);
  std::size_t dma_bytes() const { return dma_get_bytes + dma_put_bytes; }
};

/// Converts hardware events to simulated seconds for ONE core group.
class CostModel {
 public:
  explicit CostModel(const HwParams& params = HwParams{}) : params_(params) {}

  const HwParams& params() const { return params_; }

  // --- Tracing ---------------------------------------------------------------
  /// Attaches an optional tracer. The cost model itself stays a pure
  /// function of its parameters — the pointer merely rides along so every
  /// component built on this model (DmaEngine, RlcFabric, the layer
  /// estimators) can emit spans on `track` without new plumbing. Null (the
  /// default) disables tracing at the cost of one pointer test per event.
  void set_tracer(trace::Tracer* tracer, int track = 0) {
    tracer_ = tracer;
    trace_track_ = track;
  }
  trace::Tracer* tracer() const { return tracer_; }
  int trace_track() const { return trace_track_; }

  // --- DMA ------------------------------------------------------------------
  /// Time for `n_cpes` CPEs to each move `bytes_per_cpe` contiguous bytes
  /// between main memory and their LDMs (concurrently, sharing the memory
  /// controller). Models the Fig. 2 "continuous DMA" curves.
  double dma_time(std::size_t bytes_per_cpe, int n_cpes) const;

  /// Aggregate bandwidth achieved by the transfer above (bytes/second).
  double dma_bandwidth(std::size_t bytes_per_cpe, int n_cpes) const;

  /// Time for strided DMA: each CPE moves `bytes_per_cpe` in blocks of
  /// `block_bytes` contiguous bytes. Models the Fig. 2 "strided DMA" curves.
  double dma_strided_time(std::size_t bytes_per_cpe, std::size_t block_bytes,
                          int n_cpes) const;

  double dma_strided_bandwidth(std::size_t bytes_per_cpe,
                               std::size_t block_bytes, int n_cpes) const;

  // --- Compute ----------------------------------------------------------------
  /// Time for `flops` floating point operations on the full CPE cluster at
  /// sustained kernel efficiency. `single_precision` adds the RLC-convert
  /// overhead the paper charges for SP data (Sec. IV-A).
  double compute_time(double flops, bool single_precision = true) const;

  /// Time for `flops` executed on the MPE only (used by the naive baseline).
  double mpe_compute_time(double flops) const;

  // --- MPE memory path ----------------------------------------------------------
  double mpe_copy_time(std::size_t bytes) const;

  // --- Register-level communication ---------------------------------------------
  /// Time to move `bytes` over RLC; broadcast uses the higher aggregate rate.
  double rlc_time(std::size_t bytes, bool broadcast) const;

 private:
  HwParams params_;
  trace::Tracer* tracer_ = nullptr;
  int trace_track_ = 0;
};

}  // namespace swcaffe::hw
