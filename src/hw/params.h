// Calibrated hardware constants for the SW26010 many-core processor model.
//
// Values come from the swCaffe paper (CLUSTER'18), its Fig. 2 DMA benchmark,
// and the micro-benchmarking papers it cites (Xu et al. IPDPSW'17 for the
// register-level-communication bandwidths, Fang et al. IPDPS'17 for the DMA
// behaviour). All rates are in SI units (bytes/second, Hz, flops/second).
#pragma once

#include <cstddef>

namespace swcaffe::hw {

/// One SW26010 core group (CG): 1 MPE + an 8x8 CPE mesh sharing one memory
/// controller. The full chip has four CGs.
struct HwParams {
  // --- Clocking and mesh geometry -----------------------------------------
  double core_freq_hz = 1.45e9;  ///< MPE and CPE clock.
  int mesh_rows = 8;
  int mesh_cols = 8;
  int num_core_groups = 4;

  // --- Local directive memory (scratchpad) --------------------------------
  std::size_t ldm_bytes = 64 * 1024;  ///< per CPE

  // --- Compute throughput --------------------------------------------------
  /// Peak of the 8x8 CPE cluster of ONE core group (double precision; the
  /// chip has no faster single-precision path, paper Sec. IV-A).
  double cpe_cluster_flops = 742.4e9;
  /// Peak of the MPE of one core group.
  double mpe_flops = 11.6e9;
  /// Multiplier charged when single-precision data must round-trip through
  /// double-precision registers for RLC (inline SIMD convert, Sec. IV-A).
  double sp_convert_overhead = 1.10;
  /// Fraction of peak a hand-tuned CPE kernel sustains on LDM-resident data
  /// (pipelined fused multiply-add with both issue pipes busy).
  double kernel_efficiency = 0.92;

  // --- DMA between main memory and LDM (paper Fig. 2) ----------------------
  /// Aggregate saturation bandwidth of one CG's memory controller for DMA.
  double dma_peak_bw = 28.0e9;
  /// Ceiling a single CPE's DMA stream can reach.
  double dma_per_cpe_bw = 7.0e9;
  /// Fixed startup latency of one DMA transfer, in core cycles ("hundreds of
  /// cycles", Principle 3; transfers >= 2 KB amortize it).
  double dma_latency_cycles = 278.0;
  /// Extra per-block setup cost for strided DMA, in core cycles. Blocks of
  /// >= 256 B reach "satisfactory" bandwidth (Principle 3).
  double dma_stride_setup_cycles = 35.0;

  // --- MPE path to memory ---------------------------------------------------
  /// Memory-to-memory copy bandwidth through the MPE (paper Sec. III-A:
  /// 9.9 GB/s, versus 28 GB/s via CPE DMA).
  double mpe_copy_bw = 9.9e9;

  // --- Register-level communication (RLC) ----------------------------------
  /// Aggregate P2P RLC bandwidth over the whole mesh when fully pipelined.
  double rlc_p2p_bw = 2549.0e9;
  /// Aggregate row/column broadcast bandwidth when fully pipelined.
  double rlc_bcast_bw = 4461.0e9;
  /// Cycles for one 256-bit register message to cross the bus.
  double rlc_latency_cycles = 11.0;
  /// RLC moves 256-bit (32-byte) packets.
  std::size_t rlc_packet_bytes = 32;

  int mesh_size() const { return mesh_rows * mesh_cols; }
  double cycle_seconds() const { return 1.0 / core_freq_hz; }
};

}  // namespace swcaffe::hw
