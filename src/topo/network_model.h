// Alpha-beta-gamma cost model of the Sunway network (paper Sec. V-A,
// Thakur et al. cost model), plus point-to-point curves for Fig. 6.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/topology.h"

namespace swcaffe::topo {

struct NetParams {
  std::string name = "sunway";
  /// Startup latency per message (eager protocol).
  double alpha = 1.5e-6;
  /// Extra startup once the rendezvous protocol kicks in (> eager_limit).
  double alpha_rendezvous = 7.5e-6;
  std::int64_t eager_limit = 2 * 1024;  ///< paper Fig. 6: SW worse >2 KB
  /// Achieved point-to-point bandwidth between any two nodes (12 GB/s of a
  /// 16 GB/s theoretical link, Sec. II-B).
  double link_bw = 12.0e9;
  /// Message size at which half the peak bandwidth is reached.
  double bw_half_size = 64.0 * 1024;
  /// Central-switch oversubscription: cross-supernode aggregate capacity is
  /// (q * link_bw) / oversub per supernode.
  double oversub = 4.0;
  /// Reduction bandwidth for the local sum (gamma): the paper performs sums
  /// on the four CPE clusters rather than the MPE (Sec. V-A).
  double reduce_bw = 25.0e9;
  /// Effective per-byte cost in the latency (ping-pong) benchmark, which
  /// includes the software stack's copies (calibrated to Fig. 6 right).
  double latency_per_byte = 1.9e-9;
  /// Fraction of a flow's wire bandwidth that MPI COLLECTIVE steps actually
  /// sustain (un-overlapped protocol phases, MPE staging copies, tag
  /// matching). Calibrated so the Fig. 10/11 communication fractions are
  /// reproduced: the paper's measured all-reduce of AlexNet's 232.6 MB
  /// gradients at 1024 nodes implies ~0.4 GB/s effective — about 3% of the
  /// 12 GB/s point-to-point rate. Multiplicative, so the 4x supernode
  /// oversubscription penalty (and hence the Fig. 7 placement win) is
  /// preserved.
  double collective_efficiency = 0.03;
  /// Fixed software cost per collective step beyond the wire latency
  /// (buffer registration, tag matching, progress-engine polling).
  double alpha_collective = 25e-6;

  double beta1() const { return 1.0 / (link_bw * collective_efficiency); }
  double gamma() const { return 1.0 / reduce_bw; }
};

/// Calibrated presets for the two networks compared in Fig. 6.
NetParams sunway_network();
NetParams infiniband_fdr();

/// Saturating point-to-point bandwidth curve (Fig. 6 left). `bidirectional`
/// derates per-direction throughput; `oversubscribed` divides by the
/// central-switch factor.
double p2p_bandwidth(const NetParams& net, std::int64_t bytes,
                     bool bidirectional, bool oversubscribed);

/// Ping-pong latency curve (Fig. 6 right).
double p2p_latency(const NetParams& net, std::int64_t bytes);

/// One communication step where every listed (src, dst) flow moves `bytes`
/// concurrently: per-flow bandwidth is the link rate unless more flows leave
/// a supernode than its uplink can carry. Returns the step's wall time.
double step_time(const NetParams& net, const Topology& topo,
                 Placement placement,
                 const std::vector<std::pair<int, int>>& flows,
                 std::int64_t bytes);

}  // namespace swcaffe::topo
