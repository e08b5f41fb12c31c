// swsim timing-only fast path for the Fig. 10/11 scalability sweeps.
//
// A full-machine sweep (five batch-size series x seven node counts, plus
// the hierarchical/compressed series out to 40,960 nodes) factors the way
// the arithmetic does: the per-series prep (analytic NetTimeline + bucket
// layout of the packed message) runs ONCE per series, then every
// (series, node-count) point — swcheck comm legality, codec-wrapped
// collective pricing (topo::allreduce_cost), the swsim overlap schedule and
// its swsched verification — is priced on its own over the swsim worker
// pool. Points are independent (pure arithmetic on the prepared series
// state) and results land in index-order slots, so a sweep is bit-identical
// to a serial single-series sweep of each series at ANY thread count —
// pinned by tests and the bench determinism gates.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hw/cost_model.h"
#include "parallel/ssgd.h"
#include "swdnn/layer_estimate.h"

namespace swcaffe::parallel {

/// One point of the Fig. 10/11 curves.
struct ScalePoint {
  int nodes = 1;
  double comp_s = 0.0;       ///< per-iteration compute (node, 4 CGs)
  double comm_s = 0.0;       ///< per-iteration all-reduce (serial model)
  double speedup = 1.0;      ///< throughput(N) / throughput(1)
  double comm_fraction = 0;  ///< comm / (comp + comm)
  // Overlapped (bucketed) series at SsgdOptions::buckets. With buckets == 1
  // these reproduce the serial model bit-for-bit (overlap_s == comp + comm).
  double overlap_s = 0.0;         ///< overlapped iteration time
  double exposed_comm_s = 0.0;    ///< comm tail sticking out past compute
  double overlap_speedup = 1.0;   ///< nodes * comp / overlap_s
  int buckets = 1;                ///< effective bucket count (post-clamp)
};

/// One curve of the sweep: a network architecture (descriptors + packed
/// message size) under one SSGD configuration, priced at every node count.
/// `descs_per_cg` describes the net at sub_batch/4 (one core group's share,
/// Algorithm 1); its per-layer bytes are rescaled to sum to `param_bytes`
/// and bucketed at `options.buckets` for the overlapped series.
struct SweepSeries {
  std::string label;
  std::vector<core::LayerDesc> descs_per_cg;
  std::int64_t param_bytes = 0;
  SsgdOptions options;
  std::vector<int> node_counts;
  /// Optional tuned conv pricing (must outlive the sweep call).
  const std::map<std::string, dnn::ConvEstimate>* conv_overrides = nullptr;
};

struct SweepResult {
  std::string label;
  std::vector<ScalePoint> points;  ///< index-matched to node_counts
};

/// Runs the whole sweep: per-series prep once, then every (series, node)
/// point priced independently on `threads` workers (1 = serial). Results
/// are bit-identical to a serial sweep of each series on its own, for any
/// thread count.
std::vector<SweepResult> scalability_sweep(const hw::CostModel& cost,
                                           const std::vector<SweepSeries>& series,
                                           int threads = 1);

}  // namespace swcaffe::parallel
