// swtune — joint algorithm x compression x bucket-count search for the
// gradient all-reduce.
//
// Extends the bucket-count search (tune/bucket_tune) to the full
// communication configuration: which collective to run (flat RHD in either
// placement, two-level hierarchical, ring, parameter server), which gradient
// codec to apply at the source (none / fp16 / int8 with error feedback) and
// how many layer-aligned buckets to overlap with backward. Every combination
// is filtered through swcheck's comm rules (check::check_comm) BEFORE it is
// priced — an illegal combination (e.g. int8 composed with ring, whose
// hop-by-hop re-quantization has no error bound) is recorded as rejected and
// never scored. The paper's configuration (flat improved RHD, no
// compression, one packed message) is always the first candidate, so the
// tuned choice can never be slower than that baseline under the model.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/compress.h"

namespace swcaffe::tune {

/// One priced (or rejected) communication configuration.
struct CommCandidate {
  topo::AllreduceAlgo algorithm = topo::AllreduceAlgo::kRhdRoundRobin;
  topo::Compression compression = topo::Compression::kNone;
  int requested_buckets = 1;  ///< menu entry
  int buckets = 1;            ///< effective layout size (make_buckets clamps)
  double finish_s = 0.0;
  double exposed_comm_s = 0.0;
  bool legal = true;  ///< false: rejected by swcheck, never priced
};

struct CommChoice {
  topo::AllreduceAlgo algorithm = topo::AllreduceAlgo::kRhdRoundRobin;
  topo::Compression compression = topo::Compression::kNone;
  int buckets = 1;
  double baseline_s = 0.0;    ///< the paper's config (rhd-rr, none, k=1)
  double overlapped_s = 0.0;  ///< the winner's finish time
  double exposed_comm_s = 0.0;
  std::vector<CommCandidate> candidates;  ///< the full priced table
};

/// Searches (algorithm, compression, bucket count) for the gradient whose
/// per-layer sizes are `layer_bytes`, with backward finishing per-layer at
/// `layer_bwd_s` inside a `compute_s` iteration, across `num_nodes` nodes
/// of the TaihuLight network (256-node supernodes, one parameter-server
/// shard), trying up to 32 buckets.
/// Deterministic: fixed menu order, strict-improvement argmin (ties keep the
/// earlier candidate, which orders the baseline first, then fewer buckets).
CommChoice tune_comm(const std::vector<double>& layer_bwd_s, double compute_s,
                     const std::vector<std::int64_t>& layer_bytes,
                     int num_nodes);

}  // namespace swcaffe::tune
