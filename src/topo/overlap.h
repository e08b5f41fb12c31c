// Overlapped (bucketed) gradient all-reduce timeline (FireCaffe-style
// communication scheduling over the paper's Sec. V-A cost model).
//
// The paper packs every layer's gradients into ONE flat message and
// all-reduces it after the full backward pass, so communication is fully
// serialized behind compute. Splitting the packed message into layer-aligned
// *buckets* lets each bucket's all-reduce start the moment the backward pass
// has produced its layers' gradients: backward runs in reverse layer order,
// so the bucket holding the LAST layers is ready first and its collective
// hides under the backward work of the earlier layers.
//
// The model here is purely analytic (no floats move):
//  * make_buckets partitions per-layer gradient bytes into contiguous,
//    layer-aligned buckets of roughly equal volume;
//  * schedule_overlap runs the buckets through a swsim event engine: one
//    "bucket ready" event per bucket fires when backward has produced its
//    layers, and the handler occupies the single exclusive network resource
//    (busy intervals: a bucket starts at max(its ready time, previous
//    bucket's finish)). The timeline reports the iteration finish plus the
//    *exposed* communication — the tail of comm that sticks out past the
//    end of compute, which is the only part a training iteration actually
//    waits for;
//  * trace_overlap renders the schedule as per-bucket "comm.allreduce"
//    spans on a dedicated network track, so a Perfetto timeline visibly
//    shows comm hiding under backward.
//
// Degenerate contract (pinned by tests): with one bucket the schedule is
// bit-identical to the serial model — ready time is exactly the compute end
// and the finish is compute + the single collective's seconds.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "base/log.h"
#include "sim/event.h"
#include "topo/allreduce.h"
#include "trace/tracer.h"

namespace swcaffe::topo {

/// One contiguous, layer-aligned slice of the packed gradient message.
struct GradientBucket {
  int first_layer = 0;  ///< lowest layer index contributing gradients
  int last_layer = 0;   ///< highest layer index (inclusive)
  std::int64_t bytes = 0;  ///< gradient bytes of layers [first, last]
};

/// Partitions per-layer gradient byte counts into at most `num_buckets`
/// contiguous buckets of roughly equal volume, walking the layers in
/// network service order (back to front) so a dominant late layer gets its
/// own early-ready bucket; a dominant EARLY layer is split off too (a
/// bucket closes rather than swallow a layer that would overshoot its
/// share worse than it currently undershoots). Buckets are layer-aligned (a
/// layer's gradient is
/// never split) and never empty: the count clamps to the number of layers
/// with non-zero parameter bytes, and a single layer holding several
/// buckets' worth of volume simply yields fewer buckets. Layers without
/// parameters (data, ReLU, pool, ...) ride along with a parameterized
/// neighbour. Requires at least one layer; total bytes may be zero (one
/// zero-byte bucket covering everything).
std::vector<GradientBucket> make_buckets(
    const std::vector<std::int64_t>& layer_bytes, int num_buckets);

/// Rescales per-layer byte counts so they sum to exactly `total_bytes`
/// while preserving proportions (cumulative rounding: no drift, the sum is
/// exact). Used to reconcile descriptor-derived layer sizes with a
/// paper-specified packed-message size (e.g. AlexNet's 232.6 MB). When the
/// source sums to zero the whole budget lands on the last layer.
std::vector<std::int64_t> scale_layer_bytes(
    const std::vector<std::int64_t>& layer_bytes, std::int64_t total_bytes);

/// Prices one bucket's collective (same signature family as cost_rhd et
/// al., bound by the caller so this module stays algorithm-agnostic).
using BucketCostFn = std::function<CostBreakdown(std::int64_t bytes)>;

/// One bucket's placement on the simulated timeline.
struct BucketTiming {
  GradientBucket bucket;
  double ready_s = 0.0;  ///< backward has produced the bucket's gradients
  double start_s = 0.0;  ///< network starts serving the bucket
  double end_s = 0.0;    ///< collective finished on every node
  CostBreakdown cost;    ///< the bucket's own alpha/beta/gamma breakdown
};

/// The overlapped iteration timeline.
struct OverlapTimeline {
  /// Bucket timings in network service order (reverse layer order: the
  /// bucket with the highest layers is produced — and served — first).
  std::vector<BucketTiming> buckets;
  double compute_s = 0.0;       ///< forward + backward (t = 0 .. compute_s)
  double comm_s = 0.0;          ///< sum of bucket collective seconds
  double finish_s = 0.0;        ///< max(compute end, last bucket end)
  double exposed_comm_s = 0.0;  ///< max(0, comm tail beyond compute)
  int alpha_terms = 0;          ///< total message rounds across buckets
};

/// Schedules the buckets' collectives against the backward pass.
/// `layer_bwd_s[i]` is layer i's backward time; backward visits layers in
/// reverse order, so bucket [lo, hi] is ready when every layer >= lo has run
/// backward: ready = compute_s - sum(layer_bwd_s[j] for j < lo). The network
/// serves buckets in reverse layer order as busy intervals
/// (start = max(ready, previous end)); `bucket_cost` prices each bucket.
/// `compute_s` is the full forward+backward time and must be >= the sum of
/// `layer_bwd_s` (forward plus backward of the priced layers). `event_log`,
/// when non-null, receives the engine's recorded event log (the compute
/// span plus one network charge per bucket) — ready for swsched extraction
/// via check::timeline_from_events.
OverlapTimeline schedule_overlap(const std::vector<GradientBucket>& buckets,
                                 const std::vector<double>& layer_bwd_s,
                                 double compute_s,
                                 const BucketCostFn& bucket_cost,
                                 sim::EventLog* event_log = nullptr);

/// Renders the timeline on `track`: each bucket's collective is recorded
/// with trace_allreduce at its scheduled start, named "bucket<k>[lo..hi]"
/// (a "comm.allreduce" span plus the per-bucket alpha/beta/gamma
/// counters). Sets the track clock; callers emitting compute spans on the
/// same trace should use a different track. No-op when `tracer` is null.
void trace_overlap(trace::Tracer* tracer, int track,
                   const OverlapTimeline& timeline);

}  // namespace swcaffe::topo
