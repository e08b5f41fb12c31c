#include "topo/overlap.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "base/log.h"
#include "sim/engine.h"

namespace swcaffe::topo {

std::vector<GradientBucket> make_buckets(
    const std::vector<std::int64_t>& layer_bytes, int num_buckets) {
  const int n = static_cast<int>(layer_bytes.size());
  SWC_CHECK_GT(n, 0);
  SWC_CHECK_GT(num_buckets, 0);
  std::int64_t total = 0;
  int nonzero = 0;
  for (const std::int64_t b : layer_bytes) {
    SWC_CHECK_GE(b, 0);
    total += b;
    if (b > 0) ++nonzero;
  }
  // Every bucket must carry at least one parameterized layer (a zero-byte
  // bucket would be an empty collective), so the count clamps to the number
  // of layers that actually have gradients.
  const int k = std::max(1, std::min(num_buckets, std::max(1, nonzero)));

  // Built back-to-front: backward produces the HIGHEST layers' gradients
  // first, so the quota walk runs in that service order. This way a
  // dominant late layer (AlexNet's fc6 holds 60% of the bytes) gets its own
  // early-ready bucket, and the one bucket that must wait for the entire
  // backward pass — the one containing layer 0 — is the leftover front
  // slice, typically the smallest.
  std::vector<GradientBucket> out;
  out.reserve(k);
  int last = n - 1;
  std::int64_t cum = 0;          // bytes of all closed buckets + current one
  std::int64_t bucket_bytes = 0; // bytes of the open bucket
  int nonzero_left = nonzero;    // parameterized layers not yet swallowed
  for (int i = n - 1; i >= 0; --i) {
    // Close BEFORE swallowing a layer that would overshoot the per-bucket
    // share worse than the current undershoot (2*bucket + layer > 2*share).
    // This is what splits off a dominant EARLY layer: walking back-to-front
    // its bytes arrive last, the quota below would never fire before it, and
    // without this check the whole net would collapse into one bucket.
    if (static_cast<int>(out.size()) < k - 1 && bucket_bytes > 0 &&
        layer_bytes[i] > 0 &&
        (2 * bucket_bytes + layer_bytes[i]) * k > 2 * total) {
      out.push_back({i + 1, last, bucket_bytes});
      last = i;
      bucket_bytes = 0;
    }
    cum += layer_bytes[i];
    bucket_bytes += layer_bytes[i];
    if (layer_bytes[i] > 0) --nonzero_left;
    const int b = static_cast<int>(out.size());
    if (i == 0) {
      out.push_back({0, last, bucket_bytes});
      break;
    }
    if (b == k - 1) continue;  // the final bucket takes everything left
    // Close the bucket once it holds its share of the volume — but only if
    // it is non-empty and a parameterized layer remains for the rest (a
    // giant layer may eat several shares; that just yields fewer buckets).
    const bool quota_met = cum * k >= total * (b + 1);
    if (quota_met && bucket_bytes > 0 && nonzero_left >= 1) {
      out.push_back({i, last, bucket_bytes});
      last = i - 1;
      bucket_bytes = 0;
    }
  }
  std::reverse(out.begin(), out.end());
  SWC_CHECK_LE(static_cast<int>(out.size()), k);
  SWC_CHECK_EQ(out.front().first_layer, 0);
  SWC_CHECK_EQ(out.back().last_layer, n - 1);
  return out;
}

std::vector<std::int64_t> scale_layer_bytes(
    const std::vector<std::int64_t>& layer_bytes, std::int64_t total_bytes) {
  SWC_CHECK_GE(total_bytes, 0);
  SWC_CHECK(!layer_bytes.empty());
  std::int64_t src_total = 0;
  for (const std::int64_t b : layer_bytes) src_total += b;
  std::vector<std::int64_t> out(layer_bytes.size(), 0);
  if (src_total == 0) {
    out.back() = total_bytes;
    return out;
  }
  // Cumulative rounding: out[i] = round(cum_src * scale) - already_assigned,
  // so per-layer rounding errors cancel and the sum is exactly total_bytes.
  std::int64_t cum_src = 0;
  std::int64_t cum_dst = 0;
  const double scale = static_cast<double>(total_bytes) /
                       static_cast<double>(src_total);
  for (std::size_t i = 0; i < layer_bytes.size(); ++i) {
    cum_src += layer_bytes[i];
    const std::int64_t target =
        i + 1 == layer_bytes.size()
            ? total_bytes
            : static_cast<std::int64_t>(
                  std::llround(static_cast<double>(cum_src) * scale));
    out[i] = target - cum_dst;
    SWC_CHECK_GE(out[i], 0);
    cum_dst = target;
  }
  return out;
}

OverlapTimeline schedule_overlap(const std::vector<GradientBucket>& buckets,
                                 const std::vector<double>& layer_bwd_s,
                                 double compute_s,
                                 const BucketCostFn& bucket_cost,
                                 sim::EventLog* event_log) {
  SWC_CHECK(!buckets.empty());
  const int n = static_cast<int>(layer_bwd_s.size());
  SWC_CHECK_GT(n, 0);
  SWC_CHECK_EQ(buckets.back().last_layer, n - 1);
  // prefix[i] = backward time of layers 0..i-1, i.e. the backward work still
  // pending when layer i's own backward completes.
  std::vector<double> prefix(n + 1, 0.0);
  for (int i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + layer_bwd_s[i];
  SWC_CHECK_GE(compute_s, prefix[n] - 1e-12);

  OverlapTimeline tl;
  tl.compute_s = compute_s;
  sim::Engine engine;
  const int compute_actor = engine.add_actor("compute");
  const int net_actor = engine.add_actor("network");
  const int net = engine.add_resource("network");
  engine.record_span(compute_actor, 0.0, compute_s, "compute.fwd_bwd");
  // One "bucket ready" event per bucket, posted in reverse layer order:
  // backward produces the highest layers' gradients first. ready =
  // compute_s - prefix[first_layer] is exact (no re-accumulation drift): the
  // bucket starting at layer 0 is ready at exactly compute_s, which is what
  // makes the single-bucket schedule reproduce the serial model bit-for-bit.
  // Ready times are monotone non-decreasing along this posting order
  // (first_layer shrinks, so prefix[first_layer] shrinks) and the engine
  // breaks equal-time ties by posting order, so handlers fire in exactly the
  // service order of the serial busy-interval loop this replaced — the
  // engine schedule is bit-identical by construction. A ready time a float
  // hair below zero (compute_s is allowed to undershoot the backward sum by
  // 1e-12) posts at zero but still serves at its raw ready time.
  for (int b = static_cast<int>(buckets.size()) - 1; b >= 0; --b) {
    const GradientBucket& bucket = buckets[b];
    SWC_CHECK_GE(bucket.first_layer, 0);
    SWC_CHECK_LE(bucket.first_layer, bucket.last_layer);
    SWC_CHECK_LT(bucket.last_layer, n);
    const double ready = compute_s - prefix[bucket.first_layer];
    engine.post(
        std::max(ready, 0.0), net_actor, "bucket.ready",
        [&tl, &bucket_cost, bucket, ready, net, net_actor](sim::Engine& eng) {
          BucketTiming t;
          t.bucket = bucket;
          t.ready_s = ready;
          t.cost = bucket_cost(bucket.bytes);
          t.start_s = eng.acquire(net, net_actor, ready, t.cost.seconds,
                                  "comm.allreduce", bucket.bytes);
          t.end_s = t.start_s + t.cost.seconds;
          tl.comm_s += t.cost.seconds;
          tl.alpha_terms += t.cost.alpha_terms;
          tl.buckets.push_back(t);
        });
  }
  engine.run();
  SWC_CHECK_EQ(static_cast<std::size_t>(engine.events_processed()),
               buckets.size());
  tl.finish_s = std::max(compute_s, engine.resource(net).busy_until());
  tl.exposed_comm_s = std::max(0.0, tl.finish_s - compute_s);
  if (event_log) *event_log = engine.log();
  return tl;
}

void trace_overlap(trace::Tracer* tracer, int track,
                   const OverlapTimeline& timeline) {
  if (!tracer) return;
  for (std::size_t i = 0; i < timeline.buckets.size(); ++i) {
    const BucketTiming& t = timeline.buckets[i];
    tracer->set_clock(track, t.start_s);
    trace_allreduce(tracer, track,
                    "bucket" + std::to_string(i) + "[" +
                        std::to_string(t.bucket.first_layer) + ".." +
                        std::to_string(t.bucket.last_layer) + "]",
                    t.cost);
  }
}

}  // namespace swcaffe::topo
