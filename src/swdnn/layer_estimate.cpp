#include "swdnn/layer_estimate.h"

#include <algorithm>
#include <optional>

#include "base/log.h"
#include "swdnn/conv_plan.h"
#include "swdnn/mem_plans.h"
#include "swgemm/estimate.h"
#include "trace/tracer.h"

namespace swcaffe::dnn {

namespace {

double gemm_s(const hw::CostModel& cost, std::int64_t m, std::int64_t n,
              std::int64_t k) {
  return gemm::estimate_gemm(cost, m, n, k).seconds;
}

// Fixed cost of launching one layer pass on the CPE cluster: athread_spawn/
// athread_join plus the MPE-side synchronization shown in Fig. 5 happen for
// EVERY layer in every direction. Calibrated against Table III: it is what
// makes deep small-layer networks (ResNet-50: ~176 layers, GoogleNet: ~140)
// "exhibit stronger memory-bounded properties" than their flop counts alone
// suggest, while being negligible for AlexNet/VGG's two dozen fat layers.
constexpr double kLaunchOverheadS = 3.0e-3;

/// Fig. 4 transformation volumes (duplicated from conv_plan.cpp's internal
/// helpers; only used to label trace spans, never to compute time).
std::size_t conv_image_bytes(const core::ConvGeom& g) {
  return 4ull * g.batch * g.in_c * g.in_h * g.in_w;
}
std::size_t conv_col_bytes(const core::ConvGeom& g) {
  return 4ull * g.batch * g.in_c * g.kernel * g.kernel * g.out_h() *
         g.out_w();
}

void charge_flops(trace::Tracer* tr, int track, double flops) {
  sim::TrafficCounters c;
  c.flops = flops;
  tr->charge(track, c);
}

/// One closed child span of `seconds` with optional byte/flop counters.
void child_span(trace::Tracer* tr, int track, const char* name,
                const char* category, double seconds,
                const sim::TrafficCounters& c = {}) {
  tr->begin_span(track, name, category);
  if (!c.empty()) tr->charge(track, c);
  tr->end_span(track, std::max(0.0, seconds));
}

/// Emits the layer's span tree: <name> → {fwd, bwd} → kernel-phase children
/// (im2col / gemm / implicit / col2im for convolutions). The clock is
/// snapped to the exact fwd_s/bwd_s boundaries of the already-computed
/// LayerTime, so re-derived child durations cannot drift the timeline: the
/// layer span's duration equals the table's fwd+bwd to the last ulp.
void trace_layer(const hw::CostModel& cost, const core::LayerDesc& d,
                 bool first_conv, const LayerTime& t,
                 const std::optional<ConvEstimate>& conv) {
  trace::Tracer* tr = cost.tracer();
  const int track = cost.trace_track();
  const double t0 = tr->now(track);
  auto snap = [&](double target) {
    const double now = tr->now(track);
    if (target > now) tr->advance(track, target - now);
  };

  tr->begin_span(track, d.name, "layer");
  const bool conv_phases = conv.has_value() && d.conv.group == 1;

  tr->begin_span(track, "fwd", "layer.phase");
  if (conv_phases) {
    const core::ConvGeom& g = d.conv;
    sim::TrafficCounters flops;
    flops.flops = g.flops_fwd();
    if (conv->forward.implicit_wins()) {
      child_span(tr, track, "implicit_conv", "kernel.conv",
                 conv->forward.implicit_s, flops);
    } else {
      const double im2col_s = im2col_time(cost, g);
      sim::TrafficCounters dma;
      dma.dma_get_bytes = conv_image_bytes(g);
      dma.dma_put_bytes = conv_col_bytes(g);
      child_span(tr, track, "im2col", "kernel.transform", im2col_s, dma);
      child_span(tr, track, "gemm", "kernel.gemm",
                 conv->forward.explicit_s - im2col_s, flops);
    }
  } else if (d.kind == core::LayerKind::kInnerProduct ||
             d.kind == core::LayerKind::kLSTM) {
    charge_flops(tr, track, d.fc.flops_fwd() * d.steps);
  }
  snap(t0 + t.fwd_s);
  tr->end_span(track);

  tr->begin_span(track, "bwd", "layer.phase");
  if (conv_phases) {
    const core::ConvGeom& g = d.conv;
    sim::TrafficCounters flops;
    flops.flops = g.flops_bwd_weight();
    if (conv->backward_weight.implicit_wins()) {
      child_span(tr, track, "dW.implicit_conv", "kernel.conv",
                 conv->backward_weight.implicit_s, flops);
    } else {
      const double im2col_s = im2col_time(cost, g);
      sim::TrafficCounters dma;
      dma.dma_get_bytes = conv_image_bytes(g);
      dma.dma_put_bytes = conv_col_bytes(g);
      child_span(tr, track, "dW.im2col", "kernel.transform", im2col_s, dma);
      child_span(tr, track, "dW.gemm", "kernel.gemm",
                 conv->backward_weight.explicit_s - im2col_s, flops);
    }
    if (!first_conv) {
      flops.flops = g.flops_bwd_input();
      if (conv->backward_input.implicit_wins()) {
        child_span(tr, track, "dX.implicit_conv", "kernel.conv",
                   conv->backward_input.implicit_s, flops);
      } else {
        const double col2im_s = col2im_time(cost, g);
        child_span(tr, track, "dX.gemm", "kernel.gemm",
                   conv->backward_input.explicit_s - col2im_s, flops);
        sim::TrafficCounters dma;
        dma.dma_get_bytes = conv_col_bytes(g);
        dma.dma_put_bytes = conv_image_bytes(g);
        child_span(tr, track, "dX.col2im", "kernel.transform", col2im_s, dma);
      }
    }
  } else if (d.kind == core::LayerKind::kInnerProduct ||
             d.kind == core::LayerKind::kLSTM) {
    charge_flops(tr, track, 2.0 * d.fc.flops_fwd() * d.steps);
  }
  snap(t0 + t.fwd_s + t.bwd_s);
  tr->end_span(track);

  tr->end_span(track);  // layer
}

}  // namespace

LayerTime estimate_layer_sw(const hw::CostModel& cost,
                            const core::LayerDesc& d, bool first_conv) {
  return estimate_layer_sw(cost, d, first_conv, nullptr);
}

LayerTime estimate_layer_sw(const hw::CostModel& cost,
                            const core::LayerDesc& d, bool first_conv,
                            const ConvEstimate* conv_override) {
  LayerTime t;
  std::optional<ConvEstimate> conv_est;
  bool launch_overhead = true;
  switch (d.kind) {
    case core::LayerKind::kConv: {
      conv_est = conv_override ? *conv_override : estimate_conv(cost, d.conv);
      t.fwd_s = conv_est->forward.best();
      t.bwd_s = conv_est->best_bwd(first_conv);
      break;
    }
    case core::LayerKind::kInnerProduct: {
      // fwd: out(m x n) = in(m x k) W^T; bwd: dW(n x k) and dIn(m x k).
      t.fwd_s = gemm_s(cost, d.fc.m, d.fc.n, d.fc.k);
      t.bwd_s = gemm_s(cost, d.fc.n, d.fc.k, d.fc.m) +
                gemm_s(cost, d.fc.m, d.fc.k, d.fc.n);
      break;
    }
    case core::LayerKind::kLSTM: {
      // The recurrence serializes: one fused gate GEMM per time step in each
      // direction, plus BPTT's weight-gradient GEMM (small elementwise gate
      // math folds into bandwidth noise).
      const double step_fwd = gemm_s(cost, d.fc.m, d.fc.n, d.fc.k);
      const double step_bwd = gemm_s(cost, d.fc.n, d.fc.k, d.fc.m) +
                              gemm_s(cost, d.fc.m, d.fc.k, d.fc.n);
      t.fwd_s = d.steps * step_fwd;
      t.bwd_s = d.steps * step_bwd;
      break;
    }
    case core::LayerKind::kPool:
      t.fwd_s = pool_forward_time(cost, d.pool);
      t.bwd_s = pool_backward_time(cost, d.pool);
      break;
    case core::LayerKind::kReLU:
      t.fwd_s = elementwise_time(cost, d.input_count, 2.0);
      t.bwd_s = elementwise_time(cost, d.input_count, 3.0);
      break;
    case core::LayerKind::kSigmoid:
    case core::LayerKind::kTanH:
      // Transcendentals cost an extra evaluation pass on the CPE pipelines.
      t.fwd_s = elementwise_time(cost, d.input_count, 3.0);
      t.bwd_s = elementwise_time(cost, d.input_count, 3.0);
      break;
    case core::LayerKind::kBatchNorm:
      // fwd: mean pass, variance pass, normalize read+write.
      t.fwd_s = elementwise_time(cost, d.input_count, 4.0);
      t.bwd_s = elementwise_time(cost, d.input_count, 5.0);
      break;
    case core::LayerKind::kLRN:
      // cross-channel sums make LRN the heaviest elementwise family.
      t.fwd_s = elementwise_time(cost, d.input_count, 6.0);
      t.bwd_s = elementwise_time(cost, d.input_count, 8.0);
      break;
    case core::LayerKind::kDropout:
      t.fwd_s = elementwise_time(cost, d.input_count, 3.0);
      t.bwd_s = elementwise_time(cost, d.input_count, 3.0);
      break;
    case core::LayerKind::kSoftmax:
    case core::LayerKind::kSoftmaxLoss:
      t.fwd_s = elementwise_time(cost, d.input_count, 4.0);
      t.bwd_s = elementwise_time(cost, d.input_count, 2.0);
      break;
    case core::LayerKind::kEltwise:
      t.fwd_s = elementwise_time(cost, d.input_count, 3.0);
      t.bwd_s = elementwise_time(cost, d.input_count, 2.0);
      break;
    case core::LayerKind::kConcat:
      t.fwd_s = elementwise_time(cost, d.output_count, 2.0);
      t.bwd_s = elementwise_time(cost, d.output_count, 2.0);
      break;
    case core::LayerKind::kTransform: {
      // Inner contiguous run of the (B,N,R,C)->(R,C,N,B) gather is the C
      // (width) axis of the source.
      const int run = d.conv.in_w > 0 ? d.conv.in_w : 64;
      t.fwd_s = transform_time(cost, d.input_count, run);
      t.bwd_s = transform_time(cost, d.input_count, run);
      break;
    }
    case core::LayerKind::kData:
    case core::LayerKind::kAccuracy:
      // I/O is modelled by swcaffe::io; accuracy is negligible.
      launch_overhead = false;
      break;
  }
  if (launch_overhead) {
    t.fwd_s += kLaunchOverheadS;
    // Backward launches two kernels for parameterized layers (weight grad
    // and input grad), one otherwise.
    const bool two_kernels = d.kind == core::LayerKind::kConv ||
                             d.kind == core::LayerKind::kInnerProduct;
    t.bwd_s += (two_kernels && !first_conv ? 2.0 : 1.0) * kLaunchOverheadS;
  }
  if (cost.tracer()) trace_layer(cost, d, first_conv, t, conv_est);
  return t;
}

double estimate_net_sw(const hw::CostModel& cost,
                       const std::vector<core::LayerDesc>& descs) {
  return estimate_net_sw(cost, descs, {});
}

double estimate_net_sw(
    const hw::CostModel& cost, const std::vector<core::LayerDesc>& descs,
    const std::map<std::string, ConvEstimate>& conv_overrides) {
  double total = 0.0;
  bool saw_conv = false;
  for (const auto& d : descs) {
    const bool first_conv = d.kind == core::LayerKind::kConv && !saw_conv;
    if (d.kind == core::LayerKind::kConv) saw_conv = true;
    const ConvEstimate* override_est = nullptr;
    if (d.kind == core::LayerKind::kConv && !conv_overrides.empty()) {
      auto it = conv_overrides.find(d.name);
      if (it != conv_overrides.end()) override_est = &it->second;
    }
    total += estimate_layer_sw(cost, d, first_conv, override_est).total();
  }
  return total;
}

NetTimeline estimate_net_timeline(
    const hw::CostModel& cost, const std::vector<core::LayerDesc>& descs,
    const std::map<std::string, ConvEstimate>& conv_overrides) {
  // Mirrors estimate_net_sw layer by layer; total_s accumulates t.total()
  // in the same order so the two stay bit-identical.
  NetTimeline tl;
  tl.fwd_s.reserve(descs.size());
  tl.bwd_s.reserve(descs.size());
  bool saw_conv = false;
  for (const auto& d : descs) {
    const bool first_conv = d.kind == core::LayerKind::kConv && !saw_conv;
    if (d.kind == core::LayerKind::kConv) saw_conv = true;
    const ConvEstimate* override_est = nullptr;
    if (d.kind == core::LayerKind::kConv && !conv_overrides.empty()) {
      auto it = conv_overrides.find(d.name);
      if (it != conv_overrides.end()) override_est = &it->second;
    }
    const LayerTime t = estimate_layer_sw(cost, d, first_conv, override_est);
    tl.fwd_s.push_back(t.fwd_s);
    tl.bwd_s.push_back(t.bwd_s);
    tl.total_s += t.total();
  }
  return tl;
}

double node_throughput_img_s(const hw::CostModel& cost,
                             const std::vector<core::LayerDesc>& descs_quarter,
                             int full_batch) {
  const double t_cg = estimate_net_sw(cost, descs_quarter);
  SWC_CHECK_GT(t_cg, 0.0);
  return full_batch / t_cg;
}

}  // namespace swcaffe::dnn
