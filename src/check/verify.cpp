#include "check/verify.h"

#include <algorithm>
#include <string>

#include "check/plan_model.h"
#include "swdnn/conv_plan.h"
#include "topo/collective.h"
#include "topo/hierarchical.h"

namespace swcaffe::check {

namespace {

/// Sec. IV-B2: implicit-conv performance "largely degrades" below this many
/// channels on either side (the efficiency knee the cost model calibrates).
constexpr int kImplicitChannelKnee = 64;

void geom_error(Report* report, const std::string& layer, std::string msg) {
  report->add(Code::kGeomInvalid, Severity::kError, layer, std::move(msg));
}

bool check_conv_geom(const core::ConvGeom& g, const std::string& layer,
                     Report* report) {
  if (g.batch <= 0 || g.in_c <= 0 || g.out_c <= 0 || g.in_h <= 0 ||
      g.in_w <= 0 || g.kernel <= 0 || g.stride <= 0 || g.pad < 0 ||
      g.group <= 0) {
    geom_error(report, layer,
               "conv: non-positive dimension (batch=" +
                   std::to_string(g.batch) + ", in_c=" +
                   std::to_string(g.in_c) + ", out_c=" +
                   std::to_string(g.out_c) + ", in=" + std::to_string(g.in_h) +
                   "x" + std::to_string(g.in_w) + ", kernel=" +
                   std::to_string(g.kernel) + ", stride=" +
                   std::to_string(g.stride) + ")");
    return false;
  }
  if (g.in_c % g.group != 0 || g.out_c % g.group != 0) {
    geom_error(report, layer,
               "conv: channels (" + std::to_string(g.in_c) + "," +
                   std::to_string(g.out_c) + ") not divisible by group " +
                   std::to_string(g.group));
    return false;
  }
  if (g.kernel > g.in_h + 2 * g.pad || g.kernel > g.in_w + 2 * g.pad ||
      g.out_h() <= 0 || g.out_w() <= 0) {
    geom_error(report, layer,
               "conv: kernel " + std::to_string(g.kernel) + " exceeds padded input " +
                   std::to_string(g.in_h + 2 * g.pad) + "x" +
                   std::to_string(g.in_w + 2 * g.pad) +
                   "; output would be empty");
    return false;
  }
  return true;
}

/// Table II dash pattern + the 64-channel knee for one direction of the
/// implicit kernel (geometry is per-group, matching estimate_conv).
void check_implicit_direction(const core::ConvGeom& gpg, bool forward,
                              const std::string& layer, Report* report) {
  const bool supported = forward ? dnn::implicit_forward_supported(gpg)
                                 : dnn::implicit_backward_supported(gpg);
  const char* dir = forward ? "forward" : "backward";
  if (!supported) {
    report->add(Code::kImplicitUnsupported, Severity::kError, layer,
                std::string("implicit ") + dir + " kernel unsupported: " +
                    (forward
                         ? "in_c=" + std::to_string(gpg.in_c) +
                               " below the register-block minimum (8)"
                         : "min(in_c,out_c)=" +
                               std::to_string(std::min(gpg.in_c, gpg.out_c)) +
                               " below the backward minimum (128)") +
                    " — Table II renders this configuration as \"-\"");
    return;
  }
  if (std::min(gpg.in_c, gpg.out_c) < kImplicitChannelKnee) {
    report->add(Code::kImplicitDegraded, Severity::kWarning, layer,
                std::string("implicit ") + dir + " kernel with min(in_c,out_c)=" +
                    std::to_string(std::min(gpg.in_c, gpg.out_c)) +
                    " < 64: performance largely degrades below the channel "
                    "knee (Sec. IV-B2)");
  }
}

}  // namespace

Report verify_gemm(const hw::CostModel& cost, std::int64_t m, std::int64_t n,
                   std::int64_t k, const std::string& layer,
                   const Options& opts) {
  Report report;
  if (m <= 0 || n <= 0 || k <= 0) {
    geom_error(&report, layer,
               "gemm: non-positive dims m=" + std::to_string(m) + " n=" +
                   std::to_string(n) + " k=" + std::to_string(k));
    return report;
  }
  check_ldm(blocked_gemm_ldm_plan(cost.params(), m, n, k), cost.params(), opts,
            layer, &report);
  check_dma(blocked_gemm_dma_plan(cost, m, n, k), opts, layer, &report);
  return report;
}

Report verify_gemm(const hw::CostModel& cost, std::int64_t m, std::int64_t n,
                   std::int64_t k, const gemm::GemmBlocking& blocking,
                   const std::string& layer, const Options& opts) {
  Report report;
  if (m <= 0 || n <= 0 || k <= 0) {
    geom_error(&report, layer,
               "gemm: non-positive dims m=" + std::to_string(m) + " n=" +
                   std::to_string(n) + " k=" + std::to_string(k));
    return report;
  }
  const int mesh = cost.params().mesh_rows;
  if (blocking.block_m <= 0 || blocking.block_n <= 0 || blocking.block_k <= 0 ||
      blocking.bcast_chunk <= 0 || mesh % blocking.bcast_chunk != 0) {
    geom_error(&report, layer,
               "gemm blocking: blocks " + std::to_string(blocking.block_m) +
                   "x" + std::to_string(blocking.block_n) + "x" +
                   std::to_string(blocking.block_k) +
                   " must be positive and bcast_chunk " +
                   std::to_string(blocking.bcast_chunk) +
                   " must divide the mesh dimension " + std::to_string(mesh));
    return report;
  }
  check_ldm(blocked_gemm_ldm_plan(cost.params(), m, n, k, blocking),
            cost.params(), opts, layer, &report);
  check_dma(blocked_gemm_dma_plan(cost, m, n, k, blocking), opts, layer,
            &report);
  return report;
}

Report verify_mesh_gemm(const hw::HwParams& hp, std::int64_t m, std::int64_t n,
                        std::int64_t k, const std::string& layer) {
  Report report;
  const int mesh = hp.mesh_rows;
  if (m <= 0 || n <= 0 || k <= 0 || m % mesh != 0 || n % mesh != 0 ||
      k % mesh != 0) {
    geom_error(&report, layer,
               "mesh_gemm: dims " + std::to_string(m) + "x" +
                   std::to_string(n) + "x" + std::to_string(k) +
                   " must be positive multiples of the mesh dimension " +
                   std::to_string(mesh));
    return report;
  }
  Options opts;
  check_ldm(mesh_gemm_ldm_plan(hp, m, n, k), hp, opts, layer, &report);
  check_schedule(mesh_gemm_schedule(hp), hp, opts, layer, &report);
  return report;
}

Report verify_conv(const hw::CostModel& cost, const core::ConvGeom& g,
                   const std::string& layer, const Options& opts,
                   ConvStrategy strategy, bool first_conv) {
  Report report;
  if (!check_conv_geom(g, layer, &report)) return report;
  const hw::HwParams& hp = cost.params();
  const core::ConvGeom gpg = g.per_group();
  const std::int64_t spatial =
      static_cast<std::int64_t>(gpg.out_h()) * gpg.out_w();
  const std::int64_t kdim =
      static_cast<std::int64_t>(gpg.in_c) * gpg.kernel * gpg.kernel;

  // Which plan runs in each direction.
  bool fwd_implicit = false, bwd_w_implicit = false, bwd_in_implicit = false;
  switch (strategy) {
    case ConvStrategy::kExplicit:
      break;
    case ConvStrategy::kImplicit:
      fwd_implicit = bwd_w_implicit = bwd_in_implicit = true;
      check_implicit_direction(gpg, /*forward=*/true, layer, &report);
      if (!first_conv) {
        check_implicit_direction(gpg, /*forward=*/false, layer, &report);
      }
      break;
    case ConvStrategy::kAuto: {
      const dnn::ConvEstimate est = dnn::estimate_conv(cost, g);
      // The tuner may only offer the implicit plan where the support
      // predicate holds; any disagreement means the model and the kernel
      // contract have drifted apart.
      if (est.forward.implicit_ok() != dnn::implicit_forward_supported(gpg)) {
        report.add(Code::kPlanInconsistent, Severity::kError, layer,
                    "auto-tuner offers implicit forward=" +
                        std::string(est.forward.implicit_ok() ? "yes" : "no") +
                        " but implicit_forward_supported says otherwise");
      }
      if (est.backward_weight.implicit_ok() !=
          dnn::implicit_backward_supported(gpg)) {
        report.add(Code::kPlanInconsistent, Severity::kError, layer,
                    "auto-tuner offers implicit backward=" +
                        std::string(est.backward_weight.implicit_ok() ? "yes"
                                                                      : "no") +
                        " but implicit_backward_supported says otherwise");
      }
      fwd_implicit = est.forward.implicit_wins();
      bwd_w_implicit = est.backward_weight.implicit_wins();
      bwd_in_implicit = est.backward_input.implicit_wins();
      if (fwd_implicit &&
          std::min(gpg.in_c, gpg.out_c) < kImplicitChannelKnee) {
        check_implicit_direction(gpg, /*forward=*/true, layer, &report);
      }
      break;
    }
  }

  // Implicit-plan contracts (LDM + DMA) — once, if any direction uses it.
  if (fwd_implicit || bwd_w_implicit || bwd_in_implicit) {
    check_ldm(implicit_conv_ldm_plan(hp, gpg), hp, opts, layer, &report);
    check_dma(implicit_conv_dma_plan(gpg), opts, layer, &report);
  }
  // Explicit-plan contracts: im2col feeds forward and weight-grad, col2im
  // drains input-grad, each direction runs its blocked GEMM.
  if (!fwd_implicit || !bwd_w_implicit) {
    check_dma(im2col_dma_plan(gpg), opts, layer, &report);
  }
  if (!fwd_implicit) {
    report.merge(verify_gemm(cost, gpg.out_c, spatial, kdim,
                             layer + "/fwd-gemm", opts));
  }
  if (!bwd_w_implicit) {
    report.merge(verify_gemm(cost, gpg.out_c, kdim, spatial,
                             layer + "/dW-gemm", opts));
  }
  if (!first_conv) {
    if (!bwd_in_implicit) {
      check_dma(col2im_dma_plan(gpg), opts, layer, &report);
      report.merge(verify_gemm(cost, kdim, spatial, gpg.out_c,
                               layer + "/dX-gemm", opts));
    }
  }
  return report;
}

Report verify_layer(const hw::CostModel& cost, const core::LayerDesc& d,
                    bool first_conv, const Options& opts) {
  Report report;
  const hw::HwParams& hp = cost.params();
  const std::string& layer = d.name;
  switch (d.kind) {
    case core::LayerKind::kConv:
      report.merge(verify_conv(cost, d.conv, layer, opts, ConvStrategy::kAuto,
                               first_conv));
      break;
    case core::LayerKind::kInnerProduct:
    case core::LayerKind::kLSTM:
      if (d.fc.m <= 0 || d.fc.n <= 0 || d.fc.k <= 0) {
        geom_error(&report, layer,
                   "fc: non-positive dims m=" + std::to_string(d.fc.m) +
                       " n=" + std::to_string(d.fc.n) + " k=" +
                       std::to_string(d.fc.k));
        break;
      }
      report.merge(
          verify_gemm(cost, d.fc.m, d.fc.n, d.fc.k, layer + "/fwd", opts));
      report.merge(
          verify_gemm(cost, d.fc.n, d.fc.k, d.fc.m, layer + "/dW", opts));
      report.merge(
          verify_gemm(cost, d.fc.m, d.fc.k, d.fc.n, layer + "/dX", opts));
      break;
    case core::LayerKind::kPool: {
      const core::PoolGeom& p = d.pool;
      if (p.batch <= 0 || p.channels <= 0 || p.in_h <= 0 || p.in_w <= 0 ||
          p.kernel <= 0 || p.stride <= 0 || p.out_h() <= 0 ||
          p.out_w() <= 0) {
        geom_error(&report, layer, "pool: invalid geometry");
        break;
      }
      check_ldm(pool_ldm_plan(hp, p), hp, opts, layer, &report);
      check_dma(pool_dma_plan(hp, p), opts, layer, &report);
      break;
    }
    case core::LayerKind::kReLU:
    case core::LayerKind::kSigmoid:
    case core::LayerKind::kTanH:
    case core::LayerKind::kBatchNorm:
    case core::LayerKind::kLRN:
    case core::LayerKind::kDropout:
    case core::LayerKind::kSoftmax:
    case core::LayerKind::kSoftmaxLoss:
    case core::LayerKind::kEltwise:
      if (d.input_count <= 0) {
        geom_error(&report, layer, "elementwise layer with empty input");
        break;
      }
      check_dma(elementwise_dma_plan(d.input_count, 2.0), opts, layer,
                &report);
      break;
    case core::LayerKind::kConcat:
      if (d.output_count > 0) {
        check_dma(elementwise_dma_plan(d.output_count, 2.0), opts, layer,
                  &report);
      }
      break;
    case core::LayerKind::kTransform: {
      if (d.input_count <= 0) {
        geom_error(&report, layer, "transform layer with empty input");
        break;
      }
      const int run = d.conv.in_w > 0 ? d.conv.in_w : 64;
      check_dma(transform_dma_plan(d.input_count, run), opts, layer, &report);
      break;
    }
    case core::LayerKind::kData:
    case core::LayerKind::kAccuracy:
      break;  // no CPE plan to verify
  }
  return report;
}

Report verify_net(const hw::CostModel& cost,
                  const std::vector<core::LayerDesc>& descs,
                  const Options& opts) {
  Report report;
  const hw::HwParams& hp = cost.params();
  bool saw_conv = false;
  for (const core::LayerDesc& d : descs) {
    const bool first_conv = d.kind == core::LayerKind::kConv && !saw_conv;
    if (d.kind == core::LayerKind::kConv) saw_conv = true;
    report.merge(verify_layer(cost, d, first_conv, opts));
  }
  // The RLC schedules are shared by every GEMM/implicit-conv launch; verify
  // them once per net, not once per layer.
  check_schedule(mesh_gemm_schedule(hp), hp, opts, "mesh-gemm", &report);
  if (saw_conv) {
    check_schedule(implicit_conv_schedule(hp), hp, opts, "implicit-conv",
                   &report);
  }
  return report;
}

namespace {

/// Checks the schedule `algo` executes over `topo` (both RHD placements
/// share one; the hierarchical algorithm falls back to flat RHD where it
/// does not engage, as at runtime), built for num_nodes floats: every op
/// range stays non-empty, so every message of the real collective appears.
void check_allreduce(topo::AllreduceAlgo algo, const topo::Topology& topo,
                     const Options& opts, const std::string& layer,
                     Report* report) {
  check_collective(
      topo::collective_schedule(algo, topo,
                                static_cast<std::size_t>(topo.num_nodes)),
      topo::allreduce_span_name(algo), opts, layer, report);
}

}  // namespace

Report verify_allreduce(topo::AllreduceAlgo algo, int num_nodes,
                        const Options& opts, int supernode_size) {
  Report report;
  const std::string layer =
      std::string("allreduce-") + topo::allreduce_algo_name(algo);
  if (num_nodes <= 0) {
    geom_error(&report, layer,
               "allreduce over " + std::to_string(num_nodes) + " nodes");
    return report;
  }
  check_allreduce(algo, {num_nodes, supernode_size}, opts, layer, &report);
  return report;
}

Report verify_comm(const CommPlan& plan, const Options& opts) {
  Report report;
  const std::string layer = plan.name.empty() ? "comm" : plan.name;
  check_comm(plan, opts, layer, &report);
  if (!report.ok()) return report;
  const topo::Topology topo{plan.num_nodes, plan.supernode_size};
  topo::AllreduceAlgo algo{};
  if (topo::allreduce_algo_from_name(plan.algorithm.c_str(), &algo) &&
      algo == topo::AllreduceAlgo::kHierarchical &&
      topo::hierarchical_applicable(topo)) {
    check_allreduce(algo, topo, opts, layer, &report);
  }
  return report;
}

Report verify_retry(const RetryPlan& plan, const Options& opts) {
  Report report;
  const hw::HwParams hp;
  check_retry(plan, hp, opts, plan.name.empty() ? "retry" : plan.name,
              &report);
  return report;
}

Report verify_buckets(const BucketPlan& plan, const Options& opts) {
  Report report;
  const hw::HwParams hp;
  check_buckets(plan, hp, opts, plan.name.empty() ? "buckets" : plan.name,
                &report);
  return report;
}

}  // namespace swcaffe::check
