// Cross-module "headline shape" assertions: the qualitative results of the
// paper's evaluation section must hold in the simulation. These are the
// invariants EXPERIMENTS.md reports on; each test names the table/figure it
// guards.
#include <gtest/gtest.h>

#include "../bench/paper_table2.h"
#include "core/models.h"
#include "fixtures.h"
#include "hw/cost_model.h"
#include "parallel/ssgd.h"
#include "parallel/sweep.h"
#include "perfmodel/device_model.h"
#include "swdnn/conv_plan.h"
#include "swdnn/layer_estimate.h"
#include "topo/allreduce.h"

namespace swcaffe {
namespace {

double sw_node_img_s(const core::NetSpec& quarter_spec, int full_batch) {
  hw::CostModel cost;
  const auto descs = core::describe_net_spec(quarter_spec);
  return dnn::node_throughput_img_s(cost, descs, full_batch);
}

double gpu_img_s(const core::NetSpec& spec, int batch) {
  const auto descs = core::describe_net_spec(spec);
  return perfmodel::device_throughput_img_s(perfmodel::k40m(), descs, batch,
                                            fixtures::imagenet_input_bytes(batch));
}

double cpu_img_s(const core::NetSpec& spec, int batch) {
  const auto descs = core::describe_net_spec(spec);
  return perfmodel::device_throughput_img_s(perfmodel::xeon_e5_2680v3(), descs,
                                            batch, 0);
}

// --- Table III -----------------------------------------------------------------

TEST(TableIII, SwBeatsGpuOnlyOnAlexNet) {
  // Paper ratios SW/NV: AlexNet 1.19, VGG-16 0.45, VGG-19 0.49,
  // ResNet-50 0.21, GoogleNet 0.23.
  const double alex =
      sw_node_img_s(core::alexnet_bn(64), 256) / gpu_img_s(core::alexnet_bn(256), 256);
  const double vgg16 =
      sw_node_img_s(core::vgg(16, 16), 64) / gpu_img_s(core::vgg(16, 64), 64);
  const double resnet = sw_node_img_s(core::resnet50(8), 32) /
                        gpu_img_s(core::resnet50(32), 32);
  const double woglenet = sw_node_img_s(core::googlenet(32), 128) /
                          gpu_img_s(core::googlenet(128), 128);
  EXPECT_GT(alex, 0.8);     // SW competitive-to-better on AlexNet
  EXPECT_LT(vgg16, 0.9);    // GPU wins on VGG
  EXPECT_GT(vgg16, 0.2);
  EXPECT_LT(resnet, 0.5);   // GPU wins big on small-channel nets
  EXPECT_LT(woglenet, 0.5);
  // Ordering: AlexNet ratio > VGG ratio > ResNet/GoogleNet ratios.
  EXPECT_GT(alex, vgg16);
  EXPECT_GT(vgg16, resnet);
}

TEST(TableIII, SwBeatsCpuEverywhere) {
  // Paper: 3.04x-7.84x over the 12-core CPU on all five networks.
  struct Cfg {
    core::NetSpec quarter, full;
    int batch;
  };
  const Cfg cfgs[] = {
      {core::alexnet_bn(64), core::alexnet_bn(256), 256},
      {core::vgg(16, 16), core::vgg(16, 64), 64},
      {core::vgg(19, 16), core::vgg(19, 64), 64},
      {core::resnet50(8), core::resnet50(32), 32},
      {core::googlenet(32), core::googlenet(128), 128},
  };
  for (const auto& c : cfgs) {
    const double ratio =
        sw_node_img_s(c.quarter, c.batch) / cpu_img_s(c.full, c.batch);
    EXPECT_GT(ratio, 1.5) << c.full.name;
    EXPECT_LT(ratio, 20.0) << c.full.name;
  }
}

TEST(TableIII, SwAlexNetAbsoluteThroughputNearPaper) {
  // Paper: 94.17 img/s on one SW26010 node at batch 256.
  const double img_s = sw_node_img_s(core::alexnet_bn(64), 256);
  EXPECT_GT(img_s, 40.0);
  EXPECT_LT(img_s, 220.0);
}

// --- Figs. 8/9 -------------------------------------------------------------------

TEST(Fig8, BandwidthBoundLayersRelativelyWorseOnSw) {
  // Paper Sec. VI-A(i): pooling/BN/ReLU take a visible share on SW26010 but
  // are nearly free on the GPU's 288 GB/s memory.
  hw::CostModel cost;
  const auto descs = core::describe_net_spec(core::alexnet_bn(64));
  double sw_conv = 0, sw_mem = 0, gpu_conv = 0, gpu_mem = 0;
  const auto gpu = perfmodel::k40m();
  bool saw_conv = false;
  for (const auto& d : descs) {
    const bool first = d.kind == core::LayerKind::kConv && !saw_conv;
    if (d.kind == core::LayerKind::kConv) saw_conv = true;
    const double sw = dnn::estimate_layer_sw(cost, d, first).total();
    const double gp = perfmodel::estimate_layer_dev(gpu, d, first).total();
    if (d.kind == core::LayerKind::kConv ||
        d.kind == core::LayerKind::kInnerProduct) {
      sw_conv += sw;
      gpu_conv += gp;
    } else if (d.kind == core::LayerKind::kPool ||
               d.kind == core::LayerKind::kReLU ||
               d.kind == core::LayerKind::kBatchNorm) {
      sw_mem += sw;
      gpu_mem += gp;
    }
  }
  EXPECT_GT(sw_mem / sw_conv, gpu_mem / gpu_conv);
}

TEST(Fig9, FirstVggConvsLagGpuMost) {
  // Paper Sec. VI-A(ii): the first two convolutions are SW26010's weakest
  // spot (im2col on big images, 3/64 channels).
  hw::CostModel cost;
  const auto gpu = perfmodel::k40m();
  const auto descs = core::describe_net_spec(core::vgg(16, 16));
  double worst_early_ratio = 0.0, mid_ratio = 0.0;
  for (const auto& d : descs) {
    if (d.kind != core::LayerKind::kConv) continue;
    const bool first = d.name == "conv1_1";
    const double ratio =
        dnn::estimate_layer_sw(cost, d, first).fwd_s /
        perfmodel::estimate_layer_dev(gpu, d, first).fwd_s;
    if (d.name == "conv1_1" || d.name == "conv1_2") {
      worst_early_ratio = std::max(worst_early_ratio, ratio);
    }
    if (d.name == "conv4_2") mid_ratio = ratio;
  }
  EXPECT_GT(worst_early_ratio, mid_ratio);
}

// --- Figs. 10/11 -----------------------------------------------------------------

/// One Fig. 10/11 point at 1024 nodes, priced as a single-series sweep.
parallel::ScalePoint point_at_1024(const hw::CostModel& cost,
                                   std::vector<core::LayerDesc> descs_per_cg,
                                   std::int64_t param_bytes,
                                   const parallel::SsgdOptions& opt) {
  parallel::SweepSeries s;
  s.descs_per_cg = std::move(descs_per_cg);
  s.param_bytes = param_bytes;
  s.options = opt;
  s.node_counts = {1024};
  return parallel::scalability_sweep(cost, {s}, 1)[0].points[0];
}

TEST(Fig10, SpeedupBandsMatchPaper) {
  // Paper: AlexNet speedups at 1024 nodes: 715x (B=256), 562x (B=128),
  // 410x (B=64); ResNet-50: 928x (B=32), 828x (B=64).
  hw::CostModel cost;
  parallel::SsgdOptions opt;  // rhd + round-robin, q=256
  auto speedup_at_1024 = [&](const core::NetSpec& quarter,
                             std::int64_t param_bytes) {
    return point_at_1024(cost, core::describe_net_spec(quarter), param_bytes,
                         opt)
        .speedup;
  };
  const std::int64_t alex_bytes = fixtures::kAlexNetGradientBytes;
  const std::int64_t resnet_bytes = fixtures::kResNet50GradientBytes;
  const double alex256 = speedup_at_1024(core::alexnet_bn(64), alex_bytes);
  const double alex64 = speedup_at_1024(core::alexnet_bn(16), alex_bytes);
  const double resnet32 = speedup_at_1024(core::resnet50(8), resnet_bytes);
  EXPECT_GT(alex256, alex64);       // bigger sub-batch scales better
  EXPECT_GT(resnet32, alex256);     // ResNet-50 scales best (Fig. 10)
  EXPECT_NEAR(alex256, 715.0, 250.0);
  EXPECT_NEAR(resnet32, 928.0, 120.0);
}

TEST(Fig11, CommunicationFractionsMatchPaper) {
  // Paper at 1024 nodes: AlexNet 60.01% (B=64), 30.13% (B=256);
  // ResNet-50 10.65% (B=32).
  hw::CostModel cost;
  parallel::SsgdOptions opt;
  auto frac = [&](const core::NetSpec& quarter, std::int64_t bytes) {
    return point_at_1024(cost, core::describe_net_spec(quarter), bytes, opt)
        .comm_fraction;
  };
  const double alex64 = frac(core::alexnet_bn(16), fixtures::kAlexNetGradientBytes);
  const double alex256 = frac(core::alexnet_bn(64), fixtures::kAlexNetGradientBytes);
  const double resnet32 = frac(core::resnet50(8), fixtures::kResNet50GradientBytes);
  EXPECT_GT(alex64, alex256);
  EXPECT_GT(alex256, resnet32);
  EXPECT_NEAR(alex64, 0.60, 0.22);
  EXPECT_NEAR(alex256, 0.30, 0.15);
  EXPECT_NEAR(resnet32, 0.107, 0.09);
}

// --- Table II regression guard: every measured cell of the paper ----------------

using paper::Table2Row;

class Table2CellTest : public ::testing::TestWithParam<Table2Row> {};

TEST_P(Table2CellTest, EveryCellWithinFactorBandOfPaper) {
  const Table2Row& r = GetParam();
  core::ConvGeom g;
  g.batch = 128;
  g.in_c = r.ni;
  g.out_c = r.no;
  g.in_h = g.in_w = r.img;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  hw::CostModel cost;
  const dnn::ConvEstimate est = dnn::estimate_conv(cost, g);
  // Shape requirement: availability identical, magnitudes within 2.5x.
  constexpr double kBand = 2.5;
  auto check = [&](double ours, double paper, const char* what) {
    if (paper == 0) return;  // NA in the paper
    if (paper < 0) {
      EXPECT_LT(ours, 0) << what << ": paper says unsupported";
      return;
    }
    ASSERT_GT(ours, 0) << what << ": paper supports this configuration";
    EXPECT_LT(ours / paper, kBand) << what;
    EXPECT_GT(ours / paper, 1.0 / kBand) << what;
  };
  check(est.forward.implicit_s, r.fwd_imp, "fwd implicit");
  check(est.forward.explicit_s, r.fwd_exp, "fwd explicit");
  check(est.backward_weight.implicit_s, r.wd_imp, "wdiff implicit");
  check(est.backward_weight.explicit_s, r.wd_exp, "wdiff explicit");
  check(est.backward_input.implicit_s, r.id_imp, "idiff implicit");
  check(est.backward_input.explicit_s, r.id_exp, "idiff explicit");
}

INSTANTIATE_TEST_SUITE_P(
    PaperCells, Table2CellTest, ::testing::ValuesIn(paper::table2()),
    [](const ::testing::TestParamInfo<Table2Row>& info) {
      return info.param.name;
    });

TEST(Fig7Ablation, RoundRobinBeatsAdjacentAtScale) {
  // The paper's all-reduce contribution quantified end to end.
  hw::CostModel cost;
  const auto descs = core::describe_net_spec(core::alexnet_bn(64));
  parallel::SsgdOptions adj, rr;
  adj.algo = parallel::AllreduceAlgo::kRhdAdjacent;
  rr.algo = parallel::AllreduceAlgo::kRhdRoundRobin;
  const auto p_adj =
      point_at_1024(cost, descs, fixtures::kAlexNetGradientBytes, adj);
  const auto p_rr =
      point_at_1024(cost, descs, fixtures::kAlexNetGradientBytes, rr);
  EXPECT_GT(p_rr.speedup, 1.5 * p_adj.speedup);
}

}  // namespace
}  // namespace swcaffe
