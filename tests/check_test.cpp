// swcheck: every diagnostic code fires on a deliberately broken plan, stays
// silent on the paper's AlexNet/VGG configurations, and agrees with runtime
// behaviour — a plan the checker passes never throws from Ldm::alloc when
// the functional kernel actually runs, and a kLdmOverflow error predicts
// exactly that throw.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "base/log.h"
#include "base/rng.h"
#include "check/plan_model.h"
#include "check/rules.h"
#include "check/verify.h"
#include "collective_fixtures.h"
#include "core/models.h"
#include "fixtures.h"
#include "hw/chip.h"
#include "hw/cost_model.h"
#include "hw/ldm.h"
#include "swdnn/implicit_conv_sim.h"
#include "swgemm/mesh_gemm.h"

namespace swcaffe::check {
namespace {

const hw::HwParams kHp;
const hw::CostModel kCost{kHp};

core::ConvGeom make_geom(int batch, int in_c, int out_c, int img, int kernel,
                         int stride, int pad) {
  core::ConvGeom g;
  g.batch = batch;
  g.in_c = in_c;
  g.out_c = out_c;
  g.in_h = g.in_w = img;
  g.kernel = kernel;
  g.stride = stride;
  g.pad = pad;
  return g;
}

// --- LDM budget --------------------------------------------------------------

TEST(LdmRules, OversizedMeshGemmTileFires) {
  // 512^3: three 64x64 double tiles = 96 KB per CPE, far over the 64 KB LDM.
  const Report report = verify_mesh_gemm(kHp, 512, 512, 512);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kLdmOverflow));
}

TEST(LdmRules, FittingMeshGemmIsSilent) {
  EXPECT_TRUE(verify_mesh_gemm(kHp, 256, 256, 256).diagnostics().empty());
  EXPECT_TRUE(verify_mesh_gemm(kHp, 64, 64, 64).diagnostics().empty());
}

TEST(LdmRules, CheckerAgreesWithMeshGemmKernel) {
  // The contract the whole checker hangs on: kLdmOverflow <=> the functional
  // kernel throws from Ldm::alloc; a clean report <=> it runs.
  auto run_kernel = [](int dim) {
    const std::size_t n = static_cast<std::size_t>(dim) * dim;
    std::vector<double> a(n, 1.0), b(n, 1.0), c(n, 0.0);
    hw::CoreGroup cg{kHp};
    gemm::mesh_gemm(cg, a, b, c, dim, dim, dim);
  };
  EXPECT_TRUE(verify_mesh_gemm(kHp, 64, 64, 64).ok());
  EXPECT_NO_THROW(run_kernel(64));
  EXPECT_TRUE(verify_mesh_gemm(kHp, 512, 512, 512).has(Code::kLdmOverflow));
  EXPECT_THROW(run_kernel(512), base::CheckError);
}

TEST(LdmRules, DoubleBufferShortfallWarns) {
  LdmPlan plan;
  plan.kernel = "synthetic";
  plan.items.push_back({"streamed tile", 40 * 1024, /*double_buffered=*/true});
  Report report;
  check_ldm(plan, kHp, Options{}, "layer", &report);
  EXPECT_TRUE(report.has(Code::kLdmDoubleBuffer));
  EXPECT_EQ(report.error_count(), 0);  // it runs, just without overlap
}

// --- DMA legality ------------------------------------------------------------

DmaPlan one_op_plan(std::size_t run, std::size_t stride, double total) {
  DmaPlan plan;
  plan.kernel = "synthetic";
  plan.ops.push_back({"op", false, run, stride, total});
  plan.charged_bytes = total;
  return plan;
}

TEST(DmaRules, ZeroLengthRunFires) {
  Report report;
  check_dma(one_op_plan(/*run=*/0, /*stride=*/0, /*total=*/1024), Options{},
            "layer", &report);
  EXPECT_TRUE(report.has(Code::kDmaEmptyRun));
}

TEST(DmaRules, MisalignedRunFires) {
  Report report;
  check_dma(one_op_plan(/*run=*/6, /*stride=*/0, /*total=*/1024), Options{},
            "layer", &report);
  EXPECT_TRUE(report.has(Code::kDmaMisaligned));
}

TEST(DmaRules, OverlappingStrideFires) {
  Report report;
  check_dma(one_op_plan(/*run=*/16, /*stride=*/8, /*total=*/1024), Options{},
            "layer", &report);
  EXPECT_TRUE(report.has(Code::kDmaOverlap));
}

TEST(DmaRules, ByteConservationViolationFires) {
  DmaPlan plan = one_op_plan(/*run=*/256, /*stride=*/0, /*total=*/4096);
  plan.charged_bytes = 8192;  // model charges twice what the ops move
  Report report;
  check_dma(plan, Options{}, "layer", &report);
  EXPECT_TRUE(report.has(Code::kDmaBytesMismatch));
}

TEST(DmaRules, ShortRunIsPedanticOnly) {
  const DmaPlan plan = one_op_plan(/*run=*/56, /*stride=*/256, /*total=*/4096);
  Report quiet;
  check_dma(plan, Options{}, "layer", &quiet);
  EXPECT_FALSE(quiet.has(Code::kDmaShortRun));
  Options pedantic;
  pedantic.pedantic = true;
  Report loud;
  check_dma(plan, pedantic, "layer", &loud);
  EXPECT_TRUE(loud.has(Code::kDmaShortRun));
  EXPECT_EQ(loud.error_count(), 0);  // advisory, not an error
}

TEST(DmaRules, GemmPlanConservesBytesAgainstEstimate) {
  // Cross-module byte conservation: the enumerated A/B/C panel traffic must
  // equal what gemm::estimate_gemm charges, including ragged panel edges.
  for (const auto& [m, n, k] : {std::tuple<int, int, int>{1000, 777, 333},
                               {96, 3025, 363},
                               {512, 512, 512},
                               {25088, 4096, 128}}) {
    const Report report = verify_gemm(kCost, m, n, k);
    EXPECT_FALSE(report.has(Code::kDmaBytesMismatch))
        << m << "x" << n << "x" << k << ": " << report.summary();
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

// --- RLC schedules -----------------------------------------------------------

TEST(RlcRules, CyclicScheduleDeadlocks) {
  // Two CPEs on one row, each receiving before it sends: the classic
  // circular wait. FIFO matching pairs each recv with the other's send, and
  // the cycle recv->send->recv->send closes.
  CommSchedule sched;
  sched.name = "cyclic";
  sched.ops.push_back({CommOp::Kind::kRecvRow, 0, 0, -1, -1, 32});
  sched.ops.push_back({CommOp::Kind::kSend, 0, 0, 0, 1, 32});
  sched.ops.push_back({CommOp::Kind::kRecvRow, 0, 1, -1, -1, 32});
  sched.ops.push_back({CommOp::Kind::kSend, 0, 1, 0, 0, 32});
  Report report;
  check_schedule(sched, kHp, Options{}, "layer", &report);
  EXPECT_TRUE(report.has(Code::kRlcDeadlock));
}

TEST(RlcRules, SendBeforeRecvDoesNotDeadlock) {
  // Same pairing, but both CPEs send first: no circular wait.
  CommSchedule sched;
  sched.name = "acyclic";
  sched.ops.push_back({CommOp::Kind::kSend, 0, 0, 0, 1, 32});
  sched.ops.push_back({CommOp::Kind::kRecvRow, 0, 0, -1, -1, 32});
  sched.ops.push_back({CommOp::Kind::kSend, 0, 1, 0, 0, 32});
  sched.ops.push_back({CommOp::Kind::kRecvRow, 0, 1, -1, -1, 32});
  Report report;
  check_schedule(sched, kHp, Options{}, "layer", &report);
  EXPECT_TRUE(report.diagnostics().empty());
}

TEST(RlcRules, DiagonalSendIsIllegal) {
  CommSchedule sched;
  sched.name = "diag";
  sched.ops.push_back({CommOp::Kind::kSend, 0, 0, 1, 1, 32});
  Report report;
  check_schedule(sched, kHp, Options{}, "layer", &report);
  EXPECT_TRUE(report.has(Code::kRlcIllegalPair));
}

TEST(RlcRules, UnmatchedRecvAndLeftoverMessageFire) {
  CommSchedule lone_recv;
  lone_recv.name = "lone-recv";
  lone_recv.ops.push_back({CommOp::Kind::kRecvRow, 2, 3, -1, -1, 32});
  Report r1;
  check_schedule(lone_recv, kHp, Options{}, "layer", &r1);
  EXPECT_TRUE(r1.has(Code::kRlcUnmatched));

  CommSchedule lone_send;
  lone_send.name = "lone-send";
  lone_send.ops.push_back({CommOp::Kind::kSend, 2, 3, 2, 5, 32});
  Report r2;
  check_schedule(lone_send, kHp, Options{}, "layer", &r2);
  EXPECT_TRUE(r2.has(Code::kRlcUnmatched));
}

TEST(RlcRules, BuiltinSchedulesAreDeadlockFree) {
  for (const CommSchedule& sched :
       {mesh_gemm_schedule(kHp), implicit_conv_schedule(kHp)}) {
    Report report;
    check_schedule(sched, kHp, Options{}, sched.name, &report);
    EXPECT_TRUE(report.diagnostics().empty()) << sched.name << ": "
                                              << report.summary();
  }
}

TEST(RlcRules, AllreduceSchedulesAreDeadlockFree) {
  // Every executed schedule, the hierarchical one included (it engages at
  // 1024 nodes in 256-node supernodes and falls back to RHD below).
  for (topo::AllreduceAlgo algo : topo::kAllreduceAlgos) {
    for (int nodes : {1, 2, 24, 100, 256, 1024}) {
      const Report report = verify_allreduce(algo, nodes);
      EXPECT_TRUE(report.diagnostics().empty())
          << topo::allreduce_algo_name(algo) << " over " << nodes << ": "
          << report.summary();
    }
  }
  EXPECT_TRUE(verify_allreduce(topo::AllreduceAlgo::kRhdRoundRobin, 0)
                  .has(Code::kGeomInvalid));
}

TEST(RlcRules, HierarchicalAllreduceSchedulesAreDeadlockFree) {
  constexpr topo::AllreduceAlgo kHier = topo::AllreduceAlgo::kHierarchical;
  // Engaging geometries: every phase schedule plus their composition must
  // be silent.
  for (auto [nodes, q] : {std::pair{16, 4}, {1024, 256}, {24, 8}}) {
    const Report report = verify_allreduce(kHier, nodes, Options{}, q);
    EXPECT_TRUE(report.diagnostics().empty())
        << "hier " << nodes << "/" << q << ": " << report.summary();
  }
  // Non-engaging geometries fall back to the flat RHD schedule (mirroring
  // the runtime) and must be just as silent.
  for (auto [nodes, q] : {std::pair{10, 4}, {100, 256}, {24, 7}}) {
    const Report report = verify_allreduce(kHier, nodes, Options{}, q);
    EXPECT_TRUE(report.diagnostics().empty())
        << "hier fallback " << nodes << "/" << q << ": " << report.summary();
  }
  EXPECT_TRUE(verify_allreduce(kHier, 0).has(Code::kGeomInvalid));
}

// --- Composed phases (check_schedule over a phase list) ----------------------

Report check_composed(const std::vector<CommSchedule>& phases) {
  Report report;
  check_schedule(phases, kHp, Options{}, "composed", &report);
  return report;
}

TEST(ComposedRules, CrossPhaseCycleIsADeadlock) {
  // Phase 0: both ranks receive. Phase 1: both ranks send. Each phase alone
  // only leaves messages unmatched; run back to back, rank 1's send meets
  // rank 0's earlier receive and vice versa, and the wait is circular.
  CommSchedule recvs;
  recvs.name = "phase-recv";
  recvs.mesh = false;
  recvs.ops.push_back({CommOp::Kind::kRecvRow, 0, 0, -1, -1, 8});
  recvs.ops.push_back({CommOp::Kind::kRecvRow, 1, 0, -1, -1, 8});
  CommSchedule sends;
  sends.name = "phase-send";
  sends.mesh = false;
  sends.ops.push_back({CommOp::Kind::kSend, 0, 0, 1, 0, 8});
  sends.ops.push_back({CommOp::Kind::kSend, 1, 0, 0, 0, 8});
  const Report cyclic = check_composed({recvs, sends});
  EXPECT_TRUE(cyclic.has(Code::kRlcDeadlock)) << cyclic.summary();
  EXPECT_FALSE(cyclic.has(Code::kRlcUnmatched)) << cyclic.summary();
  const Report sound = check_composed({sends, recvs});
  EXPECT_TRUE(sound.empty()) << sound.summary();
}

TEST(ComposedRules, ReversedHierarchicalInterPhaseDeadlocks) {
  // Reversing the inter-supernode phase turns every send-then-receive RHD
  // exchange into receive-then-send on both partners.
  std::vector<CommSchedule> phases = fixtures::hierarchical_phases(16, 4);
  std::reverse(phases[1].ops.begin(), phases[1].ops.end());
  const Report report = check_composed(phases);
  ASSERT_EQ(report.diagnostics().size(), 1u) << report.summary();
  EXPECT_TRUE(report.has(Code::kRlcDeadlock));
  EXPECT_NE(report.summary().find("192 op(s) in a send/receive dependency"),
            std::string::npos)
      << report.summary();
}

TEST(ComposedRules, ShippedCompositionsAreSilent) {
  // Four per-bucket RHD collectives back to back, and the three-phase
  // hierarchical decomposition at clean and ragged geometries.
  const std::vector<CommSchedule> rhd_x4(
      4, comm_schedule(topo::rhd_schedule(8, 8), "allreduce.rhd"));
  EXPECT_TRUE(check_composed(rhd_x4).empty())
      << check_composed(rhd_x4).summary();
  for (auto [nodes, q] : {std::pair{16, 4}, {24, 8}, {1024, 256}}) {
    const Report report =
        check_composed(fixtures::hierarchical_phases(nodes, q));
    EXPECT_TRUE(report.empty()) << nodes << "/" << q << ": "
                                << report.summary();
  }
}

TEST(ComposedRules, MixedMeshAndClusterPhasesAreInvalid) {
  const Report report = check_composed(
      {mesh_gemm_schedule(kHp),
       comm_schedule(topo::rhd_schedule(4, 4), "allreduce.rhd")});
  EXPECT_TRUE(report.has(Code::kGeomInvalid)) << report.summary();
}

// --- Communication-config legality (algorithm x compression) -----------------

CommPlan sane_comm_plan() {
  CommPlan p;
  p.name = "test-comm";
  p.algorithm = "hierarchical";
  p.compression = "int8";
  p.num_nodes = 1024;
  p.supernode_size = 256;
  p.buckets = 4;
  p.raw_bytes = 4 << 20;
  p.wire_bytes = (4 << 20) / 4 + 4 * 4;  // raw/4 + buckets * scale header
  return p;
}

TEST(CommRules, SanePlanIsSilent) {
  Report report;
  check_comm(sane_comm_plan(), Options{}, "test-comm", &report);
  EXPECT_TRUE(report.diagnostics().empty()) << report.summary();
  EXPECT_TRUE(verify_comm(sane_comm_plan()).ok());
}

TEST(CommRules, EveryAlgorithmCodecComboHasAVerdict) {
  // int8 composes only with single-shot-encode collectives: ring and
  // parameter-server re-quantize partial sums every hop.
  for (const char* algo : {"rhd-round-robin", "rhd-adjacent", "hierarchical",
                           "ring", "param-server"}) {
    for (const char* codec : {"none", "fp16", "int8"}) {
      CommPlan p = sane_comm_plan();
      p.algorithm = algo;
      p.compression = codec;
      p.wire_bytes = 0;  // skip the byte-conservation rule here
      Report report;
      check_comm(p, Options{}, p.name, &report);
      const bool illegal =
          std::string(codec) == "int8" &&
          (std::string(algo) == "ring" || std::string(algo) == "param-server");
      EXPECT_EQ(report.has(Code::kCommCompressCombo), illegal)
          << algo << " x " << codec << ": " << report.summary();
    }
  }
}

TEST(CommRules, WireByteConservationIsEnforced) {
  // Claimed wire bytes must match the codec encoding exactly: raw for none,
  // raw/2 for fp16, raw/4 plus one scale header per bucket for int8.
  CommPlan p = sane_comm_plan();
  p.wire_bytes += 1;
  Report report;
  check_comm(p, Options{}, p.name, &report);
  EXPECT_TRUE(report.has(Code::kCommCompressBytes)) << report.summary();

  p = sane_comm_plan();
  p.compression = "fp16";
  p.wire_bytes = p.raw_bytes / 2;
  report = Report{};
  check_comm(p, Options{}, p.name, &report);
  EXPECT_TRUE(report.diagnostics().empty()) << report.summary();
  p.wire_bytes = p.raw_bytes;  // forgot to halve
  report = Report{};
  check_comm(p, Options{}, p.name, &report);
  EXPECT_TRUE(report.has(Code::kCommCompressBytes));

  // wire_bytes == 0 means "don't check" — a plan that never claims a wire
  // total is not held to conservation.
  p.wire_bytes = 0;
  report = Report{};
  check_comm(p, Options{}, p.name, &report);
  EXPECT_TRUE(report.diagnostics().empty()) << report.summary();
}

TEST(CommRules, UnknownNamesAndDegenerateGeometryAreInvalid) {
  CommPlan p = sane_comm_plan();
  p.algorithm = "butterfly";
  EXPECT_TRUE(verify_comm(p).has(Code::kGeomInvalid));
  p = sane_comm_plan();
  p.compression = "gzip";
  EXPECT_TRUE(verify_comm(p).has(Code::kGeomInvalid));
  p = sane_comm_plan();
  p.num_nodes = 0;
  EXPECT_TRUE(verify_comm(p).has(Code::kGeomInvalid));
  p = sane_comm_plan();
  p.buckets = 0;
  EXPECT_TRUE(verify_comm(p).has(Code::kGeomInvalid));
  p = sane_comm_plan();
  p.raw_bytes = -1;
  EXPECT_TRUE(verify_comm(p).has(Code::kGeomInvalid));
}

TEST(CommRules, VerifyCommComposesHierarchicalTimeline) {
  // For engaging hierarchical plans verify_comm additionally checks the
  // composed phase schedule; both engaging and fallback geometries must
  // come back clean.
  CommPlan p = sane_comm_plan();
  p.num_nodes = 16;
  p.supernode_size = 4;
  p.compression = "none";
  p.wire_bytes = p.raw_bytes;
  EXPECT_TRUE(verify_comm(p).ok()) << verify_comm(p).summary();
  p.num_nodes = 10;  // fallback geometry
  EXPECT_TRUE(verify_comm(p).ok()) << verify_comm(p).summary();
}

TEST(CommRules, SwappedHierarchicalOpBreaksTheRoundPort) {
  // One op of the executed hierarchical schedule at 16/4 with its source
  // and destination swapped: the pair now sends both halves one way, so
  // one rank sends twice and its partner receives twice in that round.
  // Sends still precede receives, so only the port rule can see it.
  topo::RangeSchedule twin = topo::hierarchical_schedule({16, 4}, 16);
  std::swap(twin.ops[0].src, twin.ops[0].dst);
  Report broken;
  check_collective(twin, "twin", Options{}, "allreduce-hierarchical", &broken);
  ASSERT_EQ(broken.diagnostics().size(), 1u) << broken.summary();
  EXPECT_TRUE(broken.has(Code::kCollectivePort)) << broken.summary();
  EXPECT_NE(broken.summary().find("2 port conflict(s)"), std::string::npos)
      << broken.summary();

  Report clean;
  check_collective(topo::hierarchical_schedule({16, 4}, 16), "hier",
                   Options{}, "allreduce-hierarchical", &clean);
  EXPECT_TRUE(clean.empty()) << clean.summary();
}

TEST(CommRules, Int8RingRejectedExactlyAsTheTrainerSees) {
  // The same plan the SsgdTrainer constructor builds: rejection must happen
  // in verify_comm, BEFORE any pricing.
  CommPlan p;
  p.name = "ssgd-comm";
  p.algorithm = "ring";
  p.compression = "int8";
  p.num_nodes = 8;
  p.buckets = 2;
  p.raw_bytes = 1 << 16;
  p.wire_bytes = (1 << 16) / 4 + 2 * 4;
  const Report report = verify_comm(p);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kCommCompressCombo));
}

// --- Implicit convolution predicates (Table II) ------------------------------

TEST(ImplicitRules, BackwardBelow128ChannelsUnsupported) {
  // 32-channel conv forced onto the implicit plan: forward is supported but
  // degraded (< 64 channels), backward is a Table II dash (< 128 channels).
  const auto g = make_geom(4, 32, 32, 28, 3, 1, 1);
  const Report report =
      verify_conv(kCost, g, "conv", Options{}, ConvStrategy::kImplicit);
  EXPECT_TRUE(report.has(Code::kImplicitUnsupported));
  EXPECT_TRUE(report.has(Code::kImplicitDegraded));
}

TEST(ImplicitRules, ForwardBelowRegisterBlockUnsupported) {
  const auto g = make_geom(4, 4, 64, 28, 3, 1, 1);
  const Report report =
      verify_conv(kCost, g, "conv", Options{}, ConvStrategy::kImplicit);
  EXPECT_TRUE(report.has(Code::kImplicitUnsupported));
}

TEST(ImplicitRules, WideChannelConvIsClean) {
  // VGG conv3_1-like shape: implicit fully supported, nothing to report.
  const auto g = make_geom(8, 256, 256, 56, 3, 1, 1);
  EXPECT_TRUE(verify_conv(kCost, g, "conv", Options{},
                          ConvStrategy::kImplicit)
                  .diagnostics()
                  .empty());
  EXPECT_TRUE(verify_conv(kCost, g).diagnostics().empty());
}

TEST(ImplicitRules, GeometryErrorsAreCaughtBeforePlanning) {
  // Kernel larger than the padded input: empty output.
  const auto g = make_geom(1, 8, 8, 4, 9, 1, 0);
  EXPECT_TRUE(verify_conv(kCost, g).has(Code::kGeomInvalid));
  // Channels not divisible by the group count.
  auto grouped = make_geom(1, 9, 8, 8, 3, 1, 1);
  grouped.group = 2;
  EXPECT_TRUE(verify_conv(kCost, grouped).has(Code::kGeomInvalid));
  // Non-mesh-divisible raw mesh_gemm launch.
  EXPECT_TRUE(verify_mesh_gemm(kHp, 100, 100, 100).has(Code::kGeomInvalid));
}

// --- Agreement with the functional implicit kernel ---------------------------

TEST(Agreement, ImplicitSimPlanPredictsLdmThrow) {
  // 256x256 channels: the simulator's unblocked per-CPE filter block is
  // 32*32*9 doubles = 72 KB > 64 KB. The checker's sim-plan must say
  // overflow, and the kernel must actually throw from Ldm::alloc.
  const auto g = make_geom(1, 256, 256, 8, 3, 1, 1);
  Report report;
  check_ldm(implicit_conv_sim_ldm_plan(kHp, g), kHp, Options{}, "conv",
            &report);
  EXPECT_TRUE(report.has(Code::kLdmOverflow));

  std::vector<float> bottom(g.input_count(), 0.1f);
  std::vector<float> weight(g.weight_count(), 0.1f);
  std::vector<float> top(g.output_count());
  hw::CoreGroup cg{kHp};
  EXPECT_THROW(
      dnn::implicit_conv_forward_sim(cg, g, bottom, weight, nullptr, top),
      base::CheckError);
}

TEST(Agreement, ImplicitSimPlanPassesWhereKernelRuns) {
  const auto g = make_geom(2, 8, 16, 9, 3, 2, 1);
  Report report;
  check_ldm(implicit_conv_sim_ldm_plan(kHp, g), kHp, Options{}, "conv",
            &report);
  EXPECT_TRUE(report.diagnostics().empty());

  base::Rng rng(61);
  std::vector<float> bottom(g.input_count()), weight(g.weight_count()),
      top(g.output_count());
  for (auto& v : bottom) v = rng.uniform(-1.0f, 1.0f);
  for (auto& v : weight) v = rng.uniform(-1.0f, 1.0f);
  hw::CoreGroup cg{kHp};
  EXPECT_NO_THROW(
      dnn::implicit_conv_forward_sim(cg, g, bottom, weight, nullptr, top));
}

TEST(Agreement, BlockedImplicitPlanFitsWherePaperLayersNeedIt) {
  // VGG conv5-style 512x512 channels: the sub-blocked real-kernel plan must
  // fit (the kernel trades passes for LDM), even though the unblocked
  // simulator plan cannot.
  const auto g = make_geom(1, 512, 512, 14, 3, 1, 1);
  Report blocked;
  check_ldm(implicit_conv_ldm_plan(kHp, g), kHp, Options{}, "conv", &blocked);
  EXPECT_EQ(blocked.error_count(), 0) << blocked.summary();
  Report sim;
  check_ldm(implicit_conv_sim_ldm_plan(kHp, g), kHp, Options{}, "conv", &sim);
  EXPECT_TRUE(sim.has(Code::kLdmOverflow));
}

// --- Whole-net silence on the paper configurations ---------------------------

TEST(NetCheck, PaperAlexNetIsSilent) {
  const auto descs = fixtures::alexnet_descs();
  const Report report = verify_net(kCost, descs);
  EXPECT_TRUE(report.diagnostics().empty()) << report.summary();
}

TEST(NetCheck, PaperVgg16IsSilent) {
  const auto descs = fixtures::vgg_descs(16, 128);
  const Report report = verify_net(kCost, descs);
  EXPECT_TRUE(report.diagnostics().empty()) << report.summary();
}

TEST(NetCheck, EveryPaperLayerIsIndividuallySilent) {
  for (const auto& spec :
       {fixtures::alexnet_spec(), fixtures::vgg_spec(16, 128)}) {
    bool saw_conv = false;
    for (const core::LayerDesc& d : core::describe_net_spec(spec)) {
      const bool first = d.kind == core::LayerKind::kConv && !saw_conv;
      if (d.kind == core::LayerKind::kConv) saw_conv = true;
      const Report report = verify_layer(kCost, d, first);
      EXPECT_TRUE(report.diagnostics().empty())
          << spec.name << "/" << d.name << ": " << report.summary();
    }
  }
}

TEST(NetCheck, ReportFormattingIsStable) {
  Report report;
  report.add(Code::kLdmOverflow, Severity::kError, "conv1", "too big");
  report.add(Code::kDmaShortRun, Severity::kNote, "conv2", "short");
  EXPECT_EQ(report.error_count(), 1);
  EXPECT_EQ(report.warning_count(), 0);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.summary(),
            "1 error(s), 0 warning(s); first: [conv1] ldm-overflow: too big");
  EXPECT_STREQ(code_name(Code::kRlcDeadlock), "rlc-deadlock");
  EXPECT_STREQ(severity_name(Severity::kWarning), "warning");
}

// --- Ldm storage invariants (the bugfix the checker relies on) ---------------

TEST(LdmStorage, ResetPreservesStorageAndTracksPeak) {
  hw::Ldm ldm(kHp.ldm_bytes);
  EXPECT_TRUE(ldm.empty());
  auto first = ldm.alloc(1024);
  const double* base = first.data();
  ldm.alloc(512);
  EXPECT_EQ(ldm.used_bytes(), (1024u + 512u) * sizeof(double));
  EXPECT_EQ(ldm.peak_bytes(), ldm.used_bytes());

  ldm.reset();
  EXPECT_TRUE(ldm.empty());
  EXPECT_EQ(ldm.used_bytes(), 0u);
  // Peak survives the phase reset; storage does not move or re-grow.
  EXPECT_EQ(ldm.peak_bytes(), (1024u + 512u) * sizeof(double));
  auto again = ldm.alloc(256);
  EXPECT_EQ(again.data(), base);
  EXPECT_EQ(ldm.peak_bytes(), (1024u + 512u) * sizeof(double));
}

TEST(LdmStorage, CoreGroupResetRestoresEmptyInvariant) {
  hw::CoreGroup cg{kHp};
  cg.ldm(3, 4).alloc(100);
  EXPECT_FALSE(cg.ldm(3, 4).empty());
  cg.reset();
  for (int i = 0; i < kHp.mesh_rows; ++i) {
    for (int j = 0; j < kHp.mesh_cols; ++j) {
      EXPECT_TRUE(cg.ldm(i, j).empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Retry plans (swfault resilient send)

RetryPlan sane_retry_plan() {
  RetryPlan p;
  p.name = "allreduce.resend";
  p.round_bytes = 16 << 10;
  p.resend_buffer_bytes = 32 << 10;
  p.max_attempts = 4;
  p.backoff_base_s = 20e-6;
  p.round_time_s = 50e-6;
  p.timeout_s = 0.5;
  return p;
}

TEST(RetryRuleTest, SanePlanIsSilent) {
  const Report report = verify_retry(sane_retry_plan());
  EXPECT_TRUE(report.diagnostics().empty()) << report.summary();
}

TEST(RetryRuleTest, RoundLargerThanResendBufferIsAnError) {
  RetryPlan p = sane_retry_plan();
  p.round_bytes = p.resend_buffer_bytes + 1;
  const Report report = verify_retry(p);
  EXPECT_TRUE(report.has(Code::kRetryBufferOverflow)) << report.summary();
}

TEST(RetryRuleTest, ResendBufferBeyondLdmIsAnError) {
  // The resend buffer is staged in the 64 KB CPE scratchpad; reserving more
  // than the LDM can hold is a plan bug even if the round itself fits.
  RetryPlan p = sane_retry_plan();
  p.resend_buffer_bytes = static_cast<std::int64_t>(kHp.ldm_bytes) + 1;
  p.round_bytes = 1 << 10;
  const Report report = verify_retry(p);
  EXPECT_TRUE(report.has(Code::kRetryBufferOverflow)) << report.summary();
}

TEST(RetryRuleTest, LadderSlowerThanEscalationIsAWarning) {
  RetryPlan p = sane_retry_plan();
  p.timeout_s = 1e-6;  // escalation fires before even the second attempt
  const Report report = verify_retry(p);
  EXPECT_TRUE(report.has(Code::kRetryTimeout)) << report.summary();
  EXPECT_FALSE(report.has(Code::kRetryBufferOverflow));
}

TEST(RetryRuleTest, DegenerateGeometryIsInvalid) {
  RetryPlan p = sane_retry_plan();
  p.max_attempts = 0;
  EXPECT_TRUE(verify_retry(p).has(Code::kGeomInvalid));
  p = sane_retry_plan();
  p.round_bytes = -1;
  EXPECT_TRUE(verify_retry(p).has(Code::kGeomInvalid));
  p = sane_retry_plan();
  p.backoff_base_s = -1.0;
  EXPECT_TRUE(verify_retry(p).has(Code::kGeomInvalid));
}

TEST(RetryRuleTest, WorstCaseSumsAttemptsAndGeometricBackoff) {
  RetryPlan p = sane_retry_plan();
  p.max_attempts = 3;
  p.round_time_s = 1.0;
  p.backoff_base_s = 0.5;
  // 3 sends + backoff 0.5*(2^0 + 2^1) between them.
  EXPECT_DOUBLE_EQ(p.worst_case_seconds(), 3.0 + 0.5 * 3.0);
}

BucketPlan sane_bucket_plan() {
  BucketPlan p;
  p.name = "overlap.buckets";
  p.num_layers = 6;
  p.buckets = {{0, 2, 4000}, {3, 4, 3000}, {5, 5, 3000}};
  p.total_bytes = 10000;
  return p;
}

TEST(BucketRuleTest, SaneLayoutIsSilent) {
  const Report report = verify_buckets(sane_bucket_plan());
  EXPECT_TRUE(report.diagnostics().empty()) << report.summary();
}

TEST(BucketRuleTest, GapOrOverlapInTilingIsAnError) {
  BucketPlan p = sane_bucket_plan();
  p.buckets[1].first_layer = 4;  // gap: layer 3 belongs to no bucket
  EXPECT_TRUE(verify_buckets(p).has(Code::kBucketOrder));
  p = sane_bucket_plan();
  p.buckets[1].first_layer = 2;  // overlap: layer 2 reduced twice
  EXPECT_TRUE(verify_buckets(p).has(Code::kBucketOrder));
  p = sane_bucket_plan();
  p.buckets.pop_back();  // truncated: last layer uncovered
  EXPECT_TRUE(verify_buckets(p).has(Code::kBucketOrder));
}

TEST(BucketRuleTest, ByteConservationIsEnforced) {
  BucketPlan p = sane_bucket_plan();
  p.buckets[0].bytes += 1;  // sum no longer matches the packed message
  const Report report = verify_buckets(p);
  EXPECT_TRUE(report.has(Code::kBucketOrder)) << report.summary();
}

TEST(BucketRuleTest, EmptyBucketIsAnErrorOnlyWhenBytesExist) {
  BucketPlan p = sane_bucket_plan();
  p.buckets[1].bytes = 0;
  p.total_bytes = 7000;
  EXPECT_TRUE(verify_buckets(p).has(Code::kBucketOrder));
  // A parameterless net legitimately degenerates to one empty bucket.
  BucketPlan empty;
  empty.name = "no-params";
  empty.num_layers = 3;
  empty.buckets = {{0, 2, 0}};
  empty.total_bytes = 0;
  EXPECT_TRUE(verify_buckets(empty).diagnostics().empty());
}

TEST(BucketRuleTest, RoundBeyondResendBufferIsAnError) {
  BucketPlan p = sane_bucket_plan();
  p.resend_buffer_bytes = 3500;  // bucket 0's 4000 B round cannot re-send
  EXPECT_TRUE(verify_buckets(p).has(Code::kBucketResendOverflow));
  // The eager cutoff caps the buffered round: with eager_limit below the
  // buffer, every bucket goes rendezvous and the plan is clean again.
  p.eager_limit = 2000;
  EXPECT_TRUE(verify_buckets(p).diagnostics().empty());
}

TEST(BucketRuleTest, ResendBufferBeyondLdmIsAnError) {
  BucketPlan p = sane_bucket_plan();
  p.resend_buffer_bytes = static_cast<std::int64_t>(kHp.ldm_bytes) + 1;
  EXPECT_TRUE(verify_buckets(p).has(Code::kBucketResendOverflow));
}

TEST(BucketRuleTest, DegenerateGeometryIsInvalid) {
  BucketPlan p = sane_bucket_plan();
  p.num_layers = 0;
  EXPECT_TRUE(verify_buckets(p).has(Code::kGeomInvalid));
  p = sane_bucket_plan();
  p.buckets.clear();
  EXPECT_TRUE(verify_buckets(p).has(Code::kGeomInvalid));
  p = sane_bucket_plan();
  p.resend_buffer_bytes = -1;
  EXPECT_TRUE(verify_buckets(p).has(Code::kGeomInvalid));
}

}  // namespace
}  // namespace swcaffe::check
