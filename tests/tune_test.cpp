// swtune invariants: every plan the tuner emits is legal under the swcheck
// rules and never costs more than the hand-written default under the cost
// model (the default is always the first candidate priced); the plan cache
// round-trips bit-exactly, rejects foreign versions/chips, and a warm cache
// skips the search entirely — asserted by trace span counts, not logging.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/log.h"
#include "check/plan_model.h"
#include "check/rules.h"
#include "check/verify.h"
#include "core/models.h"
#include "fixtures.h"
#include "hw/cost_model.h"
#include "swdnn/conv_plan.h"
#include "swdnn/layer_estimate.h"
#include "swgemm/estimate.h"
#include "topo/allreduce.h"
#include "topo/overlap.h"
#include "trace/tracer.h"
#include "tune/bucket_tune.h"
#include "tune/comm_tune.h"
#include "tune/plan_cache.h"
#include "tune/search_space.h"
#include "tune/tuner.h"

namespace swcaffe::tune {
namespace {

std::vector<core::LayerDesc> alexnet_descs() {
  return fixtures::alexnet_descs(128);
}

std::vector<core::LayerDesc> vgg16_descs() { return fixtures::vgg_descs(16, 128); }

/// Re-derives the legality of one tuned direction from the outside, straight
/// from the check:: builders (the same oracle the tuner consulted).
check::Report recheck_direction(const hw::CostModel& cost,
                                const core::ConvGeom& g,
                                dnn::ConvDirection dir,
                                const DirectionChoice& choice,
                                const std::string& layer) {
  const core::ConvGeom gpg = g.per_group();
  if (choice.implicit) {
    check::Report report;
    check::check_ldm(
        check::implicit_conv_ldm_plan(cost.params(), gpg,
                                      choice.channel_block_in,
                                      choice.channel_block_out),
        cost.params(), {}, layer, &report);
    check::check_dma(check::implicit_conv_dma_plan(gpg), {}, layer, &report);
    return report;
  }
  const dnn::ConvGemmShape s = dnn::explicit_gemm_shape(gpg, dir);
  return check::verify_gemm(cost, s.m, s.n, s.k, choice.blocking, layer);
}

int count_events(const trace::Tracer& tracer, sim::EventKind kind,
                 const std::string& category) {
  int n = 0;
  for (const auto& e : tracer.log().events()) {
    n += e.kind == kind && e.category == category;
  }
  return n;
}

TEST(TunerTest, EveryPaperPlanLegalAndNotSlowerThanDefault) {
  hw::CostModel cost;
  for (const auto& descs : {alexnet_descs(), vgg16_descs()}) {
    Tuner tuner(cost);
    const NetPlan plan = tuner.tune_net(descs);
    ASSERT_FALSE(plan.convs.empty());
    for (const auto& [name, p] : plan.convs) {
      struct Dir {
        dnn::ConvDirection dir;
        const DirectionChoice* choice;
      };
      const Dir dirs[] = {
          {dnn::ConvDirection::kForward, &p.forward},
          {dnn::ConvDirection::kBackwardWeight, &p.backward_weight},
          {dnn::ConvDirection::kBackwardInput, &p.backward_input},
      };
      for (const Dir& d : dirs) {
        if (d.dir == dnn::ConvDirection::kBackwardInput && p.first_conv) {
          continue;  // data-layer conv never computes dX
        }
        EXPECT_LE(d.choice->tuned_s, d.choice->default_s)
            << name << ": tuned plan slower than the hand-written default";
        const check::Report report =
            recheck_direction(cost, p.geom, d.dir, *d.choice, name);
        EXPECT_TRUE(report.empty())
            << name << ": tuned plan fails swcheck: " << report.summary();
      }
    }
    EXPECT_LE(plan.tuned_total(), plan.default_total());
  }
}

TEST(TunerTest, FindsStrictWinOnVgg16) {
  // The acceptance bar is a measurable end-to-end improvement, not just
  // parity: on VGG-16 at the paper batch the search must strictly beat the
  // defaults somewhere (dW blockings and implicit channel tilings remain
  // shape-specialized even after the default-blocking fix the tuner drove).
  hw::CostModel cost;
  Tuner tuner(cost);
  const NetPlan plan = tuner.tune_net(vgg16_descs());
  EXPECT_LT(plan.tuned_total(), plan.default_total());
}

TEST(TunerTest, DefaultBlockingIsBitIdenticalToUnblockedEstimate) {
  // estimate_gemm_blocked at the default blocking must reproduce
  // estimate_gemm exactly — the tuner's baseline candidate IS the legacy
  // path, so "tuned <= default" is anchored to the calibrated numbers.
  hw::CostModel cost;
  const std::int64_t shapes[][3] = {
      {256, 3136, 2304}, {64, 50176, 576}, {512, 196, 4608}, {7, 9, 11}};
  for (const auto& s : shapes) {
    const gemm::GemmEstimate a = gemm::estimate_gemm(cost, s[0], s[1], s[2]);
    const gemm::GemmEstimate b =
        gemm::estimate_gemm_blocked(cost, s[0], s[1], s[2], gemm::GemmBlocking{});
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.dma_bytes, b.dma_bytes);
    EXPECT_EQ(a.compute_seconds, b.compute_seconds);
    EXPECT_EQ(a.dma_seconds, b.dma_seconds);
  }
}

TEST(TunerTest, SearchSpaceLeadsWithTheDefault) {
  hw::CostModel cost;
  const auto blockings = gemm_blocking_candidates(cost.params(), 256, 3136, 2304);
  ASSERT_FALSE(blockings.empty());
  EXPECT_TRUE(blockings.front() == gemm::GemmBlocking{});
}

TEST(PlanCacheTest, RoundTripIsExact) {
  hw::CostModel cost;
  const std::string path = testing::TempDir() + "/swtune_roundtrip.cache";
  std::remove(path.c_str());  // TempDir persists across runs; start cold

  TuneOptions opts;
  opts.cache_path = path;
  Tuner cold(cost, opts);
  const NetPlan first = cold.tune_net(alexnet_descs());
  ASSERT_TRUE(cold.save_cache());
  EXPECT_EQ(cold.stats().cache_hits, 0);
  EXPECT_GT(cold.stats().evaluated, 0);

  Tuner warm(cost, opts);
  const NetPlan second = warm.tune_net(alexnet_descs());
  EXPECT_EQ(warm.stats().cache_hits, static_cast<int>(first.convs.size()));
  EXPECT_EQ(warm.stats().evaluated, 0);
  ASSERT_EQ(second.convs.size(), first.convs.size());
  for (const auto& [name, p] : first.convs) {
    const auto it = second.convs.find(name);
    ASSERT_NE(it, second.convs.end());
    EXPECT_TRUE(it->second.from_cache);
    // %.17g round-trips doubles exactly; the cached plan is the tuned plan.
    EXPECT_EQ(it->second.forward.tuned_s, p.forward.tuned_s);
    EXPECT_EQ(it->second.backward_weight.tuned_s, p.backward_weight.tuned_s);
    EXPECT_EQ(it->second.backward_input.tuned_s, p.backward_input.tuned_s);
    EXPECT_EQ(it->second.forward.implicit, p.forward.implicit);
    EXPECT_TRUE(it->second.forward.blocking == p.forward.blocking);
  }
  EXPECT_EQ(second.tuned_total(), first.tuned_total());
}

TEST(PlanCacheTest, RejectsVersionMismatch) {
  hw::CostModel cost;
  const std::string path = testing::TempDir() + "/swtune_version.cache";
  PlanCache cache(cost.params());
  ASSERT_TRUE(cache.save(path));

  // Rewrite the header with a future format version; everything else intact.
  std::ifstream in(path);
  std::stringstream rest;
  std::string header;
  std::getline(in, header);
  rest << in.rdbuf();
  in.close();
  std::ofstream out(path);
  out << "swtune-plan-cache " << PlanCache::kFormatVersion + 1 << "\n"
      << rest.str();
  out.close();

  PlanCache reader(cost.params());
  std::string error;
  EXPECT_FALSE(reader.load(path, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  EXPECT_EQ(reader.size(), 0u);
}

TEST(PlanCacheTest, RejectsForeignChipAndGarbage) {
  hw::CostModel cost;
  const std::string path = testing::TempDir() + "/swtune_chip.cache";
  PlanCache cache(cost.params());
  ASSERT_TRUE(cache.save(path));

  hw::HwParams other = cost.params();
  other.ldm_bytes *= 2;  // a different machine tunes different plans
  EXPECT_NE(chip_fingerprint(other), chip_fingerprint(cost.params()));
  PlanCache foreign(other);
  std::string error;
  EXPECT_FALSE(foreign.load(path, &error));
  EXPECT_EQ(foreign.size(), 0u);

  const std::string garbage = testing::TempDir() + "/swtune_garbage.cache";
  std::ofstream(garbage) << "definitely not a plan cache\n";
  PlanCache reader(cost.params());
  EXPECT_FALSE(reader.load(garbage, &error));
  EXPECT_EQ(reader.size(), 0u);
}

TEST(PlanCacheTest, WarmCacheSkipsSearchEntirely) {
  hw::CostModel cost;
  const std::string path = testing::TempDir() + "/swtune_warm.cache";
  std::remove(path.c_str());  // TempDir persists across runs; start cold
  const auto descs = alexnet_descs();

  trace::Tracer cold_trace;
  TuneOptions opts;
  opts.cache_path = path;
  opts.tracer = &cold_trace;
  Tuner cold(cost, opts);
  const NetPlan plan = cold.tune_net(descs);
  ASSERT_TRUE(cold.save_cache());
  const int convs = static_cast<int>(plan.convs.size());
  EXPECT_EQ(count_events(cold_trace, sim::EventKind::kSpan, "tune.search"), convs);
  EXPECT_EQ(count_events(cold_trace, sim::EventKind::kInstant, "tune.cache_hit"), 0);
  // The search span models MPE-side candidate evaluation: simulated time
  // advances while tuning, proportionally to the candidates priced.
  EXPECT_GT(cold_trace.now(0), 0.0);

  trace::Tracer warm_trace;
  opts.tracer = &warm_trace;
  Tuner warm(cost, opts);
  warm.tune_net(descs);
  EXPECT_EQ(count_events(warm_trace, sim::EventKind::kSpan, "tune.search"), 0);
  EXPECT_EQ(count_events(warm_trace, sim::EventKind::kInstant, "tune.cache_hit"), convs);
  EXPECT_EQ(warm.stats().cache_hits, convs);
  EXPECT_EQ(warm.stats().layers_tuned, 0);
}

// --- Bucket-count search (overlapped all-reduce) -----------------------------

topo::BucketCostFn rhd_cost(int nodes) {
  topo::Topology topo;
  topo.num_nodes = nodes;
  const topo::NetParams net = topo::sunway_network();
  return [topo, net](std::int64_t bytes) {
    return topo::cost_rhd(bytes, topo, net, topo::Placement::kRoundRobin);
  };
}

TEST(BucketTuneTest, TunedNeverSlowerThanSerialForPaperNets) {
  hw::CostModel cost;
  struct NetCase {
    const char* name;
    std::vector<core::LayerDesc> descs;
    std::int64_t param_bytes;
  };
  const std::vector<NetCase> nets = {
      {"alexnet", fixtures::alexnet_per_cg_descs(),
       fixtures::kAlexNetGradientBytes},
      {"vgg16", fixtures::vgg_per_cg_descs(16), 0},
  };
  for (const auto& nc : nets) {
    const dnn::NetTimeline tl = dnn::estimate_net_timeline(cost, nc.descs);
    std::vector<std::int64_t> layer_bytes;
    for (const auto& d : nc.descs) layer_bytes.push_back(d.param_bytes());
    if (nc.param_bytes > 0) {
      layer_bytes = topo::scale_layer_bytes(layer_bytes, nc.param_bytes);
    }
    for (int nodes : {4, 16, 64, 256, 1024}) {
      const BucketChoice choice =
          tune_buckets(layer_bytes, tl.bwd_s, tl.total_s, rhd_cost(nodes));
      EXPECT_LE(choice.overlapped_s, choice.serial_s)
          << nc.name << " @ " << nodes;
      EXPECT_GE(choice.buckets, 1) << nc.name << " @ " << nodes;
      // The k=1 baseline is always candidate zero and always legal.
      ASSERT_FALSE(choice.candidates.empty());
      EXPECT_EQ(choice.candidates.front().requested, 1);
      EXPECT_TRUE(choice.candidates.front().legal);
      EXPECT_EQ(choice.candidates.front().finish_s, choice.serial_s);
    }
  }
}

TEST(BucketTuneTest, FindsStrictWinWhereCommFitsUnderBackward) {
  // At 16 nodes AlexNet's collective is comparable to backward: splitting
  // the packed message must strictly beat the serial schedule.
  hw::CostModel cost;
  const auto descs = fixtures::alexnet_per_cg_descs();
  const dnn::NetTimeline tl = dnn::estimate_net_timeline(cost, descs);
  std::vector<std::int64_t> layer_bytes;
  for (const auto& d : descs) layer_bytes.push_back(d.param_bytes());
  layer_bytes =
      topo::scale_layer_bytes(layer_bytes, fixtures::kAlexNetGradientBytes);
  const BucketChoice choice =
      tune_buckets(layer_bytes, tl.bwd_s, tl.total_s, rhd_cost(16));
  EXPECT_LT(choice.overlapped_s, choice.serial_s);
  EXPECT_GT(choice.buckets, 1);
  EXPECT_LT(choice.exposed_comm_s, choice.serial_s - tl.total_s);
}

TEST(BucketTuneTest, IllegalBaselineIsLoudlyRejected) {
  // The k=1 bucket is the whole packed message — the largest round any
  // layout buffers — so a resend buffer that cannot hold it invalidates the
  // baseline itself. That is a configuration error (the trainer could not
  // re-send a dropped round at all), and the search refuses to return a
  // choice built on an illegal baseline.
  const std::vector<std::int64_t> layer_bytes = {4000, 4000, 4000, 4000};
  const std::vector<double> bwd = {0.1, 0.1, 0.1, 0.1};
  const auto cost = [](std::int64_t bytes) {
    topo::CostBreakdown c;
    c.seconds = 1e-3 + static_cast<double>(bytes) * 1e-7;
    c.alpha_terms = 1;
    return c;
  };
  BucketTuneOptions opts;
  opts.max_buckets = 4;
  opts.eager_limit = 0;             // rounds fully buffered
  opts.resend_buffer_bytes = 6000;  // the 16000 B packed message overflows
  EXPECT_THROW(tune_buckets(layer_bytes, bwd, 0.4, cost, opts),
               base::CheckError);
  // An eager cutoff below the buffer caps every buffered round: the same
  // configuration becomes legal for every candidate and the search runs.
  opts.eager_limit = 2000;
  const BucketChoice choice = tune_buckets(layer_bytes, bwd, 0.4, cost, opts);
  EXPECT_LE(choice.overlapped_s, choice.serial_s);
  for (const auto& c : choice.candidates) EXPECT_TRUE(c.legal);
}

TEST(BucketTuneTest, CandidateMenuLeadsWithOneAndDeduplicates) {
  const auto menu = bucket_count_candidates(32);
  ASSERT_FALSE(menu.empty());
  EXPECT_EQ(menu.front(), 1);
  for (std::size_t i = 1; i < menu.size(); ++i) {
    EXPECT_GT(menu[i], menu[i - 1]);
    EXPECT_LE(menu[i], 32);
  }
  // Degenerate request still yields the serial baseline.
  EXPECT_EQ(bucket_count_candidates(0), std::vector<int>{1});
}

// --- comm-config search (algorithm x compression x buckets) ------------------

/// An AlexNet-shaped workload: a few heavy fc layers at the end of backward,
/// light conv gradients early, ~0.5 s of compute per iteration.
struct CommWorkload {
  std::vector<double> bwd = {0.02, 0.04, 0.06, 0.10, 0.25};
  double compute_s = 0.5;
  std::vector<std::int64_t> bytes = {140'000, 1'200'000, 2'700'000,
                                     37'000'000, 16'800'000};
};

TEST(CommTuneTest, BaselineCandidateIsAlwaysFirstLegalAndSingleBucket) {
  const CommWorkload w;
  const CommChoice choice = tune_comm(w.bwd, w.compute_s, w.bytes, 64);
  ASSERT_FALSE(choice.candidates.empty());
  const CommCandidate& base = choice.candidates.front();
  EXPECT_EQ(base.algorithm, topo::AllreduceAlgo::kRhdRoundRobin);
  EXPECT_EQ(base.compression, topo::Compression::kNone);
  EXPECT_EQ(base.buckets, 1);
  EXPECT_TRUE(base.legal);
  EXPECT_EQ(choice.baseline_s, base.finish_s);
}

TEST(CommTuneTest, WinnerNeverSlowerThanBaseline) {
  const CommWorkload w;
  for (int nodes : {4, 64, 1024, 40960}) {
    const CommChoice choice = tune_comm(w.bwd, w.compute_s, w.bytes, nodes);
    EXPECT_LE(choice.overlapped_s, choice.baseline_s) << nodes;
    // The reported winner really is in the table with matching numbers.
    bool found = false;
    for (const CommCandidate& c : choice.candidates) {
      if (c.legal && c.algorithm == choice.algorithm &&
          c.compression == choice.compression && c.buckets == choice.buckets &&
          c.finish_s == choice.overlapped_s) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << nodes;
  }
}

TEST(CommTuneTest, IllegalCombosAreRecordedButNeverPriced) {
  const CommWorkload w;
  const CommChoice choice = tune_comm(w.bwd, w.compute_s, w.bytes, 64);
  int rejected = 0;
  for (const CommCandidate& c : choice.candidates) {
    const bool int8_multi_hop =
        c.compression == topo::Compression::kInt8 &&
        (c.algorithm == topo::AllreduceAlgo::kRing ||
         c.algorithm == topo::AllreduceAlgo::kParamServer);
    if (!c.legal) {
      ++rejected;
      // Only the int8 x multi-hop combos are illegal, and a rejected
      // candidate carries no price.
      EXPECT_TRUE(int8_multi_hop) << topo::allreduce_algo_name(c.algorithm);
      EXPECT_EQ(c.finish_s, 0.0);
    } else {
      EXPECT_FALSE(int8_multi_hop) << topo::allreduce_algo_name(c.algorithm);
      EXPECT_GT(c.finish_s, 0.0);
    }
  }
  EXPECT_GT(rejected, 0);
  // The winner is never one of the rejected shapes.
  EXPECT_FALSE(choice.compression == topo::Compression::kInt8 &&
               (choice.algorithm == topo::AllreduceAlgo::kRing ||
                choice.algorithm == topo::AllreduceAlgo::kParamServer));
}

TEST(CommTuneTest, DeterministicAcrossReruns) {
  const CommWorkload w;
  const CommChoice a = tune_comm(w.bwd, w.compute_s, w.bytes, 1024);
  const CommChoice b = tune_comm(w.bwd, w.compute_s, w.bytes, 1024);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.compression, b.compression);
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.overlapped_s, b.overlapped_s);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].finish_s, b.candidates[i].finish_s) << i;
    EXPECT_EQ(a.candidates[i].legal, b.candidates[i].legal) << i;
  }
}

TEST(CommTuneTest, HierarchicalWinsAtFullMachineScale) {
  // At 40,960 nodes the flat RHD's non-power-of-two fold is ruinous; the
  // tuned choice must be the two-level hierarchy, and it must beat the
  // paper baseline by a wide margin, not a rounding error.
  const CommWorkload w;
  const CommChoice choice = tune_comm(w.bwd, w.compute_s, w.bytes, 40960);
  EXPECT_EQ(choice.algorithm, topo::AllreduceAlgo::kHierarchical);
  EXPECT_LT(choice.overlapped_s, 0.5 * choice.baseline_s);
}

}  // namespace
}  // namespace swcaffe::tune
