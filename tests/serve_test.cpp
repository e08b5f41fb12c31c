// swserve: arrival models, forward pricing engine, dynamic batcher and SLO
// admission control.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "base/log.h"
#include "core/models.h"
#include "hw/cost_model.h"
#include "serve/arrival.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/stats.h"
#include "trace/tracer.h"
#include "tune/plan_cache.h"
#include "tune/tuner.h"

namespace swcaffe::serve {
namespace {

/// Small AlexNet geometry (10 classes, 67x67): the same shapes the CLI
/// smoke runs use, fast to price and to tune.
ModelFn small_alexnet() {
  return [](int b) { return core::alexnet_bn(b, 10, 67, false); };
}

InferenceEngine make_engine(const hw::CostModel& cost, int max_batch = 4,
                            EngineOptions opts = {}) {
  opts.max_batch = max_batch;
  return InferenceEngine(cost, "alexnet-small", small_alexnet(), opts);
}

// ---------------------------------------------------------------------------
// Arrival models
// ---------------------------------------------------------------------------

TEST(ArrivalTest, PoissonIsDeterministicStrictlyIncreasingAndInWindow) {
  ArrivalSpec spec;
  spec.rate = 500.0;
  spec.duration_s = 2.0;
  spec.seed = 42;
  const std::vector<double> a = generate_arrivals(spec);
  const std::vector<double> b = generate_arrivals(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);  // bitwise: pure in (seed, counter)
    EXPECT_GE(a[i], 0.0);
    EXPECT_LT(a[i], spec.duration_s);
    if (i > 0) {
      EXPECT_GT(a[i], a[i - 1]);
    }
  }
  // ~1000 expected arrivals; 5 sigma is ~160.
  EXPECT_NEAR(static_cast<double>(a.size()), 1000.0, 160.0);
}

TEST(ArrivalTest, SeedSelectsTheSchedule) {
  ArrivalSpec spec;
  spec.rate = 200.0;
  spec.seed = 1;
  const std::vector<double> a = generate_arrivals(spec);
  spec.seed = 2;
  const std::vector<double> b = generate_arrivals(spec);
  EXPECT_NE(a, b);
}

TEST(ArrivalTest, BurstyIsAThinnedSubsetOfTheSameSeedPoisson) {
  ArrivalSpec poisson;
  poisson.rate = 400.0;
  poisson.duration_s = 1.0;
  poisson.seed = 7;
  ArrivalSpec bursty = poisson;
  bursty.kind = ArrivalKind::kBursty;
  const std::vector<double> base = generate_arrivals(poisson);
  const std::vector<double> thinned = generate_arrivals(bursty);
  // Thinning can only drop arrivals, never move or add them.
  EXPECT_LT(thinned.size(), base.size());
  EXPECT_FALSE(thinned.empty());
  const std::set<double> base_set(base.begin(), base.end());
  for (const double t : thinned) EXPECT_TRUE(base_set.count(t)) << t;
}

TEST(ArrivalTest, BurstFactorIsASquareWave) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kBursty;
  spec.burst_period_s = 1.0;
  spec.burst_duty = 0.25;
  spec.base_fraction = 0.1;
  EXPECT_DOUBLE_EQ(burst_factor(spec, 0.0), 1.0);     // in burst
  EXPECT_DOUBLE_EQ(burst_factor(spec, 0.2), 1.0);     // still in burst
  EXPECT_DOUBLE_EQ(burst_factor(spec, 0.5), 0.1);     // between bursts
  EXPECT_DOUBLE_EQ(burst_factor(spec, 1.1), 1.0);     // next period
  spec.kind = ArrivalKind::kPoisson;
  EXPECT_DOUBLE_EQ(burst_factor(spec, 0.5), 1.0);     // Poisson: flat
}

TEST(ArrivalTest, TraceReplayFiltersWindowAndValidatesOrder) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kTrace;
  spec.duration_s = 1.0;
  spec.trace = {0.1, 0.5, 0.9, 1.5};
  const std::vector<double> a = generate_arrivals(spec);
  EXPECT_EQ(a, (std::vector<double>{0.1, 0.5, 0.9}));
  spec.trace = {0.5, 0.5};
  EXPECT_THROW(generate_arrivals(spec), base::CheckError);
}

TEST(ArrivalTest, ParseKindRoundTripsAndRejectsUnknown) {
  EXPECT_EQ(parse_arrival_kind("poisson"), ArrivalKind::kPoisson);
  EXPECT_EQ(parse_arrival_kind("bursty"), ArrivalKind::kBursty);
  EXPECT_EQ(parse_arrival_kind("trace"), ArrivalKind::kTrace);
  EXPECT_STREQ(arrival_kind_name(ArrivalKind::kBursty), "bursty");
  EXPECT_THROW(parse_arrival_kind("uniform"), base::CheckError);
}

// ---------------------------------------------------------------------------
// Latency statistics
// ---------------------------------------------------------------------------

TEST(StatsTest, NearestRankPercentiles) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(sorted, 0.50), 2.0);  // ceil(0.5*4) = 2nd
  EXPECT_DOUBLE_EQ(percentile(sorted, 0.51), 3.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 1.00), 4.0);
  EXPECT_DOUBLE_EQ(percentile(sorted, 0.01), 1.0);

  std::vector<double> lat;
  for (int i = 100; i >= 1; --i) lat.push_back(i * 0.001);  // unsorted
  const LatencyStats s = latency_stats(lat);
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.min_s, 0.001);
  EXPECT_DOUBLE_EQ(s.p50_s, 0.050);
  EXPECT_DOUBLE_EQ(s.p95_s, 0.095);
  EXPECT_DOUBLE_EQ(s.p99_s, 0.099);
  EXPECT_DOUBLE_EQ(s.max_s, 0.100);
}

TEST(StatsTest, EmptySampleIsAllZero) {
  const LatencyStats s = latency_stats({});
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.p99_s, 0.0);
}

// ---------------------------------------------------------------------------
// InferenceEngine
// ---------------------------------------------------------------------------

TEST(EngineTest, BatchTableIsMonotoneAndSublinear) {
  const hw::CostModel cost;
  const InferenceEngine engine = make_engine(cost, 8);
  double prev = 0.0;
  for (int b = 1; b <= 8; ++b) {
    const double f = engine.batch_time(b);
    EXPECT_GT(f, 0.0);
    EXPECT_GE(f, prev);  // coalescing never finishes earlier
    prev = f;
  }
  // Sublinearity is what makes batching pay: 8 coalesced requests must be
  // cheaper than 8 back-to-back singles.
  EXPECT_LT(engine.batch_time(8), 8.0 * engine.batch_time(1));
  EXPECT_THROW(engine.batch_time(0), base::CheckError);
  EXPECT_THROW(engine.batch_time(9), base::CheckError);
}

TEST(EngineTest, TunedPlansAreNeverSlowerAndAreVerified) {
  const hw::CostModel cost;
  const InferenceEngine def = make_engine(cost, 2);
  EngineOptions opts;
  opts.tune = true;
  const InferenceEngine tuned = make_engine(cost, 2, opts);
  for (int b = 1; b <= 2; ++b) {
    EXPECT_LE(tuned.batch_time(b), def.batch_time(b)) << b;
  }
  EXPECT_GT(tuned.stats().layers_tuned, 0);
  EXPECT_GT(tuned.stats().plans_verified, 0);
  EXPECT_GT(tuned.stats().candidates_evaluated, 0);
}

TEST(EngineTest, PlanCacheWarmStartSkipsSearchesBitIdentically) {
  const hw::CostModel cost;
  const std::string path = testing::TempDir() + "/swserve_warm.cache";
  std::remove(path.c_str());  // TempDir persists across runs; start cold

  EngineOptions opts;
  opts.tune = true;
  opts.plan_cache = path;
  const InferenceEngine cold = make_engine(cost, 2, opts);
  EXPECT_GT(cold.stats().layers_tuned, 0);
  ASSERT_TRUE(cold.save_cache());

  const InferenceEngine warm = make_engine(cost, 2, opts);
  EXPECT_EQ(warm.stats().layers_tuned, 0);
  EXPECT_GT(warm.stats().cache_hits, 0);
  EXPECT_GT(warm.stats().plans_verified, 0);  // cache plans re-verified
  for (int b = 1; b <= 2; ++b) {
    EXPECT_EQ(warm.batch_time(b), cold.batch_time(b)) << b;  // bitwise
  }
}

TEST(EngineTest, IllegalCachedPlanIsRefusedBeforePricing) {
  const hw::CostModel cost;
  const std::string path = testing::TempDir() + "/swserve_poisoned.cache";
  std::remove(path.c_str());

  // Plant a cache entry whose forward blocking blows the LDM budget — the
  // kind of plan a stale or hand-edited cache file could carry. The cache
  // key is (shape, first_conv, nodes), so match the net's first conv.
  const auto descs = core::describe_net_spec(small_alexnet()(1));
  const core::LayerDesc* first_conv = nullptr;
  for (const auto& d : descs) {
    if (d.kind == core::LayerKind::kConv) {
      first_conv = &d;
      break;
    }
  }
  ASSERT_NE(first_conv, nullptr);
  tune::TunedConvPlan poisoned;
  poisoned.layer = first_conv->name;
  poisoned.geom = first_conv->conv;
  poisoned.first_conv = true;
  poisoned.nodes = 1;
  // An implicit plan staging 4096x4096 channel blocks per CPE pass needs
  // gigabytes of LDM — illegal on any geometry.
  poisoned.forward.implicit = true;
  poisoned.forward.channel_block_in = 4096;
  poisoned.forward.channel_block_out = 4096;
  poisoned.forward.tuned_s = 1e-9;  // absurdly fast: the lure of a bad plan
  poisoned.backward_weight = poisoned.forward;
  tune::PlanCache cache(cost.params());
  cache.put(poisoned);
  ASSERT_TRUE(cache.save(path));

  EngineOptions opts;
  opts.tune = true;
  opts.plan_cache = path;
  EXPECT_THROW(make_engine(cost, 1, opts), base::CheckError);
}

// ---------------------------------------------------------------------------
// Dynamic batcher + admission control
// ---------------------------------------------------------------------------

ServeOptions serve_opts(int max_batch, double max_delay_s, double slo_s,
                        bool admission = true) {
  ServeOptions o;
  o.batcher.max_batch = max_batch;
  o.batcher.max_delay_s = max_delay_s;
  o.admission.enabled = admission;
  o.admission.slo_s = slo_s;
  return o;
}

TEST(BatcherTest, SingleRequestLaunchesAtTheDelayDeadline) {
  const hw::CostModel cost;
  const InferenceEngine engine = make_engine(cost);
  const double f1 = engine.batch_time(1);
  const ServeResult res = simulate_serving(
      engine, {0.1}, serve_opts(4, 0.005, 10.0));
  ASSERT_EQ(res.batches.size(), 1u);
  EXPECT_EQ(res.batches[0].size, 1);
  EXPECT_DOUBLE_EQ(res.batches[0].launch_s, 0.105);
  EXPECT_DOUBLE_EQ(res.batches[0].finish_s, 0.105 + f1);
  ASSERT_EQ(res.requests.size(), 1u);
  EXPECT_TRUE(res.requests[0].admitted);
  EXPECT_NEAR(res.requests[0].latency_s(), 0.005 + f1, 1e-12);
  EXPECT_NEAR(res.requests[0].queue_s(), 0.005, 1e-12);
}

TEST(BatcherTest, FullBatchLaunchesImmediatelyPartialOnTimeout) {
  const hw::CostModel cost;
  const InferenceEngine engine = make_engine(cost);
  // Four arrivals inside the delay window fill max_batch=4 and launch at
  // the fourth arrival; the trailing two go out on the timeout.
  const std::vector<double> arrivals = {0.010, 0.011, 0.012, 0.013, 0.014,
                                        0.015};
  const ServeResult res =
      simulate_serving(engine, arrivals, serve_opts(4, 0.050, 10.0));
  ASSERT_EQ(res.batches.size(), 2u);
  EXPECT_EQ(res.batches[0].size, 4);
  EXPECT_DOUBLE_EQ(res.batches[0].launch_s, 0.013);  // filled, no waiting
  EXPECT_EQ(res.batches[1].size, 2);
  // The second batch forms on the timeout (oldest 0.014 + 0.050) but the
  // server is still busy with the first — it launches at that finish.
  EXPECT_GT(res.batches[0].finish_s, 0.014 + 0.050);
  EXPECT_DOUBLE_EQ(res.batches[1].launch_s, res.batches[0].finish_s);
  EXPECT_DOUBLE_EQ(res.mean_batch_size, 3.0);
}

TEST(BatcherTest, ZeroDelayDegeneratesToUnbatchedFifo) {
  const hw::CostModel cost;
  const InferenceEngine engine = make_engine(cost);
  ArrivalSpec spec;
  spec.rate = 100.0;
  spec.duration_s = 0.5;
  const std::vector<double> arrivals = generate_arrivals(spec);
  const ServeResult res =
      simulate_serving(engine, arrivals, serve_opts(4, 0.0, 100.0));
  ASSERT_FALSE(res.batches.empty());
  for (const BatchRecord& b : res.batches) EXPECT_EQ(b.size, 1);
  EXPECT_DOUBLE_EQ(res.mean_batch_size, 1.0);
}

TEST(BatcherTest, BatchesChainOnTheBusyServerAndStayConsistent) {
  const hw::CostModel cost;
  const InferenceEngine engine = make_engine(cost);
  ArrivalSpec spec;
  spec.rate = 300.0;  // far beyond capacity: batches queue back-to-back
  spec.duration_s = 0.5;
  const std::vector<double> arrivals = generate_arrivals(spec);
  const ServeResult res =
      simulate_serving(engine, arrivals, serve_opts(4, 0.01, 100.0));
  int total = 0;
  for (std::size_t i = 0; i < res.batches.size(); ++i) {
    const BatchRecord& b = res.batches[i];
    EXPECT_GE(b.size, 1);
    EXPECT_LE(b.size, 4);
    EXPECT_DOUBLE_EQ(b.forward_s, engine.batch_time(b.size));
    EXPECT_DOUBLE_EQ(b.finish_s, b.launch_s + b.forward_s);
    EXPECT_GE(b.launch_s, b.first_arrival_s);
    if (i > 0) {
      EXPECT_GE(b.launch_s, res.batches[i - 1].finish_s);
    }
    total += b.size;
  }
  EXPECT_EQ(total, res.admitted);
  // FIFO: requests land in arrival order, so batch ids never decrease.
  int prev_batch = -1;
  for (const RequestRecord& r : res.requests) {
    if (!r.admitted) continue;
    EXPECT_GE(r.batch, prev_batch);
    prev_batch = r.batch;
  }
}

TEST(AdmissionTest, AdmittedRequestsNeverMissTheSloUnderOverload) {
  const hw::CostModel cost;
  const InferenceEngine engine = make_engine(cost);
  const double slo = 4.0 * engine.batch_time(4);
  ArrivalSpec spec;
  spec.rate = 400.0;
  spec.duration_s = 1.0;
  spec.seed = 3;
  const std::vector<double> arrivals = generate_arrivals(spec);
  const ServeResult res =
      simulate_serving(engine, arrivals, serve_opts(4, 0.02, slo));
  EXPECT_GT(res.rejected, 0);  // overload must shed load
  EXPECT_GT(res.admitted, 0);
  for (const RequestRecord& r : res.requests) {
    if (!r.admitted) continue;
    EXPECT_LE(r.latency_s(), slo);
    // The admission bound is conservative: actual completion can never
    // exceed what the predicate foresaw.
    EXPECT_LE(r.finish_s, r.predicted_s);
  }
  EXPECT_LE(res.latency.p99_s, slo);
  EXPECT_LE(res.latency.max_s, slo);
}

TEST(AdmissionTest, DisabledAdmissionAdmitsEverythingAndBlowsTheSlo) {
  const hw::CostModel cost;
  const InferenceEngine engine = make_engine(cost);
  const double slo = 4.0 * engine.batch_time(4);
  ArrivalSpec spec;
  spec.rate = 400.0;
  spec.duration_s = 1.0;
  spec.seed = 3;
  const std::vector<double> arrivals = generate_arrivals(spec);
  const ServeResult res = simulate_serving(
      engine, arrivals, serve_opts(4, 0.02, slo, /*admission=*/false));
  EXPECT_EQ(res.rejected, 0);
  EXPECT_EQ(res.admitted, res.offered);
  // Open-loop overload without shedding: the queue grows without bound and
  // the tail blows through the SLO — the behavior admission prevents.
  EXPECT_GT(res.latency.max_s, slo);
}

TEST(BatcherTest, DynamicBatchingBeatsUnbatchedThroughputUnderOverload) {
  const hw::CostModel cost;
  const InferenceEngine engine = make_engine(cost);
  const double slo = 3.0 * engine.batch_time(4) + engine.batch_time(1);
  ArrivalSpec spec;
  spec.rate = 8.0 / engine.batch_time(1);  // 8x unbatched capacity
  spec.duration_s = 50.0 * engine.batch_time(1);
  const std::vector<double> arrivals = generate_arrivals(spec);
  const ServeResult dyn = simulate_serving(
      engine, arrivals, serve_opts(4, engine.batch_time(1), slo));
  const ServeResult single =
      simulate_serving(engine, arrivals, serve_opts(1, 0.0, slo));
  EXPECT_GT(dyn.throughput_rps, single.throughput_rps);
  EXPECT_GT(dyn.mean_batch_size, 1.5);
}

TEST(BatcherTest, ResultIsPureAndTracingDoesNotPerturbIt) {
  const hw::CostModel cost;
  const InferenceEngine engine = make_engine(cost);
  ArrivalSpec spec;
  spec.rate = 200.0;
  spec.duration_s = 0.5;
  const std::vector<double> arrivals = generate_arrivals(spec);
  const ServeOptions opts = serve_opts(4, 0.01, 1.0);

  const ServeResult a = simulate_serving(engine, arrivals, opts);
  const ServeResult b = simulate_serving(engine, arrivals, opts);
  trace::Tracer tracer;
  ServeOptions traced = opts;
  traced.tracer = &tracer;
  const ServeResult c = simulate_serving(engine, arrivals, traced);

  for (const ServeResult* r : {&b, &c}) {
    EXPECT_EQ(a.admitted, r->admitted);
    EXPECT_EQ(a.rejected, r->rejected);
    EXPECT_EQ(a.throughput_rps, r->throughput_rps);   // bitwise
    EXPECT_EQ(a.latency.p99_s, r->latency.p99_s);     // bitwise
    EXPECT_EQ(a.utilization, r->utilization);         // bitwise
  }
}

TEST(BatcherTest, TraceCarriesTheFullServingTimeline) {
  const hw::CostModel cost;
  const InferenceEngine engine = make_engine(cost);
  ArrivalSpec spec;
  spec.rate = 300.0;
  spec.duration_s = 0.5;
  const std::vector<double> arrivals = generate_arrivals(spec);
  trace::Tracer tracer;
  ServeOptions opts = serve_opts(4, 0.01, 0.6);
  opts.tracer = &tracer;
  const ServeResult res = simulate_serving(engine, arrivals, opts);
  ASSERT_GT(res.rejected, 0);

  EXPECT_EQ(tracer.open_spans(), 0u);  // balanced: exportable
  // One sequential forward span per batch on the server track.
  // One async queue interval per admitted request, one formation interval
  // per batch; intervals respect begin <= end. One reject instant per shed
  // request.
  int forwards = 0, queues = 0, formations = 0, rejects = 0;
  for (const auto& e : tracer.log().events()) {
    switch (e.kind) {
      case sim::EventKind::kSpan:
        forwards += e.category == "serve.forward";
        break;
      case sim::EventKind::kAsync:
        EXPECT_LE(e.begin_s, e.end_s);
        queues += e.category == "serve.queue";
        formations += e.category == "serve.batch";
        break;
      case sim::EventKind::kInstant:
        rejects += e.category == "serve.reject";
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(forwards, static_cast<int>(res.batches.size()));
  EXPECT_EQ(queues, res.admitted);
  EXPECT_EQ(formations, static_cast<int>(res.batches.size()));
  EXPECT_EQ(rejects, res.rejected);
}

TEST(BatcherTest, InputValidation) {
  const hw::CostModel cost;
  const InferenceEngine engine = make_engine(cost);
  // max_batch beyond the engine's table, non-increasing arrivals.
  EXPECT_THROW(simulate_serving(engine, {0.1}, serve_opts(5, 0.01, 1.0)),
               base::CheckError);
  EXPECT_THROW(simulate_serving(engine, {0.2, 0.2}, serve_opts(4, 0.01, 1.0)),
               base::CheckError);
  // Empty stream: a well-formed all-zero result.
  const ServeResult res = simulate_serving(engine, {}, serve_opts(4, 0.01, 1.0));
  EXPECT_EQ(res.offered, 0);
  EXPECT_EQ(res.batches.size(), 0u);
  EXPECT_DOUBLE_EQ(res.throughput_rps, 0.0);
}

}  // namespace
}  // namespace swcaffe::serve
