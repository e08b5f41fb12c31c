// swsched: every timeline diagnostic fires on a deliberately broken
// schedule, stays silent on the schedules the stack actually ships
// (overlapped all-reduce at every bucket count, the serving simulator's own
// records, the default retry ladder, composed RHD collectives), and the
// analysis itself is pure — same graph, byte-identical report.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <algorithm>
#include <utility>
#include <vector>

#include "base/log.h"
#include "check/plan_model.h"
#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "check/timeline_io.h"
#include "collective_fixtures.h"
#include "core/models.h"
#include "hw/cost_model.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "topo/collective.h"
#include "topo/overlap.h"
#include "trace/json.h"

namespace swcaffe::check {
namespace {

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// A hand-laid two-bucket overlap schedule over two layers (bwd 1 s each,
/// forward 1 s, compute end at t = 3). Bucket 0 carries layer 1 (ready at
/// t = 2), bucket 1 carries layer 0 (ready at t = 3, the compute end).
topo::OverlapTimeline two_bucket_timeline() {
  topo::OverlapTimeline tl;
  topo::BucketTiming b0;
  b0.bucket = {1, 1, 60};
  b0.ready_s = 2.0;
  b0.start_s = 2.0;
  b0.end_s = 2.8;
  topo::BucketTiming b1;
  b1.bucket = {0, 0, 40};
  b1.ready_s = 3.0;
  b1.start_s = 3.0;
  b1.end_s = 3.7;
  tl.buckets = {b0, b1};
  tl.compute_s = 3.0;
  tl.finish_s = 3.7;
  return tl;
}

const std::vector<double> kTwoLayerBwd = {1.0, 1.0};

/// One admitted request riding one batch, with every field consistent.
void one_request_one_batch(double arrival_s, double launch_s, double finish_s,
                           std::vector<serve::RequestRecord>* requests,
                           std::vector<serve::BatchRecord>* batches) {
  serve::RequestRecord r;
  r.id = 0;
  r.arrival_s = arrival_s;
  r.admitted = true;
  r.batch = 0;
  r.launch_s = launch_s;
  r.finish_s = finish_s;
  serve::BatchRecord b;
  b.id = 0;
  b.size = 1;
  b.first_arrival_s = arrival_s;
  b.launch_s = launch_s;
  b.finish_s = finish_s;
  b.forward_s = finish_s - launch_s;
  requests->push_back(r);
  batches->push_back(b);
}

// ---------------------------------------------------------------------------
// Seeded-broken schedules: each diagnostic fires
// ---------------------------------------------------------------------------

TEST(TimelineBroken, CollectiveBeforeBackwardSliceFiresCausality) {
  // Bucket 0 needs layer 1's backward (done at t = 2) but starts at 1.5.
  // The producer edge is re-derived from layer indices, so the schedule's
  // own (lying) ready_s cannot hide the violation.
  topo::OverlapTimeline tl = two_bucket_timeline();
  tl.buckets[0].ready_s = 1.5;
  tl.buckets[0].start_s = 1.5;
  const Report report = verify_timeline(
      timeline_from_overlap("early-ar", kTwoLayerBwd, 3.0, tl));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineCausality));
}

TEST(TimelineBroken, DoubleBookedNetworkFiresOverlap) {
  // Bucket 1 starts at 3.5 — legal causally (its slice is done at 3.0) but
  // inside bucket 0's stretched collective [2, 4] on the exclusive link.
  topo::OverlapTimeline tl = two_bucket_timeline();
  tl.buckets[0].end_s = 4.0;
  tl.buckets[1].start_s = 3.5;
  tl.buckets[1].end_s = 4.5;
  tl.finish_s = 4.5;
  const Report report = verify_timeline(
      timeline_from_overlap("double-booked", kTwoLayerBwd, 3.0, tl));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineOverlap));
  EXPECT_FALSE(report.has(Code::kTimelineCausality));
}

TEST(TimelineBroken, ByteLosingBucketSplitFiresBytes) {
  // The buckets move 100 B but the packed-gradient ledger expects 128.
  const Report report = verify_timeline(timeline_from_overlap(
      "byte-loss", kTwoLayerBwd, 3.0, two_bucket_timeline(), 128));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineBytes));
  // With the matching ledger the same schedule conserves.
  EXPECT_TRUE(verify_timeline(timeline_from_overlap(
                  "byte-ok", kTwoLayerBwd, 3.0, two_bucket_timeline(), 100))
                  .empty());
}

TEST(TimelineBroken, RetryLadderPastTimeoutWarnsDeadline) {
  // Six attempts of 0.1 s plus geometric backoff cannot fit a 0.2 s
  // escalation timeout. Dead code, not corruption: a warning, and the
  // report still counts as ok().
  RetryPlan plan;
  plan.name = "slow-ladder";
  plan.max_attempts = 6;
  plan.round_time_s = 0.1;
  plan.backoff_base_s = 0.01;
  plan.timeout_s = 0.2;
  const Report report = verify_timeline(timeline_from_retry(plan, 2));
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.warning_count(), 0);
  EXPECT_TRUE(report.has(Code::kTimelineDeadline));
}

TEST(TimelineBroken, ServingSloMissFiresDeadline) {
  // Finish at t = 10 against an SLO of 1 s after a t = 0 arrival.
  std::vector<serve::RequestRecord> requests;
  std::vector<serve::BatchRecord> batches;
  one_request_one_batch(0.0, 0.5, 10.0, &requests, &batches);
  ServingContract contract;
  contract.slo_s = 1.0;
  contract.max_delay_s = 0.5;
  contract.max_batch = 1;
  contract.max_batch_forward_s = 1.0;
  const Report report = verify_timeline(
      timeline_from_serving("slo-miss", requests, batches, contract));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineDeadline));
}

TEST(TimelineBroken, ServingAdmissionBoundViolationFiresDeadline) {
  // The SLO itself is generous (100 s), but the re-derived admission bound
  // for an arrival at t = 0 with an empty queue is
  // max_delay + f(max_batch) = 1.5 s — a batch that idles until t = 5
  // finished later than any sound batcher could have promised.
  std::vector<serve::RequestRecord> requests;
  std::vector<serve::BatchRecord> batches;
  one_request_one_batch(0.0, 5.0, 6.0, &requests, &batches);
  ServingContract contract;
  contract.slo_s = 100.0;
  contract.max_delay_s = 0.5;
  contract.max_batch = 1;
  contract.max_batch_forward_s = 1.0;
  const Report report = verify_timeline(
      timeline_from_serving("lazy-batcher", requests, batches, contract));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineDeadline));
}

TEST(TimelineBroken, CrossPhaseCommCycleFiresCycle) {
  // Phase 0: both ranks post a receive. Phase 1: both ranks send. Each
  // phase alone is cycle-free (no matched pair completes a loop), but the
  // composition matches rank 1's send to rank 0's earlier receive and vice
  // versa: recv0 -> send0 -> recv1 -> send1 -> recv0. This is exactly the
  // deadlock the per-plan FIFO rule cannot see.
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
  const Report report =
      verify_timeline(timeline_from_comm("cross-phase", {recvs, sends}));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineCycle));
  // Reversed composition (send, then receive) is the sound ordering.
  EXPECT_TRUE(
      verify_timeline(timeline_from_comm("sound", {sends, recvs})).ok());
}

TEST(TimelineBroken, MixedMeshCompositionIsRefused) {
  // Mesh and cluster schedules match sends on different buses; no single
  // composition of them is defined.
  EXPECT_THROW(
      timeline_from_comm(
          "mixed", {mesh_gemm_schedule(hw::HwParams{}),
                    comm_schedule(topo::rhd_schedule(4, 4), "allreduce.rhd")}),
      base::CheckError);
}

TEST(TimelineBroken, UnorderedWritesFireRace) {
  TimelineGraph g;
  g.name = "racy";
  const int a0 = g.add_actor("worker0");
  const int a1 = g.add_actor("worker1");
  TimelineEvent w0;
  w0.name = "store A";
  w0.actor = a0;
  w0.accesses.push_back({"params", true});
  TimelineEvent w1;
  w1.name = "store B";
  w1.actor = a1;
  w1.accesses.push_back({"params", true});
  const int e0 = g.add_event(w0);
  g.add_event(w1);
  const Report racy = verify_timeline(g);
  EXPECT_FALSE(racy.ok());
  EXPECT_TRUE(racy.has(Code::kTimelineRace));

  // One synchronization edge orders the writes and silences the pass.
  TimelineGraph ordered = g;
  ordered.add_edge(e0, 1, "handoff");
  EXPECT_TRUE(verify_timeline(ordered).ok());
}

TEST(TimelineBroken, MalformedGraphIsGeomInvalid) {
  TimelineGraph g;
  g.name = "malformed";
  g.add_actor("lane");
  TimelineEvent e;
  e.name = "backwards";
  e.start_s = 2.0;
  e.end_s = 1.0;  // end < start
  g.add_event(e);
  const Report report = verify_timeline(g);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kGeomInvalid));
}

// ---------------------------------------------------------------------------
// Shipped schedules stay silent
// ---------------------------------------------------------------------------

TEST(TimelineSilent, OverlapSilentAcrossAllBucketCounts) {
  // A VGG-ish tail-heavy layer mix under the alpha + bytes/bw cost model:
  // the real pipeline (make_buckets -> schedule_overlap -> extractor) must
  // verify silent for every shipped bucket count.
  const std::vector<std::int64_t> layer_bytes = {
      9'000'000, 2'400'000, 0, 590'000, 37'000'000, 0, 16'800'000, 4'100'000};
  std::vector<double> bwd(layer_bytes.size());
  std::int64_t total = 0;
  for (std::size_t i = 0; i < layer_bytes.size(); ++i) {
    bwd[i] = 0.8e-3 + static_cast<double>(i % 3) * 0.4e-3;
    total += layer_bytes[i];
  }
  double compute = 0.0;
  for (double b : bwd) compute += b;
  compute *= 2.0;  // forward roughly mirrors backward
  const auto cost = [](std::int64_t bytes) {
    topo::CostBreakdown c;
    c.seconds = 1e-6 + static_cast<double>(bytes) / 12e9;
    c.alpha_terms = 1;
    return c;
  };
  for (int k = 1; k <= 8; ++k) {
    const std::vector<topo::GradientBucket> buckets =
        topo::make_buckets(layer_bytes, k);
    const topo::OverlapTimeline tl =
        topo::schedule_overlap(buckets, bwd, compute, cost);
    const Report report = verify_timeline(timeline_from_overlap(
        "overlap-k" + std::to_string(k), bwd, compute, tl, total));
    EXPECT_TRUE(report.empty()) << "k=" << k << ": " << report.summary();
  }
}

TEST(TimelineSilent, ServingSimulatorRecordsVerifySilent) {
  // The batcher already self-verifies (a failure would throw from
  // simulate_serving); re-extracting here additionally pins that the
  // records stay silent under a saturating deterministic load.
  const hw::CostModel cost;
  serve::EngineOptions eopts;
  eopts.max_batch = 4;
  const serve::InferenceEngine engine(
      cost, "alexnet-small",
      [](int b) { return core::alexnet_bn(b, 10, 67, false); }, eopts);
  const double f1 = engine.batch_time(1);
  std::vector<double> arrivals;
  for (int i = 0; i < 40; ++i) {
    arrivals.push_back(static_cast<double>(i) * 0.6 * f1);
  }
  serve::ServeOptions opts;
  opts.batcher.max_batch = 4;
  opts.batcher.max_delay_s = 0.5 * f1;
  opts.admission.enabled = true;
  opts.admission.slo_s = 20.0 * f1;
  const serve::ServeResult res = simulate_serving(engine, arrivals, opts);
  EXPECT_GT(res.admitted, 0);
  ServingContract contract;
  contract.slo_s = opts.admission.slo_s;
  contract.max_delay_s = opts.batcher.max_delay_s;
  contract.max_batch = opts.batcher.max_batch;
  contract.max_batch_forward_s = engine.batch_time(4);
  const Report report = verify_timeline(
      timeline_from_serving("serve", res.requests, res.batches, contract));
  EXPECT_TRUE(report.empty()) << report.summary();
}

TEST(TimelineSilent, DefaultRetryLadderVerifiesSilent) {
  // swfault's default policy: 6 attempts, 20 us backoff base, 0.5 s
  // escalation timeout — the ladder fits with slack for eager-sized rounds.
  RetryPlan plan;
  plan.name = "defaults";
  plan.max_attempts = 6;
  plan.backoff_base_s = 20e-6;
  plan.timeout_s = 0.5;
  plan.round_bytes = 2048;
  plan.round_time_s = 1.5e-6 + 2048.0 / 12e9;
  EXPECT_TRUE(verify_timeline(timeline_from_retry(plan, 3)).empty());
}

TEST(TimelineSilent, ComposedRhdPhasesVerifySilent) {
  // Four per-bucket RHD collectives run back to back — the composition the
  // bucketed trainer actually executes — must stay cycle- and race-free.
  const std::vector<CommSchedule> phases(
      4, comm_schedule(topo::rhd_schedule(8, 8), "allreduce.rhd"));
  EXPECT_TRUE(verify_timeline(timeline_from_comm("rhd-x4", phases)).ok());
}

TEST(TimelineSilent, ComposedHierarchicalPhasesVerifySilent) {
  // The three-phase hierarchical decomposition (supernode-local
  // reduce-scatter -> inter-supernode RHD -> local all-gather) composed
  // through timeline_from_comm: the phase ordering must be race- and
  // cycle-free for engaging geometries, clean and ragged alike.
  for (auto [nodes, q] : {std::pair{16, 4}, {24, 8}, {1024, 256}}) {
    const std::vector<CommSchedule> phases =
        fixtures::hierarchical_phases(nodes, q);
    ASSERT_EQ(phases.size(), 3u) << nodes << "/" << q;
    const Report report =
        verify_timeline(timeline_from_comm("hier-comm", phases));
    EXPECT_TRUE(report.ok()) << nodes << "/" << q << ": " << report.summary();
  }
}

TEST(TimelineBroken, ReversedHierarchicalPhaseOrderFiresCycle) {
  // Reversing the op order inside the inter-supernode phase turns every
  // send-then-receive exchange into receive-then-send on BOTH partners of
  // each RHD step: mutual recv-before-send is a happens-before cycle the
  // composed timeline must reject (each op alone is still well-formed).
  std::vector<CommSchedule> phases = fixtures::hierarchical_phases(16, 4);
  std::reverse(phases[1].ops.begin(), phases[1].ops.end());
  const Report report =
      verify_timeline(timeline_from_comm("hier-reversed", phases));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineCycle)) << report.summary();
}

TEST(TimelineSilent, ErrorFeedbackResidualCarryVerifiesSilent) {
  // Three compressed iterations over two buckets: residual writes are
  // ordered by the explicit per-bucket carry edges and the wire ledger
  // conserves iters * sum(bucket bytes).
  const Report report = verify_timeline(
      timeline_from_ef("ef-carry", 3, {1 << 16, 3 << 14}));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(TimelineBroken, StrippedResidualCarryEdgesFireRace) {
  // Without the carry edges, iteration t and t+1 both write residual<b>
  // with no happens-before: exactly the race a trainer that parallelized
  // iterations over the shared residual buffers would introduce.
  TimelineGraph g = timeline_from_ef("ef-stripped", 3, {1 << 16, 3 << 14});
  std::vector<TimelineEdge> kept;
  for (const TimelineEdge& e : g.edges) {
    if (e.why != "residual carry") kept.push_back(e);
  }
  ASSERT_LT(kept.size(), g.edges.size());  // the extractor did emit them
  g.edges = std::move(kept);
  const Report report = verify_timeline(g);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineRace)) << report.summary();
}

// ---------------------------------------------------------------------------
// Purity and JSON round-trip
// ---------------------------------------------------------------------------

TEST(TimelineInfra, AnalysisIsPureByteIdentical) {
  topo::OverlapTimeline tl = two_bucket_timeline();
  tl.buckets[0].start_s = 1.0;  // broken: diagnostics exercise the printer
  const TimelineGraph g =
      timeline_from_overlap("pure", kTwoLayerBwd, 3.0, tl, 77);
  std::ostringstream first, second;
  verify_timeline(g).print(first);
  verify_timeline(g).print(second);
  EXPECT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(timeline_to_json(g), timeline_to_json(g));
}

TEST(TimelineInfra, JsonRoundTripIsByteIdentical) {
  std::vector<TimelineGraph> graphs;
  graphs.push_back(timeline_from_overlap("rt-overlap", kTwoLayerBwd, 3.0,
                                         two_bucket_timeline(), 100));
  RetryPlan plan;
  plan.name = "rt-retry";
  plan.max_attempts = 3;
  plan.backoff_base_s = 1e-5;
  plan.round_time_s = 1e-4;
  plan.timeout_s = 0.25;
  graphs.push_back(timeline_from_retry(plan, 2, 0.125));
  const std::string exported = timelines_to_json(graphs);
  std::vector<TimelineGraph> reloaded;
  std::string error;
  ASSERT_TRUE(timelines_from_json(exported, &reloaded, &error)) << error;
  ASSERT_EQ(reloaded.size(), graphs.size());
  EXPECT_EQ(timelines_to_json(reloaded), exported);
  // The reloaded graphs carry the same verdicts as the originals.
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    std::ostringstream a, b;
    verify_timeline(graphs[i]).print(a);
    verify_timeline(reloaded[i]).print(b);
    EXPECT_EQ(a.str(), b.str());
  }
}

TEST(TimelineInfra, JsonParseFailureReportsOffset) {
  TimelineGraph g;
  std::string error;
  EXPECT_FALSE(timeline_from_json("{\"name\": }", &g, &error));
  EXPECT_NE(error.find("offset"), std::string::npos);
  EXPECT_FALSE(timeline_from_json("[1, 2", &g, &error));
  std::vector<TimelineGraph> graphs;
  EXPECT_FALSE(timelines_from_json("nope", &graphs, &error));
}

}  // namespace
}  // namespace swcaffe::check
