// swsim: discrete-event engine, busy-interval resource, shared event
// vocabulary, timing-only SSGD fast path and its bit-identity to the
// functional trainer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "base/log.h"
#include "base/rng.h"
#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "core/models.h"
#include "fixtures.h"
#include "hw/cost_model.h"
#include "hw/dma.h"
#include "hw/rlc.h"
#include "parallel/ssgd.h"
#include "parallel/sweep.h"
#include "sim/engine.h"
#include "sim/event.h"
#include "sim/resource.h"
#include "sim/thread_pool.h"
#include "trace/tracer.h"

namespace swcaffe::sim {
namespace {

// ---------------------------------------------------------------------------
// Resource (busy intervals) — pins migrated verbatim from the old
// topo::BusyResource tests when the primitive was hoisted into swsim.
// ---------------------------------------------------------------------------

TEST(ResourceTest, ZeroDurationItemsReserveNothing) {
  // A zero-duration item starts where it lands but moves neither the busy
  // frontier nor the utilization accumulator; later work is unaffected.
  Resource busy;
  EXPECT_EQ(busy.serve(1.0, 0.0), 1.0);
  EXPECT_EQ(busy.busy_until(), 1.0);
  EXPECT_EQ(busy.busy_s(), 0.0);
  EXPECT_EQ(busy.serve(0.5, 2.0), 1.0);  // queues behind the point item
  EXPECT_EQ(busy.busy_until(), 3.0);
  EXPECT_EQ(busy.busy_s(), 2.0);
}

TEST(ResourceTest, ExactFrontierArrivalStartsImmediately) {
  // An item ready exactly at the frontier neither waits nor overlaps: the
  // tie resolves to back-to-back service with zero idle gap.
  Resource busy;
  EXPECT_EQ(busy.serve(0.0, 1.5), 0.0);
  EXPECT_EQ(busy.serve(1.5, 0.5), 1.5);
  EXPECT_EQ(busy.busy_until(), 2.0);
  EXPECT_EQ(busy.busy_s(), 2.0);
}

TEST(ResourceTest, NonMonotoneReadyTimesStillSerialize) {
  // Ready times may arrive out of order (bucket k+1 of a skewed split can
  // be ready before bucket k is served). Service stays FIFO in call order:
  // an early-ready item queues behind the frontier, and a late-ready item
  // opens an idle gap rather than sliding in front of prior work.
  Resource busy;
  EXPECT_EQ(busy.serve(5.0, 1.0), 5.0);
  EXPECT_EQ(busy.serve(2.0, 1.0), 6.0);  // ready long ago: queues, no rewind
  EXPECT_EQ(busy.serve(10.0, 1.0), 10.0);  // late: idle gap [7, 10]
  EXPECT_EQ(busy.busy_until(), 11.0);
  EXPECT_EQ(busy.busy_s(), 3.0);
}

TEST(ResourceTest, NegativeDurationIsRejected) {
  // A negative duration would rewind the frontier and let the next item
  // overlap already-granted service; the contract forbids it outright.
  Resource busy;
  busy.serve(0.0, 1.0);
  EXPECT_THROW(busy.serve(0.0, -0.5), base::CheckError);
  EXPECT_EQ(busy.busy_until(), 1.0);  // the failed call left no trace
}

// ---------------------------------------------------------------------------
// Event vocabulary
// ---------------------------------------------------------------------------

TEST(EventLogTest, AssignsSeqInRecordOrder) {
  EventLog log;
  EXPECT_TRUE(log.empty());
  log.charge(0, 1.0, 0.5, 100, "a");
  log.charge(1, 0.0, 0.25, 200, "b");
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0].seq, 0u);
  EXPECT_EQ(log.events()[1].seq, 1u);
  EXPECT_EQ(log.events()[0].kind, EventKind::kCharge);
  EXPECT_EQ(log.events()[1].bytes, 200);
  log.clear();
  EXPECT_TRUE(log.empty());
  log.charge(0, 0.0, 0.0, 0, "c");
  EXPECT_EQ(log.events()[0].seq, 0u);  // seq restarts after clear
}

TEST(EventLogTest, NegativeDurationIsRejected) {
  EventLog log;
  Event e;
  e.end_s = -1e-9;  // ends before it begins
  EXPECT_THROW(log.record(e), base::CheckError);
  EXPECT_TRUE(log.empty());
}

TEST(EventOrderTest, TotalOrderIsTimeActorSeq) {
  // The documented total order of the shared vocabulary, pinned: earlier
  // time first; at equal times the lower actor id; at equal (time, actor)
  // the earlier-recorded event.
  Event early;
  early.begin_s = 0.5;
  early.actor = 7;
  early.seq = 9;
  Event low_actor;
  low_actor.begin_s = 1.0;
  low_actor.actor = 0;
  low_actor.seq = 5;
  Event high_actor;
  high_actor.begin_s = 1.0;
  high_actor.actor = 3;
  high_actor.seq = 1;
  Event high_actor_later;
  high_actor_later.begin_s = 1.0;
  high_actor_later.actor = 3;
  high_actor_later.seq = 2;
  EXPECT_TRUE(event_before(early, low_actor));       // time wins
  EXPECT_TRUE(event_before(low_actor, high_actor));  // then actor, not seq
  EXPECT_TRUE(event_before(high_actor, high_actor_later));  // then seq
  EXPECT_FALSE(event_before(high_actor_later, high_actor));
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

TEST(EngineTest, EmptyRunIsANoOp) {
  Engine e;
  e.run();
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_EQ(e.events_processed(), 0);
  EXPECT_TRUE(e.log().empty());
}

TEST(EngineTest, SingleEventFiresAtItsTime) {
  Engine e;
  const int a = e.add_actor("a");
  double fired_at = -1.0;
  e.post(2.5, a, "only", [&](Engine& eng) { fired_at = eng.now(); });
  e.run();
  EXPECT_EQ(fired_at, 2.5);
  EXPECT_EQ(e.now(), 2.5);
  EXPECT_EQ(e.events_processed(), 1);
}

TEST(EngineTest, SimultaneousEventsFireInDocumentedOrder) {
  // Four events, three at one instant, posted in scrambled order: the
  // engine must fire them in the vocabulary's (time, actor, seq) order —
  // NOT posting order across actors, and NOT heap-pop luck.
  Engine e;
  const int a0 = e.add_actor("a0");
  const int a1 = e.add_actor("a1");
  std::vector<std::string> fired;
  e.post(1.0, a1, "x", [&](Engine&) { fired.push_back("t1.a1.first"); });
  e.post(1.0, a0, "x", [&](Engine&) { fired.push_back("t1.a0"); });
  e.post(0.5, a1, "x", [&](Engine&) { fired.push_back("t0.5.a1"); });
  e.post(1.0, a1, "x", [&](Engine&) { fired.push_back("t1.a1.second"); });
  e.run();
  const std::vector<std::string> want = {"t0.5.a1", "t1.a0", "t1.a1.first",
                                         "t1.a1.second"};
  EXPECT_EQ(fired, want);
}

TEST(EngineTest, CancelledEventNeverFires) {
  Engine e;
  const int a = e.add_actor("a");
  bool fired = false;
  const std::uint64_t id =
      e.post(1.0, a, "doomed", [&](Engine&) { fired = true; });
  int late = 0;
  e.post(2.0, a, "after", [&](Engine&) { ++late; });
  e.cancel(id);
  e.cancel(id);     // double-cancel is a no-op
  e.cancel(12345);  // unknown id is a no-op
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(late, 1);
  // A cancelled event is skipped, not processed.
  EXPECT_EQ(e.events_processed(), 1);
}

TEST(EngineTest, PostingIntoThePastThrows) {
  {
    Engine e;
    const int a = e.add_actor("a");
    EXPECT_THROW(e.post(-0.1, a, "past", [](Engine&) {}), base::CheckError);
  }
  {
    Engine e;
    const int a = e.add_actor("a");
    e.post(1.0, a, "go", [a](Engine& eng) {
      eng.post(0.5, a, "past", [](Engine&) {});  // now = 1.0: time travel
    });
    EXPECT_THROW(e.run(), base::CheckError);
  }
}

TEST(EngineTest, HandlerMayPostFollowUpEvents) {
  Engine e;
  const int a = e.add_actor("a");
  std::vector<double> times;
  e.post(1.0, a, "first", [&](Engine& eng) {
    times.push_back(eng.now());
    eng.post(3.0, 0, "second", [&](Engine& eng2) {
      times.push_back(eng2.now());
    });
  });
  e.run();
  const std::vector<double> want = {1.0, 3.0};
  EXPECT_EQ(times, want);
  EXPECT_EQ(e.events_processed(), 2);
}

TEST(EngineTest, AcquireAppliesBusyIntervalsAndLogsCharges) {
  Engine e;
  const int a = e.add_actor("a");
  const int r = e.add_resource("net");
  e.post(0.0, a, "go", [&](Engine& eng) {
    EXPECT_EQ(eng.acquire(r, a, 0.5, 1.0, "c1", 100), 0.5);
    // Ready before the frontier: queues behind c1.
    EXPECT_EQ(eng.acquire(r, a, 0.0, 2.0, "c2", 200), 1.5);
  });
  e.record_span(a, 0.0, 4.0, "compute");
  e.run();
  EXPECT_EQ(e.resource(r).busy_until(), 3.5);
  EXPECT_EQ(e.resource(r).busy_s(), 3.0);
  ASSERT_EQ(e.log().events().size(), 3u);
  const Event& span = e.log().events()[0];
  EXPECT_EQ(span.kind, EventKind::kSpan);
  EXPECT_EQ(span.resource, -1);
  const Event& c1 = e.log().events()[1];
  EXPECT_EQ(c1.begin_s, 0.5);
  EXPECT_EQ(c1.end_s, 1.5);
  EXPECT_EQ(c1.resource, r);
  EXPECT_EQ(c1.bytes, 100);
  EXPECT_EQ(c1.kind, EventKind::kCharge);
  const Event& c2 = e.log().events()[2];
  EXPECT_EQ(c2.begin_s, 1.5);
  EXPECT_EQ(c2.bytes, 200);
}

// ---------------------------------------------------------------------------
// simulate_actors
// ---------------------------------------------------------------------------

TEST(SimulateActorsTest, RunsEveryBodyExactlyOnceAtAnyThreadCount) {
  for (const int threads : {1, 2, 8}) {
    for (const int count : {0, 1, 7, 32}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
      simulate_actors(count, threads, [&](int i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      });
      for (int i = 0; i < count; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "threads=" << threads << " count=" << count << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// timeline_from_events / timeline_from_sim
// ---------------------------------------------------------------------------

TEST(TimelineFromEventsTest, EngineRunVerifiesSilent) {
  Engine e;
  const int compute = e.add_actor("compute");
  const int net_actor = e.add_actor("network");
  const int net = e.add_resource("network");
  e.record_span(compute, 0.0, 2.0, "compute.fwd_bwd");
  e.post(0.5, net_actor, "b0", [&](Engine& eng) {
    eng.acquire(net, net_actor, eng.now(), 1.0, "comm.allreduce", 64);
  });
  e.post(1.0, net_actor, "b1", [&](Engine& eng) {
    eng.acquire(net, net_actor, eng.now(), 1.0, "comm.allreduce", 64);
  });
  e.run();
  const check::TimelineGraph g = check::timeline_from_sim("sim-run", e);
  EXPECT_EQ(g.actors.size(), 2u);
  ASSERT_EQ(g.resources.size(), 1u);
  EXPECT_EQ(g.resources[0].name, "network");
  ASSERT_EQ(g.events.size(), 3u);
  const check::Report report = check::verify_timeline(g);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(TimelineFromEventsTest, SeededOverlapIsCaught) {
  // Hand-build a log whose two charges double-book the exclusive resource;
  // the extracted timeline must fail verification (timeline-overlap), which
  // is what makes "extract straight from the engine" a real check and not a
  // formality.
  EventLog log;
  Event a;
  a.begin_s = 0.0;
  a.end_s = 2.0;
  a.actor = 0;
  a.resource = 0;
  a.name = "c1";
  log.record(a);
  Event b;
  b.begin_s = 1.0;  // intersects [0, 2]
  b.end_s = 3.0;
  b.actor = 0;
  b.resource = 0;
  b.name = "c2";
  log.record(b);
  const check::TimelineGraph g =
      check::timeline_from_events("seeded-overlap", {"a"}, {"net"}, log);
  const check::Report report = check::verify_timeline(g);
  EXPECT_FALSE(report.ok());
}

TEST(TimelineFromEventsTest, LaysEventsOutInDocumentedOrder) {
  // Recorded out of order (later charge first): the extractor must re-sort
  // into (time, actor, seq) so each actor's program order is its time order.
  EventLog log;
  log.charge(0, 5.0, 1.0, 0, "late");
  log.charge(0, 1.0, 1.0, 0, "early");
  const check::TimelineGraph g =
      check::timeline_from_events("order", {"a"}, {}, log);
  ASSERT_EQ(g.events.size(), 2u);
  EXPECT_EQ(g.events[0].name, "early");
  EXPECT_EQ(g.events[1].name, "late");
}

// ---------------------------------------------------------------------------
// hw charge sites: recorded once, by the tracer
// ---------------------------------------------------------------------------

TEST(CostModelEventLogTest, DmaChargesLandInTheLogOnTheElapsedClock) {
  hw::CostModel cost;
  trace::Tracer tracer;
  hw::DmaEngine dma(cost);
  std::vector<double> src(256, 1.0), dst(256, 0.0);

  // First transfer BEFORE the tracer attaches: charged but not recorded —
  // attaching a tracer is observational, never retroactive.
  dma.get(src, dst, 8);
  const double first_elapsed = dma.ledger().elapsed_s;
  EXPECT_TRUE(tracer.log().empty());

  hw::CostModel traced_cost;
  traced_cost.set_tracer(&tracer, 3);
  hw::DmaEngine dma2(traced_cost);
  dma2.get(src, dst, 8);
  dma2.put(src, dst, 8);
  const EventLog& log = tracer.log();
  ASSERT_EQ(log.events().size(), 2u);
  const Event& get = log.events()[0];
  EXPECT_EQ(get.name, "dma.get");
  EXPECT_EQ(get.category, "hw.dma");
  EXPECT_EQ(get.actor, 3);
  // A fresh tracer's track clock is the engine's elapsed clock.
  EXPECT_EQ(get.begin_s, 0.0);
  EXPECT_EQ(get.duration_s(), first_elapsed);  // same transfer, same price
  EXPECT_EQ(get.traffic.dma_get_bytes, 256 * sizeof(double));
  const Event& put = log.events()[1];
  EXPECT_EQ(put.name, "dma.put");
  EXPECT_EQ(put.traffic.dma_put_bytes, 256 * sizeof(double));
  EXPECT_EQ(put.begin_s, get.end_s);  // back to back on the ledger clock
  // The pair reconstructs the ledger exactly.
  EXPECT_EQ(put.end_s, dma2.ledger().elapsed_s);
  // And the extracted timeline of real hardware charges verifies silent.
  const check::Report report = check::verify_timeline(check::timeline_from_events(
      "dma-charges", {"cg0", "cg1", "cg2", "cg3"}, {}, log));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(CostModelEventLogTest, RlcChargesLandInTheLog) {
  hw::RlcFabric rlc{hw::HwParams{}};
  trace::Tracer tracer;
  rlc.set_tracer(&tracer, 1);
  std::vector<double> data(32, 1.0);
  rlc.row_broadcast(0, 0, data);
  rlc.send(0, 1, 0, 3, data);
  const std::vector<Event>& events = tracer.log().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "rlc.row_broadcast");
  EXPECT_EQ(events[0].category, "hw.rlc");
  EXPECT_EQ(events[0].actor, 1);
  EXPECT_EQ(events[1].name, "rlc.send");
  EXPECT_EQ(events[1].begin_s, events[0].end_s);
  EXPECT_EQ(events[1].end_s, rlc.ledger().elapsed_s);
  EXPECT_EQ(events[0].traffic.rlc_bytes + events[1].traffic.rlc_bytes,
            rlc.ledger().rlc_bytes);
  for (int c = 1; c < 8; ++c) (void)rlc.receive_row(0, c);
  (void)rlc.receive_row(0, 3);
}

}  // namespace
}  // namespace swcaffe::sim

// ---------------------------------------------------------------------------
// Timing-only SSGD fast path
// ---------------------------------------------------------------------------

namespace swcaffe::parallel {
namespace {

core::NetSpec mlp(int batch, int in_dim, int hidden, int classes) {
  core::NetSpec net;
  net.name = "mlp";
  net.inputs.push_back({"data", {batch, in_dim}});
  net.inputs.push_back({"label", {batch}});
  net.layers.push_back(core::ip_spec("fc1", "data", "h", hidden));
  net.layers.push_back(core::relu_spec("relu1", "h", "h_out"));
  net.layers.push_back(core::ip_spec("fc2", "h_out", "scores", classes));
  net.layers.push_back(
      core::softmax_loss_spec("loss", "scores", "label", "loss"));
  return net;
}

void random_batch(std::vector<float>& data, std::vector<float>& labels,
                  int batch, int dim, int classes, base::Rng& rng) {
  data.resize(static_cast<std::size_t>(batch) * dim);
  labels.resize(static_cast<std::size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    const int cls = static_cast<int>(rng.uniform_int(0, classes - 1));
    labels[static_cast<std::size_t>(b)] = static_cast<float>(cls);
    for (int i = 0; i < dim; ++i) {
      data[static_cast<std::size_t>(b * dim + i)] =
          (cls == 0 ? -0.5f : 0.5f) + rng.gaussian(0.0f, 0.3f);
    }
  }
}

void expect_same_cost(const topo::CostBreakdown& a,
                      const topo::CostBreakdown& b) {
  EXPECT_EQ(a.seconds, b.seconds);  // bitwise, not NEAR
  EXPECT_EQ(a.alpha_terms, b.alpha_terms);
  EXPECT_EQ(a.beta1_bytes, b.beta1_bytes);
  EXPECT_EQ(a.beta2_bytes, b.beta2_bytes);
  EXPECT_EQ(a.gamma_bytes, b.gamma_bytes);
}

struct TimingOnlyCase {
  AllreduceAlgo algo;
  topo::Compression compression;
  int buckets;
};

class TimingOnlyEqualityTest
    : public ::testing::TestWithParam<TimingOnlyCase> {};

TEST_P(TimingOnlyEqualityTest, PricedCommMatchesFunctionalStepBitwise) {
  // The acceptance bit-identity at trainer level: a timing-only trainer's
  // priced serial comm must equal — bit for bit — what the functional
  // trainer charges for one step() over real float gradients, for every
  // algorithm / compression / bucket combination.
  const TimingOnlyCase c = GetParam();
  SsgdOptions opt;
  opt.algo = c.algo;
  opt.compression = c.compression;
  opt.buckets = c.buckets;
  opt.supernode_size = 2;
  const int nodes = 4, sub_batch = 2, dim = 5, classes = 2;
  core::SolverSpec solver;
  solver.base_lr = 0.05f;
  const core::NetSpec spec = mlp(sub_batch, dim, 6, classes);

  SsgdTrainer functional(spec, nodes, solver, opt, 3);
  base::Rng rng(4);
  std::vector<float> data, labels;
  random_batch(data, labels, nodes * sub_batch, dim, classes, rng);
  functional.step(data, labels);

  SsgdOptions topt = opt;
  topt.timing_only = true;
  SsgdTrainer timing(spec, nodes, solver, topt, 3);
  const hw::CostModel cost;
  const TimedIteration it =
      timing.price_iteration(cost, core::describe_net_spec(spec));

  expect_same_cost(it.comm, functional.last_comm());
  ASSERT_EQ(timing.num_buckets(), functional.num_buckets());
  // price_iteration() works on the functional trainer too (both modes).
  const TimedIteration fit =
      functional.price_iteration(cost, core::describe_net_spec(spec));
  expect_same_cost(fit.comm, it.comm);
  EXPECT_EQ(fit.overlap.finish_s, it.overlap.finish_s);
  EXPECT_EQ(it.serial_s, it.comp_s + it.comm.seconds);
  if (timing.num_buckets() == 1) {
    // Degenerate contract: one bucket reproduces the serial model exactly.
    EXPECT_EQ(it.overlap.finish_s, it.serial_s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgosAndCodecs, TimingOnlyEqualityTest,
    ::testing::Values(
        TimingOnlyCase{AllreduceAlgo::kRhdRoundRobin,
                       topo::Compression::kNone, 1},
        TimingOnlyCase{AllreduceAlgo::kRhdAdjacent, topo::Compression::kNone,
                       3},
        TimingOnlyCase{AllreduceAlgo::kRing, topo::Compression::kNone, 2},
        TimingOnlyCase{AllreduceAlgo::kParamServer, topo::Compression::kNone,
                       1},
        TimingOnlyCase{AllreduceAlgo::kHierarchical,
                       topo::Compression::kNone, 2},
        TimingOnlyCase{AllreduceAlgo::kRhdRoundRobin,
                       topo::Compression::kFp16, 2},
        TimingOnlyCase{AllreduceAlgo::kHierarchical,
                       topo::Compression::kInt8, 3}));

TEST(TimingOnlyTrainerTest, FunctionalPhasesThrowAndPrototypeIsSingle) {
  SsgdOptions opt;
  opt.timing_only = true;
  opt.threads = 8;  // replica pool is pointless without replicas: not built
  const int nodes = 1024;
  const core::NetSpec spec = mlp(2, 5, 6, 2);
  SsgdTrainer trainer(spec, nodes, core::SolverSpec{}, opt, 1);
  EXPECT_EQ(trainer.num_nodes(), 1024);  // pricing spans the full cluster
  EXPECT_GT(trainer.node(0).param_count(), 0u);  // the one prototype replica

  std::vector<float> data(2 * 5 * 1024, 0.0f), labels(2 * 1024, 0.0f);
  std::vector<std::vector<float>> grads(1024);
  EXPECT_THROW(trainer.step(data, labels), base::CheckError);
  EXPECT_THROW(trainer.forward_backward_packed(data, labels, grads),
               base::CheckError);
  EXPECT_THROW(trainer.allreduce(grads), base::CheckError);
  EXPECT_THROW(trainer.apply(grads), base::CheckError);
  const std::vector<float> agg(trainer.node(0).param_count(), 0.0f);
  EXPECT_THROW(trainer.apply_aggregate(agg), base::CheckError);

  // What it is for still works — and spans the requested 1024 nodes.
  const hw::CostModel cost;
  const TimedIteration it =
      trainer.price_iteration(cost, core::describe_net_spec(spec));
  EXPECT_GT(it.comm.seconds, 0.0);
  EXPECT_GT(it.comp_s, 0.0);
}

// ---------------------------------------------------------------------------
// Sweep: bit-identity between the threaded full sweep and serial
// single-series sweeps, and across thread counts, for the full Fig. 10/11
// configurations (AlexNet / VGG-16 / ResNet-50, overlapped /
// hierarchical / compressed, 4..1024 nodes and the 40,960-node point).
// ---------------------------------------------------------------------------

void expect_same_points(const std::vector<ScalePoint>& a,
                        const std::vector<ScalePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].comp_s, b[i].comp_s) << i;
    EXPECT_EQ(a[i].comm_s, b[i].comm_s) << i;
    EXPECT_EQ(a[i].speedup, b[i].speedup) << i;
    EXPECT_EQ(a[i].comm_fraction, b[i].comm_fraction) << i;
    EXPECT_EQ(a[i].overlap_s, b[i].overlap_s) << i;
    EXPECT_EQ(a[i].exposed_comm_s, b[i].exposed_comm_s) << i;
    EXPECT_EQ(a[i].overlap_speedup, b[i].overlap_speedup) << i;
    EXPECT_EQ(a[i].buckets, b[i].buckets) << i;
  }
}

std::vector<SweepSeries> paper_sweep() {
  std::vector<SweepSeries> series;
  const std::vector<int> nodes = {4, 16, 64, 256, 1024};
  {
    SweepSeries s;
    s.label = "alexnet-overlap";
    s.descs_per_cg = fixtures::alexnet_per_cg_descs();
    s.param_bytes = fixtures::kAlexNetGradientBytes;
    s.options.algo = AllreduceAlgo::kRhdRoundRobin;
    s.options.buckets = 8;
    s.node_counts = nodes;
    series.push_back(std::move(s));
  }
  {
    SweepSeries s;
    s.label = "vgg16-serial";
    s.descs_per_cg = fixtures::vgg_per_cg_descs(16);
    s.param_bytes = fixtures::kAlexNetGradientBytes;  // VGG-scale message
    s.options.algo = AllreduceAlgo::kRhdAdjacent;
    s.node_counts = nodes;
    series.push_back(std::move(s));
  }
  {
    SweepSeries s;
    s.label = "resnet50-hier-int8";
    s.descs_per_cg = fixtures::resnet50_per_cg_descs();
    s.param_bytes = fixtures::kResNet50GradientBytes;
    s.options.algo = AllreduceAlgo::kHierarchical;
    s.options.compression = topo::Compression::kInt8;
    s.options.buckets = 8;
    s.node_counts = {4, 64, 1024, 40960};  // the full-machine point
    series.push_back(std::move(s));
  }
  return series;
}

TEST(ScalabilitySweepTest, FullSweepMatchesSingleSeriesSweepsBitwise) {
  // Batching series into one threaded sweep must not leak state across
  // series: each series re-priced on its own, serially, is bit-identical.
  const hw::CostModel cost;
  const std::vector<SweepSeries> series = paper_sweep();
  const std::vector<SweepResult> swept = scalability_sweep(cost, series, 4);
  ASSERT_EQ(swept.size(), series.size());
  for (std::size_t s = 0; s < series.size(); ++s) {
    EXPECT_EQ(swept[s].label, series[s].label);
    const std::vector<SweepResult> single =
        scalability_sweep(cost, {series[s]}, 1);
    ASSERT_EQ(single.size(), 1u);
    expect_same_points(swept[s].points, single[0].points);
  }
}

TEST(ScalabilitySweepTest, BitIdenticalAcrossThreadCounts) {
  const hw::CostModel cost;
  const std::vector<SweepSeries> series = paper_sweep();
  const std::vector<SweepResult> serial = scalability_sweep(cost, series, 1);
  for (const int threads : {2, 8}) {
    const std::vector<SweepResult> parallel =
        scalability_sweep(cost, series, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
      expect_same_points(parallel[s].points, serial[s].points);
    }
  }
}

TEST(ScalabilitySweepTest, IllegalComboStillRejected) {
  // The fast path must not out-run swcheck: int8 re-quantizes partial sums
  // on ring, which the comm rule rejects — sweep included.
  const hw::CostModel cost;
  SweepSeries s;
  s.label = "bad";
  s.descs_per_cg = fixtures::alexnet_per_cg_descs();
  s.param_bytes = fixtures::kAlexNetGradientBytes;
  s.options.algo = AllreduceAlgo::kRing;
  s.options.compression = topo::Compression::kInt8;
  s.node_counts = {4};
  EXPECT_THROW(scalability_sweep(cost, {s}, 1), base::CheckError);
}

}  // namespace
}  // namespace swcaffe::parallel
