// swsched-svc: multi-tenant cluster scheduler + elastic training service.
//
// The contracts under test are the ones the subsystem sells:
//   * the whole schedule is a pure function of (workload, policy, options) —
//     two same-input runs produce bit-identical spans and metrics;
//   * gang scheduling never double-books a node and never loses or invents
//     iterations across preemptions and elastic resizes (checked both by a
//     direct per-node interval sweep and by the swsched timeline analyzer);
//   * the overhead ledger is exact: busy == run + overhead node-seconds;
//   * each timeline diagnostic actually fires on a seeded-broken schedule —
//     an analyzer that stays silent on garbage proves nothing;
//   * elastic shrink/grow is analytically free of math changes: the
//     functional ElasticTrainer's final weights after any resize sequence
//     are bit-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/log.h"
#include "check/diagnostic.h"
#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "core/spec.h"
#include "fault/ft_ssgd.h"
#include "hw/cost_model.h"
#include "sched/cluster.h"
#include "sched/elastic.h"
#include "sched/job.h"
#include "sched/policy.h"
#include "sched/record.h"
#include "sched/scheduler.h"
#include "sched/workload.h"
#include "serve/arrival.h"
#include "topo/topology.h"

namespace swcaffe::sched {
namespace {

// --- Cluster allocation -----------------------------------------------------------

TEST(ClusterTest, AdjacentPacksLowestFreeIds) {
  Cluster c(16, 4);
  EXPECT_EQ(c.free_count(), 16);
  EXPECT_EQ(c.allocate(4, topo::Placement::kAdjacent),
            (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(c.allocate(2, topo::Placement::kAdjacent),
            (std::vector<int>{4, 5}));
  EXPECT_EQ(c.free_count(), 10);
  EXPECT_FALSE(c.is_free(0));
  EXPECT_TRUE(c.is_free(6));
}

TEST(ClusterTest, RoundRobinDealsAcrossSupernodes) {
  Cluster c(16, 4);
  // One node per supernode, in supernode order: the improved-RHD deal.
  EXPECT_EQ(c.allocate(4, topo::Placement::kRoundRobin),
            (std::vector<int>{0, 4, 8, 12}));
  // The next gang keeps dealing from each supernode's cursor.
  EXPECT_EQ(c.allocate(4, topo::Placement::kRoundRobin),
            (std::vector<int>{1, 5, 9, 13}));
}

TEST(ClusterTest, InsufficientAllocationIsEmptyAndAtomic) {
  Cluster c(8, 4);
  EXPECT_EQ(c.allocate(6, topo::Placement::kAdjacent).size(), 6u);
  // Only 2 nodes left: the request must not partially allocate.
  EXPECT_TRUE(c.allocate(3, topo::Placement::kAdjacent).empty());
  EXPECT_EQ(c.free_count(), 2);
  EXPECT_TRUE(c.allocate(3, topo::Placement::kRoundRobin).empty());
  EXPECT_EQ(c.free_count(), 2);
}

TEST(ClusterTest, ReleaseReturnsNodesAndDoubleReleaseThrows) {
  Cluster c(8, 4);
  const std::vector<int> gang = c.allocate(4, topo::Placement::kAdjacent);
  c.release(gang);
  EXPECT_EQ(c.free_count(), 8);
  EXPECT_THROW(c.release(gang), base::CheckError);
}

// --- Workload generation ----------------------------------------------------------

WorkloadSpec demo_workload_spec() {
  WorkloadSpec w;
  w.arrivals.kind = serve::ArrivalKind::kPoisson;
  w.arrivals.rate = 0.1;
  w.arrivals.duration_s = 150.0;
  w.arrivals.seed = 5;
  w.seed = 11;
  w.widths = {2, 4};
  w.min_iters = 5;
  w.max_iters = 30;
  w.tenants = 3;
  return w;
}

TEST(WorkloadTest, IsBitwiseDeterministic) {
  const std::vector<JobSpec> a = generate_workload(demo_workload_spec());
  const std::vector<JobSpec> b = generate_workload(demo_workload_spec());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].model, b[i].model);
    EXPECT_EQ(a[i].batch, b[i].batch);
    EXPECT_EQ(a[i].replicas, b[i].replicas);
    EXPECT_EQ(a[i].min_nodes, b[i].min_nodes);
    EXPECT_EQ(a[i].iters, b[i].iters);
    EXPECT_EQ(a[i].priority, b[i].priority);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].submit_s, b[i].submit_s);  // bitwise: same double
  }
}

TEST(WorkloadTest, AttributesStayInTheirPools) {
  const WorkloadSpec w = demo_workload_spec();
  const std::vector<JobSpec> jobs = generate_workload(w);
  ASSERT_FALSE(jobs.empty());
  double prev_submit = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& j = jobs[i];
    EXPECT_EQ(j.id, static_cast<int>(i));
    EXPECT_NE(std::find(w.widths.begin(), w.widths.end(), j.replicas),
              w.widths.end());
    EXPECT_EQ(j.batch, model_batch(j.model));
    EXPECT_GE(j.iters, w.min_iters);
    EXPECT_LE(j.iters, w.max_iters);
    EXPECT_GE(j.priority, 0);
    EXPECT_LT(j.priority, kJobPriorities);
    EXPECT_GE(j.tenant, 0);
    EXPECT_LT(j.tenant, w.tenants);
    // Elastic floor: half the requested width, never below one node.
    EXPECT_EQ(j.min_nodes, std::max(1, j.replicas / 2));
    EXPECT_GE(j.submit_s, prev_submit);
    prev_submit = j.submit_s;
  }
}

TEST(WorkloadTest, RigidWorkloadPinsMinNodes) {
  WorkloadSpec w = demo_workload_spec();
  w.elastic = false;
  for (const JobSpec& j : generate_workload(w)) {
    EXPECT_EQ(j.min_nodes, j.replicas);
    EXPECT_FALSE(j.elastic());
  }
}

// --- Policies ---------------------------------------------------------------------

JobSpec job_with(int id, int priority, int tenant) {
  JobSpec j;
  j.id = id;
  j.priority = priority;
  j.tenant = tenant;
  return j;
}

TEST(PolicyTest, ParsesEveryName) {
  EXPECT_EQ(parse_policy("fifo"), Policy::kFifo);
  EXPECT_EQ(parse_policy("priority"), Policy::kPriority);
  EXPECT_EQ(parse_policy("fair"), Policy::kFairShare);
  EXPECT_EQ(parse_policy("fair-share"), Policy::kFairShare);
  EXPECT_THROW(parse_policy("lottery"), base::CheckError);
  EXPECT_STREQ(policy_name(Policy::kFairShare), "fair");
}

TEST(PolicyTest, PickFollowsThePolicy) {
  const JobSpec a = job_with(0, 1, 0);
  const JobSpec b = job_with(1, 2, 1);
  const JobSpec c = job_with(2, 2, 2);
  const std::vector<const JobSpec*> pending = {&a, &b, &c};
  const std::vector<double> usage = {10.0, 5.0, 20.0};

  EXPECT_EQ(PolicyEngine(Policy::kFifo).pick(pending, usage), 0);
  // Highest priority, first submitted wins the tie.
  EXPECT_EQ(PolicyEngine(Policy::kPriority).pick(pending, usage), 1);
  // Least-served tenant (tenant 1, 5 node-seconds) goes first.
  EXPECT_EQ(PolicyEngine(Policy::kFairShare).pick(pending, usage), 1);
}

TEST(PolicyTest, MayPreemptSemantics) {
  const JobSpec low = job_with(0, 0, 0);
  const JobSpec high = job_with(1, 2, 1);
  const std::vector<double> usage = {30.0, 10.0};

  EXPECT_FALSE(PolicyEngine(Policy::kFifo).may_preempt(high, low, usage));

  const PolicyEngine prio(Policy::kPriority);
  EXPECT_TRUE(prio.may_preempt(high, low, usage));
  EXPECT_FALSE(prio.may_preempt(low, high, usage));
  EXPECT_FALSE(prio.may_preempt(high, high, usage));  // strict >

  const PolicyEngine fair(Policy::kFairShare);
  // Candidate tenant 1 (10 node-s) may evict tenant 0 (30 node-s)...
  EXPECT_TRUE(fair.may_preempt(high, low, usage));
  // ...but not the other way, and never within one tenant.
  EXPECT_FALSE(fair.may_preempt(low, high, usage));
  EXPECT_FALSE(
      fair.may_preempt(job_with(2, 0, 0), job_with(3, 0, 0), usage));
}

// --- Scheduler simulation ---------------------------------------------------------

std::vector<JobSpec> demo_jobs() {
  WorkloadSpec w = demo_workload_spec();
  w.arrivals.kind = serve::ArrivalKind::kTrace;
  w.arrivals.trace = {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5};
  return generate_workload(w);
}

SchedOptions demo_options(Policy policy) {
  SchedOptions o;
  o.cluster_nodes = 8;
  o.supernode_size = 4;
  o.policy = policy;
  o.quantum_iters = 5;
  return o;
}

constexpr Policy kAllPolicies[] = {Policy::kFifo, Policy::kPriority,
                                   Policy::kFairShare};

TEST(SchedulerTest, EveryJobFinishesAndTheLedgerIsExact) {
  const hw::CostModel cost;
  const std::vector<JobSpec> jobs = demo_jobs();
  for (const Policy policy : kAllPolicies) {
    const ScheduleResult res =
        simulate_schedule(cost, jobs, demo_options(policy));
    const SchedMetrics& m = res.metrics;
    EXPECT_EQ(m.finished, m.jobs) << policy_name(policy);
    EXPECT_EQ(m.jobs, static_cast<int>(jobs.size()));
    // Busy node-seconds are classified exactly once each: bitwise identity.
    EXPECT_EQ(m.busy_node_s, m.run_node_s + m.overhead_node_s)
        << policy_name(policy);
    EXPECT_GT(m.horizon_s, 0.0);
    EXPECT_GT(m.utilization, 0.0);
    EXPECT_LE(m.utilization, 1.0);
    for (const JobRecord& r : res.jobs) {
      EXPECT_GE(r.first_start_s, r.submit_s);
      EXPECT_GE(r.finish_s, r.first_start_s);
      // >= 1 up to the rounding drift between the quantum-by-quantum sum
      // and the one-multiply ideal.
      EXPECT_GE(r.slowdown(), 1.0 - 1e-9)
          << "job " << r.job << " finished faster than its ideal";
    }
  }
}

TEST(SchedulerTest, RunSpansConserveEveryJobsIterations) {
  const hw::CostModel cost;
  const std::vector<JobSpec> jobs = demo_jobs();
  for (const Policy policy : kAllPolicies) {
    const ScheduleResult res =
        simulate_schedule(cost, jobs, demo_options(policy));
    std::map<int, std::int64_t> retired;
    for (const JobSpan& s : res.spans) {
      if (s.kind == SpanKind::kRun) retired[s.job] += s.iters;
      EXPECT_GE(s.end_s, s.start_s);
      EXPECT_FALSE(s.nodes.empty());
    }
    for (const JobSpec& j : jobs)
      EXPECT_EQ(retired[j.id], j.iters)
          << policy_name(policy) << " lost iterations of job " << j.id;
  }
}

TEST(SchedulerTest, NoNodeIsEverDoubleBooked) {
  const hw::CostModel cost;
  const std::vector<JobSpec> jobs = demo_jobs();
  for (const Policy policy : kAllPolicies) {
    const SchedOptions opts = demo_options(policy);
    const ScheduleResult res = simulate_schedule(cost, jobs, opts);
    // Direct sweep, independent of the timeline analyzer: per node, sort
    // occupancy intervals and demand they never intersect.
    std::vector<std::vector<std::pair<double, double>>> busy(
        static_cast<std::size_t>(opts.cluster_nodes));
    for (const JobSpan& s : res.spans)
      for (const int nd : s.nodes) {
        ASSERT_GE(nd, 0);
        ASSERT_LT(nd, opts.cluster_nodes);
        busy[static_cast<std::size_t>(nd)].emplace_back(s.start_s, s.end_s);
      }
    for (int nd = 0; nd < opts.cluster_nodes; ++nd) {
      auto& iv = busy[static_cast<std::size_t>(nd)];
      std::sort(iv.begin(), iv.end());
      for (std::size_t i = 1; i < iv.size(); ++i)
        EXPECT_GE(iv[i].first, iv[i - 1].second)
            << policy_name(policy) << " double-books node " << nd;
    }
  }
}

TEST(SchedulerTest, SameInputsSameScheduleBitwise) {
  const hw::CostModel cost;
  const std::vector<JobSpec> jobs = demo_jobs();
  for (const Policy policy : kAllPolicies) {
    const ScheduleResult a =
        simulate_schedule(cost, jobs, demo_options(policy));
    const ScheduleResult b =
        simulate_schedule(cost, jobs, demo_options(policy));
    ASSERT_EQ(a.spans.size(), b.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
      EXPECT_EQ(a.spans[i].job, b.spans[i].job);
      EXPECT_EQ(a.spans[i].span, b.spans[i].span);
      EXPECT_EQ(a.spans[i].kind, b.spans[i].kind);
      EXPECT_EQ(a.spans[i].nodes, b.spans[i].nodes);
      EXPECT_EQ(a.spans[i].start_s, b.spans[i].start_s);  // bitwise
      EXPECT_EQ(a.spans[i].end_s, b.spans[i].end_s);
      EXPECT_EQ(a.spans[i].iters, b.spans[i].iters);
    }
    EXPECT_EQ(a.metrics.busy_node_s, b.metrics.busy_node_s);
    EXPECT_EQ(a.metrics.wait_p95_s, b.metrics.wait_p95_s);
    EXPECT_EQ(a.metrics.slowdown_p95, b.metrics.slowdown_p95);
    EXPECT_EQ(a.metrics.preemptions, b.metrics.preemptions);
    EXPECT_EQ(a.metrics.resizes, b.metrics.resizes);
  }
}

TEST(SchedulerTest, FifoNeverPreempts) {
  const hw::CostModel cost;
  const ScheduleResult res =
      simulate_schedule(cost, demo_jobs(), demo_options(Policy::kFifo));
  EXPECT_EQ(res.metrics.preemptions, 0);
  for (const JobRecord& r : res.jobs) EXPECT_EQ(r.preemptions, 0);
}

TEST(SchedulerTest, RigidModePinsEveryGangToItsRequestedWidth) {
  const hw::CostModel cost;
  SchedOptions opts = demo_options(Policy::kFairShare);
  opts.elastic = false;
  const std::vector<JobSpec> jobs = demo_jobs();
  const ScheduleResult res = simulate_schedule(cost, jobs, opts);
  EXPECT_EQ(res.metrics.resizes, 0);
  for (const JobRecord& r : res.jobs)
    EXPECT_EQ(r.final_width, jobs[static_cast<std::size_t>(r.job)].replicas);
}

TEST(SchedulerTest, EveryPolicysTimelineIsSilent) {
  const hw::CostModel cost;
  const std::vector<JobSpec> jobs = demo_jobs();
  for (const Policy policy : kAllPolicies) {
    const SchedOptions opts = demo_options(policy);
    const ScheduleResult res = simulate_schedule(cost, jobs, opts);
    const check::TimelineGraph g = check::timeline_from_schedule(
        std::string("sched_test ") + policy_name(policy), opts.cluster_nodes,
        res.spans, res.jobs);
    const check::Report report = check::verify_timeline(g);
    EXPECT_TRUE(report.empty())
        << policy_name(policy) << ": " << report.summary();
  }
}

// --- Seeded-broken schedules: each diagnostic must actually fire ------------------

JobSpan run_span(int job, int span, std::vector<int> nodes, double start,
                 double end, std::int64_t iters) {
  JobSpan s;
  s.job = job;
  s.job_name = "job" + std::to_string(job);
  s.span = span;
  s.kind = SpanKind::kRun;
  s.nodes = std::move(nodes);
  s.start_s = start;
  s.end_s = end;
  s.iters = iters;
  return s;
}

JobRecord finished_record(int job, std::int64_t iters, double finish) {
  JobRecord r;
  r.job = job;
  r.name = "job" + std::to_string(job);
  r.iters = iters;
  r.first_start_s = 0.0;
  r.finish_s = finish;
  return r;
}

TEST(BrokenScheduleTest, DoubleBookedNodeFiresTimelineOverlap) {
  // Node 1 belongs to both gangs for [5, 10].
  const std::vector<JobSpan> spans = {run_span(0, 0, {0, 1}, 0.0, 10.0, 5),
                                      run_span(1, 0, {1, 2}, 5.0, 15.0, 5)};
  const std::vector<JobRecord> jobs = {finished_record(0, 5, 10.0),
                                       finished_record(1, 5, 15.0)};
  const check::Report report = check::verify_timeline(
      check::timeline_from_schedule("double-booked", 4, spans, jobs));
  EXPECT_TRUE(report.has(check::Code::kTimelineOverlap)) << report.summary();
}

TEST(BrokenScheduleTest, LostIterationsFireTimelineBytes) {
  // The job finished claiming 10 iterations but its run spans retire 9.
  const std::vector<JobSpan> spans = {run_span(0, 0, {0, 1}, 0.0, 10.0, 5),
                                      run_span(0, 1, {0, 1}, 10.0, 18.0, 4)};
  const std::vector<JobRecord> jobs = {finished_record(0, 10, 18.0)};
  const check::Report report = check::verify_timeline(
      check::timeline_from_schedule("lost-iters", 4, spans, jobs));
  EXPECT_TRUE(report.has(check::Code::kTimelineBytes)) << report.summary();
}

TEST(BrokenScheduleTest, ResumeBeforeCheckpointEndFiresTimelineCausality) {
  // Span 1 starts before span 0 ended: the job resumed on a new gang while
  // its previous quantum was still running.
  const std::vector<JobSpan> spans = {run_span(0, 0, {0, 1}, 0.0, 10.0, 5),
                                      run_span(0, 1, {2, 3}, 8.0, 16.0, 5)};
  const std::vector<JobRecord> jobs = {finished_record(0, 10, 16.0)};
  const check::Report report = check::verify_timeline(
      check::timeline_from_schedule("time-travel", 4, spans, jobs));
  EXPECT_TRUE(report.has(check::Code::kTimelineCausality))
      << report.summary();
}

TEST(BrokenScheduleTest, GangMemberDriftFiresTimelineGang) {
  // Start from a sound schedule, then let one gang member's event run past
  // its peers — the co-scheduling invariant the extractor tags via `gang`.
  const std::vector<JobSpan> spans = {run_span(0, 0, {0, 1, 2}, 0.0, 10.0, 5)};
  const std::vector<JobRecord> jobs = {finished_record(0, 5, 10.0)};
  check::TimelineGraph g =
      check::timeline_from_schedule("gang-drift", 4, spans, jobs);
  EXPECT_TRUE(check::verify_timeline(g).empty());
  ASSERT_EQ(g.events.size(), 3u);
  g.events.back().end_s += 1.0;
  const check::Report report = check::verify_timeline(g);
  EXPECT_TRUE(report.has(check::Code::kTimelineGang)) << report.summary();
}

// --- Elastic trainer: resize keeps the math bit-identical -------------------------

constexpr int kReplicas = 4;
constexpr int kSubBatch = 4;
constexpr int kInDim = 8;
constexpr int kClasses = 4;

/// BN-free MLP (mirrors fault_test): every learnable float must live in
/// pack_params for the bit-identity comparison to be complete.
core::NetSpec mlp() {
  core::NetSpec net;
  net.name = "sched-mlp";
  net.inputs.push_back({"data", {kSubBatch, kInDim}});
  net.inputs.push_back({"label", {kSubBatch}});
  net.layers.push_back(core::ip_spec("fc1", "data", "h", 16));
  net.layers.push_back(core::relu_spec("relu1", "h", "h_out"));
  net.layers.push_back(core::ip_spec("fc2", "h_out", "scores", kClasses));
  net.layers.push_back(
      core::softmax_loss_spec("loss", "scores", "label", "loss"));
  return net;
}

float det_uniform(std::int64_t iter, std::int64_t idx, std::uint64_t salt) {
  std::uint64_t z = (static_cast<std::uint64_t>(iter) * 0x9e3779b97f4a7c15ull) ^
                    (static_cast<std::uint64_t>(idx) + salt);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<float>(z >> 11) * 0x1.0p-53f;
}

void det_batch(std::int64_t iter, std::vector<float>& data,
               std::vector<float>& labels) {
  const int global = kSubBatch * kReplicas;
  data.resize(static_cast<std::size_t>(global) * kInDim);
  labels.resize(static_cast<std::size_t>(global));
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = det_uniform(iter, static_cast<std::int64_t>(i), 0x5eed) - 0.5f;
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<float>(static_cast<int>(
        det_uniform(iter, static_cast<std::int64_t>(i), 0x1abe1) * kClasses));
}

fault::FtOptions elastic_options(const std::string& tag) {
  fault::FtOptions o;
  o.checkpoint_prefix = testing::TempDir() + "/swsched_" + tag;
  o.job_id = "sched-mlp-b4-n4.j7";
  return o;
}

std::vector<float> net_weights(core::Net& net) {
  std::vector<float> w(net.param_count());
  net.pack_params(w);
  return w;
}

void step_n(ElasticTrainer& t, int iters) {
  std::vector<float> data, labels;
  for (int i = 0; i < iters; ++i) {
    det_batch(t.iter(), data, labels);
    t.step(data, labels);
  }
}

TEST(ElasticTrainerTest, ResizeSequenceMatchesUninterruptedRunBitwise) {
  const core::SolverSpec solver;
  // Reference: the same job trained start to finish with no resizes.
  fault::FtSsgdTrainer ref(mlp(), kReplicas, solver,
                           elastic_options("ref"), 9);
  {
    std::vector<float> data, labels;
    for (int i = 0; i < 8; ++i) {
      det_batch(ref.iter(), data, labels);
      ref.step(data, labels);
    }
  }

  // Elastic run: shrink 4 -> 2 mid-flight, grow 2 -> 3, finish at width 3.
  ElasticTrainer el(mlp(), kReplicas, solver, elastic_options("el"), 9);
  EXPECT_EQ(el.width(), kReplicas);
  step_n(el, 3);
  const std::string shrink_path = el.resize(2);
  // The resize checkpoint is namespaced by the job id at the retired iter.
  EXPECT_NE(shrink_path.find(".sched-mlp-b4-n4.j7.ckpt.3"), std::string::npos)
      << shrink_path;
  EXPECT_EQ(el.width(), 2);
  step_n(el, 3);
  EXPECT_NE(el.resize(3), "");
  step_n(el, 2);
  EXPECT_EQ(el.iter(), 8);
  EXPECT_EQ(el.resizes(), 2);

  // Width changed twice; the math never did. Every logical replica's
  // weights are float-for-float the uninterrupted run's.
  for (int r = 0; r < kReplicas; ++r)
    EXPECT_EQ(net_weights(el.net(r)), net_weights(ref.ssgd().node(r)))
        << "replica " << r;
}

TEST(ElasticTrainerTest, SameWidthResizeIsANoOp) {
  const core::SolverSpec solver;
  ElasticTrainer el(mlp(), kReplicas, solver, elastic_options("noop"), 9);
  step_n(el, 2);
  EXPECT_EQ(el.resize(kReplicas), "");
  EXPECT_EQ(el.resizes(), 0);
  EXPECT_EQ(el.iter(), 2);
}

TEST(ElasticTrainerTest, RejectsWidthsOutsideTheGangBounds) {
  const core::SolverSpec solver;
  ElasticTrainer el(mlp(), kReplicas, solver, elastic_options("bounds"), 9);
  EXPECT_THROW(el.resize(0), base::CheckError);
  EXPECT_THROW(el.resize(kReplicas + 1), base::CheckError);
}

// --- Job profiles -----------------------------------------------------------------

TEST(JobProfileTest, PricesAreSaneAndWidthOneSkipsComm) {
  const hw::CostModel cost;
  JobSpec spec;
  spec.model = ModelKind::kAlexNet;
  spec.batch = 256;
  spec.replicas = 4;
  const JobProfile p = profile_job(cost, spec);
  EXPECT_GT(p.replica_iter_s, 0.0);
  EXPECT_GT(p.param_bytes, 0);

  // Width 1 folds all replicas onto one node with no collective at all.
  EXPECT_EQ(p.iter_s(1, 4), 4.0 * p.replica_iter_s);
  // At full width each node computes one replica plus the all-reduce.
  EXPECT_GT(p.iter_s(4, 4), p.replica_iter_s);
  // Checkpoint moves params + solver history at 4 GB/s.
  EXPECT_EQ(p.checkpoint_s(),
            2.0 * static_cast<double>(p.param_bytes) / 4.0e9);
}

TEST(JobProfileTest, RejectsBatchesThatCannotSplitOverCoreGroups) {
  const hw::CostModel cost;
  JobSpec spec;
  spec.batch = 6;  // not divisible by the chip's 4 core groups
  EXPECT_THROW(profile_job(cost, spec), base::CheckError);
}

}  // namespace
}  // namespace swcaffe::sched
