// swsched-svc: deterministic discrete-event multi-tenant cluster scheduler.
//
// Admits heterogeneous training jobs (sched/workload.h) onto a simulated
// TaihuLight partition (sched/cluster.h) under a pluggable policy
// (sched/policy.h). Mechanics shared by every policy:
//
//  * Gang scheduling — a job runs on all of its nodes or none of them; the
//    gang is placed with the supernode-aware allocator at the placement its
//    all-reduce prices for (topo::placement_for(kJobAllreduce)).
//  * Quanta — a dispatched job runs `quantum_iters` iterations per quantum;
//    quantum boundaries are the only points where gangs change hands
//    (gradients are synchronized there, so node 0's state is a complete
//    checkpoint — the swfault model with checkpoint_every == quantum).
//  * Preemption — a marked victim finishes its current quantum, writes a
//    job-namespaced versioned checkpoint (priced, gang held while writing),
//    and releases. Resume is crash-rewind-replay: the next dispatch charges
//    a restore before training continues from the retired iteration.
//  * Elastic shrink/grow — an elastic job can be re-dispatched at a
//    different gang width between quanta (checkpoint -> release ->
//    re-place -> restore). Width only changes wall-clock pricing (folded
//    replicas + all-reduce at the new width), never the math — the logical
//    replica count is fixed, so final weights are bit-identical
//    (sched/elastic.h is the functional proof).
//
// Everything is a pure function of (jobs, options): event ties break on a
// monotone sequence number, times are closed-form doubles, and every span
// is recorded at dispatch time — two same-input runs produce bit-identical
// ScheduleResults, which check::timeline_from_schedule then audits for
// double-booked nodes, broken gangs and lost iterations.
#pragma once

#include <cstdint>
#include <vector>

#include "hw/cost_model.h"
#include "sched/cluster.h"
#include "sched/job.h"
#include "sched/policy.h"
#include "sched/record.h"

namespace swcaffe::sched {

struct SchedOptions {
  int cluster_nodes = 64;
  int supernode_size = 16;  ///< small partition: 4 supernodes by default
  Policy policy = Policy::kFifo;
  /// Iterations per scheduling quantum (== swfault checkpoint_every).
  std::int64_t quantum_iters = 25;
  /// Allow shrunken dispatch and grow-back of elastic jobs. Off: gangs are
  /// always placed at the requested width.
  bool elastic = true;
};

struct SchedMetrics {
  int jobs = 0;
  int finished = 0;
  int preemptions = 0;  ///< total gang revocations across jobs
  int resizes = 0;      ///< total elastic re-dispatches across jobs
  double horizon_s = 0.0;      ///< last span end (cluster drained)
  double utilization = 0.0;    ///< busy_node_s / (nodes * horizon_s)
  double busy_node_s = 0.0;    ///< all spans: run + checkpoint + restore
  double run_node_s = 0.0;     ///< training node-seconds
  double overhead_node_s = 0.0;  ///< checkpoint + restore node-seconds
  double wait_mean_s = 0.0;    ///< submit -> first dispatch
  double wait_p50_s = 0.0;
  double wait_p95_s = 0.0;
  double makespan_p50_s = 0.0;  ///< submit -> finish
  double makespan_p95_s = 0.0;
  double makespan_spread_s = 0.0;  ///< p95 - p50 of raw makespan
  double slowdown_p50 = 0.0;    ///< makespan / ideal uninterrupted run
  double slowdown_p95 = 0.0;
  /// p95 - p50 of slowdown: the fairness headline. Normalizing by each
  /// job's own length isolates what the SCHEDULER did to the job from how
  /// big the job was.
  double slowdown_spread = 0.0;
};

struct ScheduleResult {
  std::vector<JobRecord> jobs;  ///< indexed by JobSpec::id
  std::vector<JobSpan> spans;   ///< recorded in dispatch order
  SchedMetrics metrics;
};

/// Runs the full simulation until every job finishes. Pure in its inputs.
ScheduleResult simulate_schedule(const hw::CostModel& cost,
                                 const std::vector<JobSpec>& jobs,
                                 const SchedOptions& options);

}  // namespace swcaffe::sched
