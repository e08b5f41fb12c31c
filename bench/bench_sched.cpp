// Cluster scheduling bench: one heavy open-loop arrival trace of
// heterogeneous training jobs (model zoo x batch x gang width), admitted
// onto the same simulated 32-node TaihuLight partition under FIFO,
// priority and fair-share, with preemption and elastic shrink/grow in
// play. The JSON output is the per-policy metric set (utilization, queue
// wait p50/p95, makespan p50/p95/spread, preemption and resize counts,
// overhead ledger).
//
// Five gates (exit 1 on violation):
//  1. Fairness wins the tail: fair-share's p95 queue wait is strictly
//     lower than FIFO's under the heavy trace.
//  2. Fairness tightens completion: fair-share's slowdown spread
//     (p95 - p50 of makespan normalized by each job's uninterrupted run
//     time) is strictly smaller than FIFO's. Slowdown, not raw makespan,
//     is the fairness currency: raw spread conflates scheduling with
//     job-length heterogeneity.
//  3. The overhead ledger is exact: busy == run + overhead node-seconds,
//     bit for bit, for every policy — preemption/resize costs can hide
//     nowhere else.
//  4. Every schedule's whole-cluster timeline is silent under the swsched
//     analyzer (no double-booked nodes, no broken gangs, no lost
//     iterations, no causality violations).
//  5. Determinism: the whole sweep runs twice and every span and metric
//     must match bitwise (CI additionally diffs two full --json files
//     byte for byte, and the fresh file against the checked-in one).
//
// A job-count curve follows: the same generator at 50/100/200/400 jobs
// under every policy, with each schedule's span count and the scheduler's
// deterministic decision-work counts in the JSON. Host milliseconds go to
// stdout only, so the JSON stays byte-reproducible.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "base/table.h"
#include "base/units.h"
#include "bench_json.h"
#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "hw/cost_model.h"
#include "sched/policy.h"
#include "sched/scheduler.h"
#include "sched/workload.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

namespace {

constexpr sched::Policy kPolicies[] = {
    sched::Policy::kFifo, sched::Policy::kPriority, sched::Policy::kFairShare};

/// The heavy trace: ~40 jobs in 200 simulated seconds against 32 nodes —
/// offered node-seconds far exceed capacity, so queues build and the
/// policies actually differ.
sched::WorkloadSpec heavy_spec() {
  sched::WorkloadSpec wspec;
  wspec.arrivals.kind = serve::ArrivalKind::kPoisson;
  wspec.arrivals.rate = 0.2;
  wspec.arrivals.duration_s = 200.0;
  wspec.arrivals.seed = 17;
  wspec.seed = 17;
  wspec.widths = {2, 4, 8};
  wspec.min_iters = 20;
  wspec.max_iters = 200;
  wspec.tenants = 3;
  return wspec;
}

/// The heavy trace's generator stretched to `jobs` jobs: the arrival
/// window grows with the count (about 1.2 arrivals expected per job kept)
/// and the trace is cut to exactly `jobs`, so the load per simulated
/// second stays that of the heavy trace. Empty if too few jobs arrived.
std::vector<sched::JobSpec> curve_workload(int jobs) {
  sched::WorkloadSpec wspec = heavy_spec();
  wspec.arrivals.duration_s = 6.0 * jobs;
  std::vector<sched::JobSpec> out = sched::generate_workload(wspec);
  if (static_cast<int>(out.size()) < jobs) return {};
  out.resize(static_cast<std::size_t>(jobs));
  return out;
}

constexpr int kCurveJobs[] = {50, 100, 200, 400};

sched::ScheduleResult run_policy(const hw::CostModel& cost,
                                 const std::vector<sched::JobSpec>& jobs,
                                 sched::Policy policy) {
  sched::SchedOptions opts;
  opts.cluster_nodes = 32;
  opts.supernode_size = 8;
  opts.policy = policy;
  opts.quantum_iters = 25;
  return sched::simulate_schedule(cost, jobs, opts);
}

bool same_result(const sched::ScheduleResult& a,
                 const sched::ScheduleResult& b) {
  if (a.spans.size() != b.spans.size()) return false;
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    const sched::JobSpan& x = a.spans[i];
    const sched::JobSpan& y = b.spans[i];
    if (x.job != y.job || x.span != y.span || x.kind != y.kind ||
        x.nodes != y.nodes || x.start_s != y.start_s || x.end_s != y.end_s ||
        x.iters != y.iters)
      return false;
  }
  const sched::SchedMetrics& m = a.metrics;
  const sched::SchedMetrics& n = b.metrics;
  return m.finished == n.finished && m.preemptions == n.preemptions &&
         m.resizes == n.resizes && m.horizon_s == n.horizon_s &&
         m.utilization == n.utilization && m.busy_node_s == n.busy_node_s &&
         m.wait_p95_s == n.wait_p95_s && m.makespan_p95_s == n.makespan_p95_s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonBench json("bench_sched", argc, argv);
  const hw::CostModel cost;
  const std::vector<sched::JobSpec> jobs =
      sched::generate_workload(heavy_spec());
  std::printf("heavy trace: %zu jobs, 32 nodes, quantum 25 iters\n\n",
              jobs.size());

  int failures = 0;
  std::vector<sched::ScheduleResult> results;
  TablePrinter t({"policy", "util", "wait p50", "wait p95", "makespan p95",
                  "slowdown p50", "slowdown p95", "spread", "pre", "rsz",
                  "overhead"});
  for (const sched::Policy policy : kPolicies) {
    const sched::ScheduleResult res = run_policy(cost, jobs, policy);
    const sched::SchedMetrics& m = res.metrics;

    // Gate 3: the ledger is exact — every busy node-second is either
    // training or checkpoint/restore overhead, bit for bit.
    if (m.busy_node_s != m.run_node_s + m.overhead_node_s) {
      std::fprintf(stderr,
                   "FAIL(%s): ledger leak: busy %.17g != run %.17g + "
                   "overhead %.17g\n",
                   sched::policy_name(policy), m.busy_node_s, m.run_node_s,
                   m.overhead_node_s);
      ++failures;
    }
    if (m.finished != m.jobs) {
      std::fprintf(stderr, "FAIL(%s): %d of %d jobs unfinished\n",
                   sched::policy_name(policy), m.jobs - m.finished, m.jobs);
      ++failures;
    }

    // Gate 4: the composed whole-cluster timeline is silent.
    const check::TimelineGraph graph = check::timeline_from_schedule(
        std::string("cluster ") + sched::policy_name(policy), 32, res.spans,
        res.jobs);
    const check::Report report = check::verify_timeline(graph);
    if (!report.empty()) {
      std::fprintf(stderr, "FAIL(%s): schedule timeline not silent:\n",
                   sched::policy_name(policy));
      report.print(std::cerr);
      ++failures;
    }

    // Gate 5 (in-process half): bitwise-identical rerun.
    if (!same_result(res, run_policy(cost, jobs, policy))) {
      std::fprintf(stderr, "FAIL(%s): rerun diverged from first run\n",
                   sched::policy_name(policy));
      ++failures;
    }

    t.add_row({sched::policy_name(policy), fmt(100.0 * m.utilization, 1) + "%",
               base::format_seconds(m.wait_p50_s),
               base::format_seconds(m.wait_p95_s),
               base::format_seconds(m.makespan_p95_s),
               fmt(m.slowdown_p50, 2) + "x", fmt(m.slowdown_p95, 2) + "x",
               fmt(m.slowdown_spread, 2) + "x",
               std::to_string(m.preemptions), std::to_string(m.resizes),
               base::format_seconds(m.overhead_node_s)});

    const std::string p = sched::policy_name(policy);
    json.metric(p + "_utilization", m.utilization);
    json.metric(p + "_wait_p50_s", m.wait_p50_s);
    json.metric(p + "_wait_p95_s", m.wait_p95_s);
    json.metric(p + "_wait_mean_s", m.wait_mean_s);
    json.metric(p + "_makespan_p50_s", m.makespan_p50_s);
    json.metric(p + "_makespan_p95_s", m.makespan_p95_s);
    json.metric(p + "_makespan_spread_s", m.makespan_spread_s);
    json.metric(p + "_slowdown_p50", m.slowdown_p50);
    json.metric(p + "_slowdown_p95", m.slowdown_p95);
    json.metric(p + "_slowdown_spread", m.slowdown_spread);
    json.metric(p + "_preemptions", m.preemptions);
    json.metric(p + "_resizes", m.resizes);
    json.metric(p + "_busy_node_s", m.busy_node_s);
    json.metric(p + "_run_node_s", m.run_node_s);
    json.metric(p + "_overhead_node_s", m.overhead_node_s);
    json.metric(p + "_horizon_s", m.horizon_s);
    json.metric(p + "_timeline_errors", report.error_count());
    results.push_back(res);
  }
  t.print(std::cout);

  const sched::SchedMetrics& fifo = results[0].metrics;
  const sched::SchedMetrics& fair = results[2].metrics;
  // Gate 1: fair-share beats FIFO on tail queue wait under the heavy trace.
  if (!(fair.wait_p95_s < fifo.wait_p95_s)) {
    std::fprintf(stderr,
                 "FAIL: fair-share p95 wait %.3fs not below FIFO's %.3fs\n",
                 fair.wait_p95_s, fifo.wait_p95_s);
    ++failures;
  }
  // Gate 2: fair-share tightens the completion spread (in slowdown terms).
  if (!(fair.slowdown_spread < fifo.slowdown_spread)) {
    std::fprintf(stderr,
                 "FAIL: fair-share slowdown spread %.3fx not below FIFO's "
                 "%.3fx\n",
                 fair.slowdown_spread, fifo.slowdown_spread);
    ++failures;
  }
  std::printf("\nfair-share vs FIFO: p95 wait %.1fs -> %.1fs, slowdown "
              "spread %.2fx -> %.2fx\n",
              fifo.wait_p95_s, fair.wait_p95_s, fifo.slowdown_spread,
              fair.slowdown_spread);

  // Job-count curve: how the scheduler's decision work grows with the
  // trace. Counts are exact; host time is printed, never written.
  std::printf("\njob-count curve (picks: candidates the dispatch rounds "
              "checked; examined: job states the decisions examined)\n");
  TablePrinter curve({"policy", "jobs", "spans", "picks", "examined",
                      "host ms"});
  for (const sched::Policy policy : kPolicies) {
    const std::string p = sched::policy_name(policy);
    for (const int n : kCurveJobs) {
      const std::vector<sched::JobSpec> trace = curve_workload(n);
      if (trace.empty()) {
        std::fprintf(stderr, "FAIL: fewer than %d jobs arrived\n", n);
        ++failures;
        continue;
      }
      const auto t0 = std::chrono::steady_clock::now();
      const sched::ScheduleResult res = run_policy(cost, trace, policy);
      const double host_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      if (res.metrics.finished != n) {
        std::fprintf(stderr, "FAIL(%s, %d jobs): %d unfinished\n", p.c_str(),
                     n, n - res.metrics.finished);
        ++failures;
      }
      const std::string key = "curve_" + p + "_" + std::to_string(n);
      json.metric(key + "_spans", static_cast<double>(res.spans.size()));
      json.metric(key + "_picks", static_cast<double>(res.work.picks));
      json.metric(key + "_examined", static_cast<double>(res.work.examined));
      curve.add_row({p, std::to_string(n), std::to_string(res.spans.size()),
                     std::to_string(res.work.picks),
                     std::to_string(res.work.examined), fmt(host_ms, 2)});
    }
  }
  curve.print(std::cout);

  if (failures > 0) {
    std::fprintf(stderr, "%d gate(s) failed\n", failures);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
