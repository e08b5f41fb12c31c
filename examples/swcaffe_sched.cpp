// swcaffe_sched: multi-tenant cluster scheduler simulator — gang
// scheduling, preemption and elastic training over the cost model.
//
// Usage:
//   swcaffe_sched [--policy fifo|priority|fair] [--nodes N] [--supernode Q]
//                 [--arrival poisson|bursty] [--rate R] [--duration S]
//                 [--seed N] [--tenants T] [--quantum I] [--no-elastic]
//                 [--verify] [--export-timeline FILE] [--json OUT]
//
// An open-loop stream of heterogeneous training jobs (model zoo x batch x
// requested gang width, R jobs/s for S simulated seconds) is admitted onto
// a simulated TaihuLight partition of N nodes under the chosen policy.
// Preempted jobs checkpoint and later resume by crash-rewind-replay;
// elastic jobs shrink/grow between quanta. Everything runs on simulated
// time: same flags + seed => bit-identical schedule and output.
//
// --verify builds the whole-cluster timeline (one exclusive resource per
// node, gang tags per dispatch) and judges it with the swsched analyzer —
// the same graphs `swcaffe_check --timeline` audits; --export-timeline
// writes them as JSON for `swcaffe_check --timeline=<file>`.
//
// Exit codes:
//   0  simulation ran (and, with --verify, the timeline is silent)
//   1  --verify found diagnostics in the schedule timeline
//   2  bad usage / unknown flag
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "../bench/bench_json.h"
#include "cli_flags.h"
#include "base/log.h"
#include "base/table.h"
#include "base/units.h"
#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "check/timeline_io.h"
#include "hw/cost_model.h"
#include "sched/policy.h"
#include "sched/scheduler.h"
#include "sched/workload.h"
#include "serve/arrival.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

int main(int argc, char** argv) {
  std::string policy = "fifo";
  std::string arrival = "poisson";
  int nodes = 64;
  int supernode = 16;
  double rate = 1.0;
  double duration_s = 60.0;
  std::uint64_t seed = 1;
  int tenants = 3;
  std::int64_t quantum = 25;
  bool elastic = true;
  bool verify = false;
  std::string export_path;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (cli::flag_value(argc, argv, i, "--policy", v)) {
      policy = v;
    } else if (cli::flag_value(argc, argv, i, "--arrival", v)) {
      arrival = v;
    } else if (cli::flag_number(argc, argv, i, "--nodes", nodes)) {
    } else if (cli::flag_number(argc, argv, i, "--supernode", supernode)) {
    } else if (cli::flag_number(argc, argv, i, "--rate", rate)) {
    } else if (cli::flag_number(argc, argv, i, "--duration", duration_s)) {
    } else if (cli::flag_number(argc, argv, i, "--seed", seed)) {
    } else if (cli::flag_number(argc, argv, i, "--tenants", tenants)) {
    } else if (cli::flag_number(argc, argv, i, "--quantum", quantum)) {
    } else if (cli::flag_value(argc, argv, i, "--export-timeline", v)) {
      export_path = v;
    } else if (cli::flag_value(argc, argv, i, "--json", v)) {
      // Value re-parsed by JsonBench; consumed here so it isn't positional.
    } else if (std::strcmp(argv[i], "--no-elastic") == 0) {
      elastic = false;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  bench::JsonBench json("swcaffe_sched", argc, argv);
  const hw::CostModel cost;

  sched::WorkloadSpec wspec;
  sched::SchedOptions sopts;
  // Bad names are usage errors (exit 2), not aborts.
  try {
    wspec.arrivals.kind = serve::parse_arrival_kind(arrival);
    sopts.policy = sched::parse_policy(policy);
  } catch (const base::CheckError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  wspec.arrivals.rate = rate;
  wspec.arrivals.duration_s = duration_s;
  wspec.arrivals.seed = seed;
  wspec.seed = seed;
  wspec.tenants = tenants;
  wspec.elastic = elastic;
  const std::vector<sched::JobSpec> jobs = sched::generate_workload(wspec);
  if (jobs.empty()) {
    std::fprintf(stderr, "no jobs arrived (rate %.3f over %.1fs)\n", rate,
                 duration_s);
    return 2;
  }

  sopts.cluster_nodes = nodes;
  sopts.supernode_size = supernode;
  sopts.quantum_iters = quantum;
  sopts.elastic = elastic;
  const sched::ScheduleResult res =
      sched::simulate_schedule(cost, jobs, sopts);
  const sched::SchedMetrics& m = res.metrics;

  std::printf("=== %s schedule: %zu jobs on %d nodes (%s arrivals, %.2f "
              "jobs/s) ===\n",
              sched::policy_name(sopts.policy), jobs.size(), nodes,
              arrival.c_str(), rate);
  {
    TablePrinter t(
        {"job", "tenant", "width", "iters", "wait", "makespan", "pre", "rsz"});
    for (const sched::JobRecord& r : res.jobs) {
      t.add_row({r.name, std::to_string(r.tenant),
                 std::to_string(r.final_width), std::to_string(r.iters),
                 base::format_seconds(r.queue_wait_s()),
                 base::format_seconds(r.makespan_s()),
                 std::to_string(r.preemptions), std::to_string(r.resizes)});
    }
    t.print(std::cout);
  }
  std::printf("\n=== cluster metrics ===\n");
  {
    TablePrinter t({"metric", "value"});
    t.add_row({"jobs finished", std::to_string(m.finished) + "/" +
                                    std::to_string(m.jobs)});
    t.add_row({"horizon", base::format_seconds(m.horizon_s)});
    t.add_row({"utilization", fmt(100.0 * m.utilization, 1) + "%"});
    t.add_row({"run node-s", fmt(m.run_node_s, 1)});
    t.add_row({"overhead node-s", fmt(m.overhead_node_s, 3)});
    t.add_row({"preemptions", std::to_string(m.preemptions)});
    t.add_row({"resizes", std::to_string(m.resizes)});
    t.add_row({"queue wait p50", base::format_seconds(m.wait_p50_s)});
    t.add_row({"queue wait p95", base::format_seconds(m.wait_p95_s)});
    t.add_row({"makespan p50", base::format_seconds(m.makespan_p50_s)});
    t.add_row({"makespan p95", base::format_seconds(m.makespan_p95_s)});
    t.print(std::cout);
  }

  json.metric("jobs", m.jobs);
  json.metric("finished", m.finished);
  json.metric("horizon_s", m.horizon_s);
  json.metric("utilization", m.utilization);
  json.metric("busy_node_s", m.busy_node_s);
  json.metric("run_node_s", m.run_node_s);
  json.metric("overhead_node_s", m.overhead_node_s);
  json.metric("preemptions", m.preemptions);
  json.metric("resizes", m.resizes);
  json.metric("wait_mean_s", m.wait_mean_s);
  json.metric("wait_p50_s", m.wait_p50_s);
  json.metric("wait_p95_s", m.wait_p95_s);
  json.metric("makespan_p50_s", m.makespan_p50_s);
  json.metric("makespan_p95_s", m.makespan_p95_s);
  json.metric("makespan_spread_s", m.makespan_spread_s);

  if (verify || !export_path.empty()) {
    const check::TimelineGraph graph = check::timeline_from_schedule(
        std::string("cluster ") + sched::policy_name(sopts.policy), nodes,
        res.spans, res.jobs);
    if (!export_path.empty()) {
      std::ofstream out(export_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", export_path.c_str());
        return 2;
      }
      out << check::timelines_to_json({graph});
      std::printf("wrote timeline (%zu events) to %s\n", graph.events.size(),
                  export_path.c_str());
    }
    if (verify) {
      const check::Report report = check::verify_timeline(graph);
      std::printf("\ntimeline: %zu events, %d error(s), %d warning(s)\n",
                  graph.events.size(), report.error_count(),
                  report.warning_count());
      if (!report.empty()) {
        report.print(std::cout);
        return 1;
      }
    }
  }
  return 0;
}
