// Figs. 10 and 11 reproduction: SSGD scalability of AlexNet (sub-batch 64,
// 128, 256) and ResNet-50 (sub-batch 32, 64) up to 1024 nodes, with the
// paper's topology-aware all-reduce, plus communication-time fractions, the
// overlapped (bucketed) series, the hierarchical + compressed series to the
// full 40,960-node machine, and the adjacent-placement ablation.
//
// The whole sweep runs on the swsim timing-only fast path
// (parallel::scalability_sweep): every (series, node-count) point is pure
// pricing fanned over host worker threads — no replica tensors exist at any
// node count. Gates (CI perf-smoke):
//  * three sampled series re-priced one at a time as serial single-series
//    sweeps must match the threaded full sweep bitwise (a race or state
//    leaking across series in the batched sweep shows up as a mismatch);
//  * the sweep's own wall clock must stay under a hard budget — the
//    simulator perf-smoke gate (the point of the fast path is that the
//    full-machine sweep takes seconds, not minutes).
// Any gate failure exits 1.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "base/table.h"
#include "base/units.h"
#include "bench_json.h"
#include "../tests/fixtures.h"
#include "core/models.h"
#include "hw/cost_model.h"
#include "parallel/ssgd.h"
#include "parallel/sweep.h"
#include "sim/thread_pool.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

namespace {

struct Paper {
  double speedup_1024;  // Fig. 10
  double comm_1024;     // Fig. 11 (%)
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool same_point(const parallel::ScalePoint& a, const parallel::ScalePoint& b) {
  return a.nodes == b.nodes && a.comp_s == b.comp_s && a.comm_s == b.comm_s &&
         a.speedup == b.speedup && a.comm_fraction == b.comm_fraction &&
         a.overlap_s == b.overlap_s && a.exposed_comm_s == b.exposed_comm_s &&
         a.overlap_speedup == b.overlap_speedup && a.buckets == b.buckets;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonBench json("bench_scalability", argc, argv);
  const double wall0 = now_s();
  // The sweep wall-clock budget (seconds). Generous against CI-runner
  // jitter yet far below what even ONE functional 1024-replica point would
  // cost — a regression that drags replica tensors or per-point re-prep
  // back into the sweep path blows through it immediately.
  constexpr double kWallBudgetS = 10.0;

  hw::CostModel cost;
  const std::vector<int> nodes = {1, 2, 8, 32, 128, 512, 1024};
  const std::vector<int> machine = {1024, 4096, 40960};
  const int threads = sim::ThreadPool::hardware_threads();

  // The five paper series, each twice: serial (Fig. 10/11) and overlapped
  // (8 buckets). One scalability_sweep call prices all of it.
  struct Entry {
    const char* name;
    std::vector<core::LayerDesc> descs;
    std::int64_t param_bytes;
    Paper paper;
  };
  std::vector<Entry> entries;
  entries.push_back({"AlexNet B=64", core::describe_net_spec(core::alexnet_bn(16)),
                     fixtures::kAlexNetGradientBytes, {409.50, 60.01}});
  entries.push_back({"AlexNet B=128",
                     core::describe_net_spec(core::alexnet_bn(32)),
                     fixtures::kAlexNetGradientBytes, {561.58, 45.15}});
  entries.push_back({"AlexNet B=256",
                     core::describe_net_spec(core::alexnet_bn(64)),
                     fixtures::kAlexNetGradientBytes, {715.45, 30.13}});
  entries.push_back({"ResNet50 B=32", fixtures::resnet50_per_cg_descs(),
                     fixtures::kResNet50GradientBytes, {928.15, 10.65}});
  entries.push_back({"ResNet50 B=64",
                     core::describe_net_spec(core::resnet50(16)),
                     fixtures::kResNet50GradientBytes, {828.32, 19.11}});

  std::vector<parallel::SweepSeries> sweep;
  for (const auto& e : entries) {
    parallel::SweepSeries s;
    s.label = e.name;
    s.descs_per_cg = e.descs;
    s.param_bytes = e.param_bytes;
    s.node_counts = nodes;  // serial: SsgdOptions defaults (RHD, q = 256)
    sweep.push_back(s);
    s.label = std::string(e.name) + " overlapped";
    s.options.buckets = 8;
    sweep.push_back(std::move(s));
  }
  // Hierarchical + int8 to the full machine (the PR-8 configuration priced
  // at TaihuLight scale — points a functional trainer could never reach).
  for (const auto& e : {entries[2], entries[3]}) {
    parallel::SweepSeries s;
    s.label = std::string(e.name) + " hier+int8";
    s.descs_per_cg = e.descs;
    s.param_bytes = e.param_bytes;
    s.options.algo = topo::AllreduceAlgo::kHierarchical;
    s.options.compression = topo::Compression::kInt8;
    s.options.buckets = 8;
    s.node_counts = machine;
    sweep.push_back(std::move(s));
  }

  const double sweep0 = now_s();
  const std::vector<parallel::SweepResult> results =
      parallel::scalability_sweep(cost, sweep, threads);
  const double sweep_wall = now_s() - sweep0;
  const auto points = [&](const std::string& label)
      -> const std::vector<parallel::ScalePoint>& {
    for (const auto& r : results) {
      if (r.label == label) return r.points;
    }
    std::fprintf(stderr, "missing sweep series '%s'\n", label.c_str());
    std::exit(1);
  };

  bool gate_ok = true;

  std::printf("=== Fig. 10: speedup vs node count (topology-aware "
              "all-reduce) ===\n");
  {
    std::vector<std::string> header{"nodes"};
    for (const auto& e : entries) header.push_back(e.name);
    TablePrinter t(header);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      std::vector<std::string> row{std::to_string(nodes[i])};
      for (const auto& e : entries) {
        const parallel::ScalePoint& pt = points(e.name)[i];
        row.push_back(fmt(pt.speedup, 1) + "x");
        const std::string key = bench::metric_key(e.name) + "_" +
                                std::to_string(nodes[i]) + "nodes";
        json.metric(key + "_speedup", pt.speedup);
        json.metric(key + "_comm_fraction", pt.comm_fraction);
      }
      t.add_row(row);
    }
    t.print(std::cout);
    std::printf("Paper at 1024 nodes: ");
    for (const auto& e : entries) {
      std::printf("%s %.0fx  ", e.name, e.paper.speedup_1024);
    }
    std::printf("\n");
  }

  std::printf("\n=== Fig. 11: communication time share (%%), ours (paper at "
              "1024) ===\n");
  {
    std::vector<std::string> header{"nodes"};
    for (const auto& e : entries) header.push_back(e.name);
    TablePrinter t(header);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      std::vector<std::string> row{std::to_string(nodes[i])};
      for (const auto& e : entries) {
        row.push_back(fmt(100.0 * points(e.name)[i].comm_fraction, 1));
      }
      t.add_row(row);
    }
    t.print(std::cout);
    std::printf("Paper at 1024 nodes: ");
    for (const auto& e : entries) {
      std::printf("%s %.1f%%  ", e.name, e.paper.comm_1024);
    }
    std::printf("\n");
  }

  std::printf("\n=== Overlapped series: bucketed all-reduce hides comm "
              "under backward (8 buckets) ===\n");
  {
    std::vector<std::string> header{"nodes"};
    for (const auto& e : entries) header.push_back(e.name);
    TablePrinter t(header);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      std::vector<std::string> row{std::to_string(nodes[i])};
      for (const auto& e : entries) {
        const parallel::ScalePoint& pt =
            points(std::string(e.name) + " overlapped")[i];
        row.push_back(fmt(pt.overlap_speedup, 1) + "x");
        const std::string key = bench::metric_key(e.name) + "_" +
                                std::to_string(nodes[i]) + "nodes";
        json.metric(key + "_overlap_speedup", pt.overlap_speedup);
        json.metric(key + "_exposed_comm_s", pt.exposed_comm_s);
      }
      t.add_row(row);
    }
    t.print(std::cout);
    std::printf("(serial Fig. 10 speedups above; the overlapped series can "
                "only match or beat them)\n");
  }

  std::printf("\n=== Full machine: hierarchical + int8, 8 buckets "
              "(Fig. 10 extended to 40,960 nodes) ===\n");
  {
    TablePrinter t({"nodes", "AlexNet B=256", "ResNet50 B=32"});
    for (std::size_t i = 0; i < machine.size(); ++i) {
      std::vector<std::string> row{std::to_string(machine[i])};
      for (const char* name : {"AlexNet B=256", "ResNet50 B=32"}) {
        const parallel::ScalePoint& pt =
            points(std::string(name) + " hier+int8")[i];
        row.push_back(fmt(pt.overlap_speedup, 1) + "x");
        const std::string key = bench::metric_key(name) + "_hier_int8_" +
                                std::to_string(machine[i]) + "nodes";
        json.metric(key + "_overlap_speedup", pt.overlap_speedup);
        json.metric(key + "_overlap_s", pt.overlap_s);
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }

  std::printf("\n=== Ablation: placement and algorithm at 1024 nodes "
              "(AlexNet B=256) ===\n");
  {
    TablePrinter t({"all-reduce", "comm/iter", "speedup"});
    for (auto algo : {topo::AllreduceAlgo::kRhdRoundRobin,
                      topo::AllreduceAlgo::kRhdAdjacent,
                      topo::AllreduceAlgo::kRing,
                      topo::AllreduceAlgo::kParamServer}) {
      parallel::SweepSeries s;
      s.label = topo::allreduce_algo_name(algo);
      s.descs_per_cg = fixtures::alexnet_per_cg_descs();
      s.param_bytes = fixtures::kAlexNetGradientBytes;
      s.options.algo = algo;
      s.node_counts = {1024};
      const parallel::ScalePoint pt =
          parallel::scalability_sweep(cost, {s}, 1)[0].points[0];
      t.add_row({s.label, base::format_seconds(pt.comm_s),
                 fmt(pt.speedup, 1) + "x"});
    }
    t.print(std::cout);
  }

  // --- Gate: sampled single-series cross-check ----------------------------
  // Re-price three sampled series one at a time, each as a serial
  // single-series sweep, and require byte-for-byte equality with the
  // threaded full sweep: batching series and fanning points over threads is
  // only allowed to be fast, never different.
  {
    int checked = 0, mismatched = 0;
    for (const auto& s : {sweep[0], sweep[5], sweep.back()}) {
      const std::vector<parallel::ScalePoint> serial =
          parallel::scalability_sweep(cost, {s}, 1)[0].points;
      const std::vector<parallel::ScalePoint>& full = points(s.label);
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ++checked;
        if (!same_point(serial[i], full[i])) {
          std::fprintf(stderr,
                       "GATE FAILED: '%s' at %d nodes: the threaded full "
                       "sweep diverged from the serial single-series sweep\n",
                       s.label.c_str(), serial[i].nodes);
          ++mismatched;
          gate_ok = false;
        }
      }
    }
    std::printf("\ncross-check: %d sampled points re-priced as serial "
                "single-series sweeps, %d mismatches\n", checked, mismatched);
    json.metric("crosscheck_points", checked);
    json.metric("crosscheck_mismatches", mismatched);
  }

  // --- Gate: simulator wall clock ------------------------------------------
  const double wall = now_s() - wall0;
  std::printf("sweep: %zu series, %d threads, %.3fs sweep / %.3fs total "
              "wall clock (budget %.1fs)\n",
              sweep.size(), threads, sweep_wall, wall, kWallBudgetS);
  json.metric("sweep_series", static_cast<double>(sweep.size()));
  json.metric("sweep_threads", threads);
  if (wall > kWallBudgetS) {
    std::fprintf(stderr,
                 "GATE FAILED: wall clock %.3fs exceeds the %.1fs simulator "
                 "budget\n",
                 wall, kWallBudgetS);
    gate_ok = false;
  }

  std::printf(
      "\nPaper shapes to check: larger sub-batches scale better; ResNet-50 "
      "(97.7 MB params, more compute) scales best;\ncommunication share "
      "grows with node count and dominates AlexNet at small sub-batch.\n");
  std::printf("\n%s\n",
              gate_ok ? "scalability gate: PASS" : "scalability gate: FAIL");
  return gate_ok ? 0 : 1;
}
