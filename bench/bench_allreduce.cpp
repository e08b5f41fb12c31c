// Fig. 7 reproduction plus all-reduce algorithm ablation.
//
// 1. The paper's 8-node / 2-supernode worked example with exact
//    alpha/beta/gamma coefficient decomposition for both placements.
// 2. A node-count sweep (up to 1024 nodes, q=256) over four algorithms:
//    binomial (adjacent), binomial (round-robin, the paper's), ring, and a
//    parameter server — with AlexNet-sized (232.6 MB) gradients, verified
//    functionally at small scale.
#include <cstdio>
#include <iostream>
#include <span>
#include <vector>

#include "base/rng.h"
#include "base/table.h"
#include "base/units.h"
#include "bench_json.h"
#include "topo/allreduce.h"
#include "topo/collective.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

int main(int argc, char** argv) {
  bench::JsonBench json("bench_allreduce", argc, argv);
  const topo::NetParams net = topo::sunway_network();

  std::printf("=== Fig. 7: 8 nodes in 2 supernodes (q=4), message n ===\n");
  {
    topo::Topology topo{8, 4};
    TablePrinter t({"placement", "alpha terms", "beta1 bytes", "beta2 bytes",
                    "gamma bytes", "time (n=100MB)"});
    for (auto placement :
         {topo::Placement::kAdjacent, topo::Placement::kRoundRobin}) {
      const std::int64_t n = 100 << 20;
      const auto c = topo::cost_rhd(n, topo, net, placement);
      t.add_row({topo::placement_name(placement),
                 std::to_string(c.alpha_terms),
                 fmt(c.beta1_bytes / n, 3) + "n", fmt(c.beta2_bytes / n, 3) + "n",
                 fmt(c.gamma_bytes / n, 3) + "n",
                 base::format_seconds(c.seconds)});
      const std::string key =
          "fig7_" + bench::metric_key(topo::placement_name(placement));
      json.metric(key + "_alpha_terms", c.alpha_terms);
      json.metric(key + "_beta1_coeff", c.beta1_bytes / n);
      json.metric(key + "_beta2_coeff", c.beta2_bytes / n);
      json.metric(key + "_gamma_coeff", c.gamma_bytes / n);
      json.metric(key + "_seconds_100mb", c.seconds);
    }
    t.print(std::cout);
    std::printf("Paper: original = 6a + 3/4 nB1 + nB2 + 7/8 nG; "
                "improved = 6a + 3/2 nB1 + 1/4 nB2 + 7/8 nG.\n");
  }

  std::printf("\n=== Functional verification (16 nodes, q=4, real data) ===\n");
  {
    topo::Topology topo{16, 4};
    base::Rng rng(7);
    std::vector<std::vector<float>> data(16, std::vector<float>(1000));
    for (auto& v : data) {
      for (auto& x : v) x = rng.uniform(-1, 1);
    }
    std::vector<float> expected(1000, 0.0f);
    for (const auto& v : data) {
      for (std::size_t i = 0; i < expected.size(); ++i) expected[i] += v[i];
    }
    const std::vector<std::span<float>> spans(data.begin(), data.end());
    topo::run_schedule(topo::rhd_schedule(16, 1000), spans);
    const auto c =
        topo::cost_rhd(1000 * 4, topo, net, topo::Placement::kRoundRobin);
    double max_err = 0.0;
    for (const auto& v : data) {
      for (std::size_t i = 0; i < expected.size(); ++i) {
        max_err = std::max(max_err, std::abs(static_cast<double>(v[i]) -
                                             expected[i]));
      }
    }
    std::printf("max |allreduce - direct sum| over all ranks: %.2e "
                "(simulated time %s)\n",
                max_err, base::format_seconds(c.seconds).c_str());
  }

  std::printf("\n=== Ablation: all-reduce of AlexNet gradients (232.6 MB), "
              "q=256 ===\n");
  {
    const std::int64_t bytes = static_cast<std::int64_t>(232.6e6);
    TablePrinter t({"nodes", "binomial adjacent", "binomial round-robin",
                    "ring", "param server", "RR speedup vs adjacent"});
    for (int p : {2, 8, 32, 128, 512, 1024}) {
      topo::Topology topo{p, 256};
      const auto adj =
          topo::cost_rhd(bytes, topo, net, topo::Placement::kAdjacent);
      const auto rr =
          topo::cost_rhd(bytes, topo, net, topo::Placement::kRoundRobin);
      const auto ring =
          topo::cost_ring(bytes, topo, net, topo::Placement::kAdjacent);
      const auto ps = topo::cost_param_server(bytes, topo, net, 1);
      t.add_row({std::to_string(p), base::format_seconds(adj.seconds),
                 base::format_seconds(rr.seconds),
                 base::format_seconds(ring.seconds),
                 base::format_seconds(ps.seconds),
                 fmt(adj.seconds / rr.seconds, 2) + "x"});
      const std::string key = "alexnet_" + std::to_string(p) + "nodes_";
      json.metric(key + "adjacent_s", adj.seconds);
      json.metric(key + "round_robin_s", rr.seconds);
      json.metric(key + "ring_s", ring.seconds);
      json.metric(key + "param_server_s", ps.seconds);
    }
    t.print(std::cout);
    std::printf("Shapes: placements identical within one supernode "
                "(p<=256); round-robin wins beyond; ring pays p*alpha;\n"
                "the parameter server serializes at its single port "
                "(Sec. V-A's reasons to reject both).\n");
  }
  return 0;
}
