// Tests for the two-level hierarchical all-reduce (topo/hierarchical):
// cost parity with flat improved RHD where the phase structures coincide,
// the full-machine win where they don't, functional bit-identity, and the
// edge-case fallbacks (non-divisible node counts, single supernode,
// non-power-of-two supernode size).
#include "topo/hierarchical.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "collective_fixtures.h"
#include "proptest.h"
#include "topo/allreduce.h"
#include "topo/collective.h"
#include "topo/network_model.h"
#include "topo/topology.h"

namespace swcaffe::topo {
namespace {

using proptest::Rng;
using proptest::for_all;

std::vector<std::vector<float>> random_data(Rng& rng, int ranks, int n) {
  std::vector<std::vector<float>> data(ranks, std::vector<float>(n));
  for (auto& v : data) {
    for (auto& x : v) x = rng.next_float(-1.0f, 1.0f);
  }
  return data;
}

// --- applicability ---------------------------------------------------------

TEST(HierApplicableTest, EngagesOnlyOnCleanSplits) {
  const auto applicable = [](int p, int q) {
    Topology t;
    t.num_nodes = p;
    t.supernode_size = q;
    return hierarchical_applicable(t);
  };
  EXPECT_TRUE(applicable(1024, 256));
  EXPECT_TRUE(applicable(16, 4));
  EXPECT_TRUE(applicable(40960, 256));  // s = 160, allowed non-pow2
  EXPECT_FALSE(applicable(256, 256));   // single supernode: p == q
  EXPECT_FALSE(applicable(100, 256));   // p < q
  EXPECT_FALSE(applicable(24, 7));      // q not a power of two
  EXPECT_FALSE(applicable(1000, 256));  // p % q != 0
  EXPECT_FALSE(applicable(8, 1));       // q < 2: nothing local to reduce
}

// --- analytic cost ---------------------------------------------------------

TEST(HierCostTest, MatchesFlatRoundRobinAtPow2) {
  // With p, q and s = p/q all powers of two, flat improved RHD under
  // round-robin placement IS the hierarchical algorithm (same butterfly,
  // same per-step locality), so the cost model must agree to rounding.
  const NetParams net = sunway_network();
  for (int p : {512, 1024, 4096}) {
    Topology topo;
    topo.num_nodes = p;
    const std::int64_t bytes = 232'600'000;
    const double flat =
        cost_rhd(bytes, topo, net, Placement::kRoundRobin).seconds;
    const double hier = cost_hierarchical(bytes, topo, net).seconds;
    EXPECT_NEAR(hier, flat, flat * 1e-8) << p;
  }
}

TEST(HierCostTest, WinsAtFullMachineScale) {
  // 40,960 nodes = 160 supernodes: flat RHD folds the FULL message through
  // the non-power-of-two fixup and crosses the oversubscribed switch with
  // it; hierarchical folds only bytes/q per chunk collective.
  const NetParams net = sunway_network();
  Topology topo;
  topo.num_nodes = 40960;
  const std::int64_t bytes = 232'600'000;
  const double flat =
      cost_rhd(bytes, topo, net, Placement::kRoundRobin).seconds;
  const double hier = cost_hierarchical(bytes, topo, net).seconds;
  EXPECT_LT(hier, 0.5 * flat);
}

TEST(HierCostTest, FallbackPricesExactlyAsFlat) {
  const NetParams net = sunway_network();
  for (auto [p, q] : {std::pair{100, 256}, {1000, 256}, {24, 7}}) {
    Topology topo;
    topo.num_nodes = p;
    topo.supernode_size = q;
    const CostBreakdown flat =
        cost_rhd(1 << 20, topo, net, Placement::kRoundRobin);
    const CostBreakdown hier = cost_hierarchical(1 << 20, topo, net);
    EXPECT_EQ(hier.seconds, flat.seconds) << p << "/" << q;
    EXPECT_EQ(hier.alpha_terms, flat.alpha_terms);
    EXPECT_EQ(hier.beta1_bytes, flat.beta1_bytes);
    EXPECT_EQ(hier.beta2_bytes, flat.beta2_bytes);
  }
}

TEST(HierCostTest, ZeroBytesCostsOnlyLatency) {
  const NetParams net = sunway_network();
  Topology topo;
  topo.num_nodes = 1024;
  const CostBreakdown c = cost_hierarchical(0, topo, net);
  EXPECT_EQ(c.beta1_bytes, 0.0);
  EXPECT_EQ(c.beta2_bytes, 0.0);
}

// --- functional ------------------------------------------------------------

TEST(HierFunctionalTest, BitIdenticalToFlatWhenStructuresCoincide) {
  // p = 16, q = 4, s = 4: identical per-element summation trees, so the
  // results must match BITWISE, not just within tolerance.
  Topology topo;
  topo.num_nodes = 16;
  topo.supernode_size = 4;
  for_all(0xB17ULL, 20, [&](Rng& rng, int) {
    const int n = 1 + static_cast<int>(rng.next_below(97));
    auto flat = random_data(rng, 16, n);
    auto hier = flat;
    fixtures::run_allreduce(AllreduceAlgo::kRhdRoundRobin, topo, flat);
    fixtures::run_allreduce(AllreduceAlgo::kHierarchical, topo, hier);
    for (int r = 0; r < 16; ++r) {
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(hier[r][i]),
                  std::bit_cast<std::uint32_t>(flat[r][i]))
            << "rank " << r << " elem " << i;
      }
    }
  });
}

TEST(HierFunctionalTest, RaggedSupernodeCountSumsCorrectly) {
  // p = 24, q = 8 -> s = 3 supernodes (non-power-of-two inter phase): every
  // rank must end with the same vector, equal to the true sum within float
  // tolerance (different summation order than flat is expected).
  Topology topo;
  topo.num_nodes = 24;
  topo.supernode_size = 8;
  for_all(0x247ULL, 20, [&](Rng& rng, int) {
    const int n = 1 + static_cast<int>(rng.next_below(64));
    auto data = random_data(rng, 24, n);
    std::vector<double> expect(n, 0.0);
    for (const auto& v : data) {
      for (int i = 0; i < n; ++i) expect[i] += v[i];
    }
    fixtures::run_allreduce(AllreduceAlgo::kHierarchical, topo, data);
    for (int r = 0; r < 24; ++r) {
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(data[r][i]),
                  std::bit_cast<std::uint32_t>(data[0][i]))
            << "rank " << r << " diverged at " << i;
        EXPECT_NEAR(data[r][i], expect[i], 1e-4 * std::abs(expect[i]) + 1e-5);
      }
    }
  });
}

TEST(HierFunctionalTest, FallbackIsBitwiseFlatRhd) {
  // Non-engaging geometries must run the flat algorithm verbatim: p not
  // divisible by q, p <= q (single supernode), q not a power of two.
  const NetParams net = sunway_network();
  for (auto [p, q] : {std::pair{10, 4}, {6, 8}, {12, 6}}) {
    Topology topo;
    topo.num_nodes = p;
    topo.supernode_size = q;
    Rng rng(0xFA11ULL + p * 31 + q);
    const int n = 33;
    auto flat = random_data(rng, p, n);
    auto hier = flat;
    fixtures::run_allreduce(AllreduceAlgo::kRhdRoundRobin, topo, flat);
    fixtures::run_allreduce(AllreduceAlgo::kHierarchical, topo, hier);
    EXPECT_EQ(cost_hierarchical(n * 4, topo, net).seconds,
              cost_rhd(n * 4, topo, net, Placement::kRoundRobin).seconds)
        << p << "/" << q;
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(hier[r][i]),
                  std::bit_cast<std::uint32_t>(flat[r][i]))
            << p << "/" << q << " rank " << r << " elem " << i;
      }
    }
  }
}

TEST(HierFunctionalTest, DeterministicAcrossReruns) {
  Topology topo;
  topo.num_nodes = 24;
  topo.supernode_size = 8;
  Rng rng(0xD373ULL);
  const auto base = random_data(rng, 24, 50);
  auto a = base;
  auto b = base;
  fixtures::run_allreduce(AllreduceAlgo::kHierarchical, topo, a);
  fixtures::run_allreduce(AllreduceAlgo::kHierarchical, topo, b);
  for (int r = 0; r < 24; ++r) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(a[r][i]),
                std::bit_cast<std::uint32_t>(b[r][i]));
    }
  }
}

TEST(HierFunctionalTest, ShortMessageLeavesEmptyChunks) {
  // n < q: some members own empty chunk spans; the reduction must still
  // complete and agree on every rank.
  Topology topo;
  topo.num_nodes = 16;
  topo.supernode_size = 8;
  Rng rng(0x5807ULL);
  auto data = random_data(rng, 16, 3);  // 3 floats across q = 8 members
  std::vector<double> expect(3, 0.0);
  for (const auto& v : data) {
    for (int i = 0; i < 3; ++i) expect[i] += v[i];
  }
  fixtures::run_allreduce(AllreduceAlgo::kHierarchical, topo, data);
  for (int r = 0; r < 16; ++r) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_NEAR(data[r][i], expect[i], 1e-5);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(data[r][i]),
                std::bit_cast<std::uint32_t>(data[0][i]));
    }
  }
}

TEST(HierFunctionalTest, CostMatchesAnalyticModel) {
  // The executed schedule, counted at rank 0 under the round-robin
  // placement, has exactly the terms the analytic pricing charges: phases
  // A and C all intra-supernode, phase B all crossing.
  const NetParams net = sunway_network();
  Topology topo;
  topo.num_nodes = 16;
  topo.supernode_size = 4;
  const fixtures::TermCount counted = fixtures::count_terms(
      hierarchical_schedule(topo, 64), 0, topo, Placement::kRoundRobin);
  const CostBreakdown analytic = cost_hierarchical(64 * 4, topo, net);
  EXPECT_EQ(counted.alpha, analytic.alpha_terms);
  EXPECT_EQ(counted.beta1, analytic.beta1_bytes);
  EXPECT_EQ(counted.beta2, analytic.beta2_bytes);
  EXPECT_EQ(counted.gamma, analytic.gamma_bytes);
}

}  // namespace
}  // namespace swcaffe::topo
