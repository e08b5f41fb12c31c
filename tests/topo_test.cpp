// Topology, network cost model and all-reduce algorithms — including the
// exact Fig. 7 cost-coefficient invariants of the paper's contribution.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "base/log.h"
#include "base/rng.h"
#include "check/rules.h"
#include "collective_fixtures.h"
#include "topo/allreduce.h"
#include "topo/collective.h"
#include "topo/network_model.h"
#include "topo/topology.h"
#include "trace/tracer.h"

namespace swcaffe::topo {
namespace {

std::vector<std::vector<float>> random_data(int p, std::size_t n,
                                            std::uint64_t seed) {
  base::Rng rng(seed);
  std::vector<std::vector<float>> data(p, std::vector<float>(n));
  for (auto& v : data) {
    for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
  }
  return data;
}

std::vector<float> column_sums(const std::vector<std::vector<float>>& data) {
  std::vector<float> sum(data[0].size(), 0.0f);
  for (const auto& v : data) {
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += v[i];
  }
  return sum;
}

TEST(TopologyTest, AdjacentPlacementFillsSupernodesInOrder) {
  Topology t{8, 4};
  EXPECT_EQ(t.num_supernodes(), 2);
  EXPECT_EQ(t.supernode_of(0, Placement::kAdjacent), 0);
  EXPECT_EQ(t.supernode_of(3, Placement::kAdjacent), 0);
  EXPECT_EQ(t.supernode_of(4, Placement::kAdjacent), 1);
  EXPECT_EQ(t.supernode_of(7, Placement::kAdjacent), 1);
}

TEST(TopologyTest, RoundRobinDealsRanks) {
  Topology t{8, 4};
  // Paper Fig. 7: nodes 0,2,4,6 in one supernode, 1,3,5,7 in the other.
  EXPECT_EQ(t.supernode_of(0, Placement::kRoundRobin), 0);
  EXPECT_EQ(t.supernode_of(1, Placement::kRoundRobin), 1);
  EXPECT_EQ(t.supernode_of(4, Placement::kRoundRobin), 0);
  EXPECT_EQ(t.supernode_of(5, Placement::kRoundRobin), 1);
}

TEST(TopologyTest, SingleSupernodeNeverCrosses) {
  Topology t{64, 256};
  for (int r = 1; r < 64; r *= 2) {
    EXPECT_FALSE(t.crosses(0, r, Placement::kAdjacent));
    EXPECT_FALSE(t.crosses(0, r, Placement::kRoundRobin));
  }
}

TEST(NetworkModelTest, SunwayBeatsInfinibandOnPeakBandwidth) {
  // Fig. 6 left: SW reaches ~12 GB/s, Infiniband FDR ~6.8 GB/s.
  const NetParams sw = sunway_network(), ib = infiniband_fdr();
  EXPECT_GT(p2p_bandwidth(sw, 4 << 20, false, false),
            p2p_bandwidth(ib, 4 << 20, false, false));
  EXPECT_GT(p2p_bandwidth(sw, 4 << 20, false, false), 11e9);
}

TEST(NetworkModelTest, SunwayLatencyWorseAboveEagerLimit) {
  // Fig. 6 right: above 2 KB the Sunway network's latency exceeds
  // Infiniband's.
  const NetParams sw = sunway_network(), ib = infiniband_fdr();
  for (std::int64_t n : {4 << 10, 64 << 10, 1 << 20}) {
    EXPECT_GT(p2p_latency(sw, n), p2p_latency(ib, n)) << n;
  }
}

TEST(NetworkModelTest, OversubscriptionQuartersBandwidth) {
  const NetParams sw = sunway_network();
  const double full = p2p_bandwidth(sw, 1 << 20, false, false);
  const double over = p2p_bandwidth(sw, 1 << 20, false, true);
  EXPECT_NEAR(full / over, 4.0, 1e-9);
}

TEST(NetworkModelTest, StepTimeDetectsUplinkContention) {
  const NetParams sw = sunway_network();
  Topology topo{8, 4};
  // All four nodes of supernode 0 send to supernode 1: 4 flows share an
  // uplink worth q/oversub = 1 link -> per-flow rate link/4.
  std::vector<std::pair<int, int>> cross_flows{{0, 4}, {1, 5}, {2, 6}, {3, 7}};
  const std::int64_t bytes = 1 << 20;
  const double t_cross =
      step_time(sw, topo, Placement::kAdjacent, cross_flows, bytes);
  std::vector<std::pair<int, int>> intra_flows{{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  const double t_intra =
      step_time(sw, topo, Placement::kAdjacent, intra_flows, bytes);
  EXPECT_NEAR((t_cross - sw.alpha - sw.alpha_rendezvous) /
                  (t_intra - sw.alpha - sw.alpha_rendezvous),
              4.0, 1e-6);
}

// --- Functional all-reduce correctness --------------------------------------------

class AllreduceCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, Placement>> {
};

TEST_P(AllreduceCorrectnessTest, RhdComputesElementwiseSum) {
  const auto [p, n, placement] = GetParam();
  Topology topo{p, 4};
  auto data = random_data(p, n, 1000 + p);
  const auto expected = column_sums(data);
  fixtures::run_allreduce(placement == Placement::kAdjacent
                              ? AllreduceAlgo::kRhdAdjacent
                              : AllreduceAlgo::kRhdRoundRobin,
                          topo, data);
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(data[r][i], expected[i], 1e-4) << "rank " << r << " idx " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    NodeCounts, AllreduceCorrectnessTest,
    ::testing::Combine(
        // Powers of two exercise the core algorithm; the rest exercise the
        // MPICH fold/unfold path for arbitrary node counts.
        ::testing::Values(2, 3, 4, 5, 6, 8, 13, 16, 64, 100),
        ::testing::Values<std::size_t>(1, 7, 64, 1000),
        ::testing::Values(Placement::kAdjacent, Placement::kRoundRobin)));

TEST(AllreduceCostTest, NonPowerOfTwoPaysTwoFoldSteps) {
  const NetParams net = sunway_network();
  Topology even{8, 4}, odd{12, 4};
  const auto c8 = cost_rhd(1 << 20, even, net, Placement::kAdjacent);
  const auto c12 = cost_rhd(1 << 20, odd, net, Placement::kAdjacent);
  // 12 nodes = 8-node core + fold/unfold of the full message.
  EXPECT_EQ(c12.alpha_terms, c8.alpha_terms + 2);
  EXPECT_NEAR(c12.gamma_bytes - c8.gamma_bytes, 1 << 20, 1.0);
}

TEST(AllreduceTest, RingComputesSumForAnyNodeCount) {
  for (int p : {2, 3, 5, 8, 13}) {
    Topology topo{p, 4};
    auto data = random_data(p, 37, 3000 + p);
    const auto expected = column_sums(data);
    fixtures::run_allreduce(AllreduceAlgo::kRing, topo, data);
    for (int r = 0; r < p; ++r) {
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_NEAR(data[r][i], expected[i], 1e-4) << p << "/" << r;
      }
    }
  }
}

TEST(AllreduceTest, ParamServerComputesSum) {
  Topology topo{5, 4};
  auto data = random_data(5, 16, 4);
  const auto expected = column_sums(data);
  fixtures::run_allreduce(AllreduceAlgo::kParamServer, topo, data);
  for (const auto& v : data) {
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(v[i], expected[i], 1e-4);
    }
  }
}

// --- Fig. 7 cost invariants -------------------------------------------------------

TEST(AllreduceCostTest, Fig7OriginalCoefficients) {
  // p=8 nodes in 2 supernodes of q=4, adjacent placement:
  // cost = 6a + (7/8)n*gamma + (3/4)n*beta1 + n*beta2.
  Topology topo{8, 4};
  const double n = 1024.0;
  const auto c = cost_rhd(1024, topo, sunway_network(), Placement::kAdjacent);
  EXPECT_EQ(c.alpha_terms, 6);
  EXPECT_NEAR(c.beta1_bytes, 0.75 * n, 1e-9);
  EXPECT_NEAR(c.beta2_bytes, 1.0 * n, 1e-9);
  EXPECT_NEAR(c.gamma_bytes, 7.0 / 8.0 * n, 1e-9);
}

TEST(AllreduceCostTest, Fig7ImprovedCoefficients) {
  // Round-robin placement: cost = 6a + (7/8)n*gamma + (3/2)n*beta1 +
  // (1/4)n*beta2 — the cross-supernode coefficient drops from n to n/4.
  Topology topo{8, 4};
  const double n = 1024.0;
  const auto c = cost_rhd(1024, topo, sunway_network(), Placement::kRoundRobin);
  EXPECT_EQ(c.alpha_terms, 6);
  EXPECT_NEAR(c.beta1_bytes, 1.5 * n, 1e-9);
  EXPECT_NEAR(c.beta2_bytes, 0.25 * n, 1e-9);
  EXPECT_NEAR(c.gamma_bytes, 7.0 / 8.0 * n, 1e-9);
}

TEST(AllreduceCostTest, GeneralCoefficientsMatchEquations) {
  // Eq. 3/4: original beta2 coefficient (p-q)/p; Eq. 5/6: improved
  // (p/q-1)/p — checked across several topologies (x2 for the two phases).
  for (const auto& [p, q] : std::vector<std::pair<int, int>>{
           {8, 4}, {16, 4}, {64, 16}, {1024, 256}}) {
    Topology topo{p, q};
    const double n = 4096.0;
    const auto adj = cost_rhd(4096, topo, sunway_network(),
                              Placement::kAdjacent);
    const auto rr = cost_rhd(4096, topo, sunway_network(),
                             Placement::kRoundRobin);
    EXPECT_NEAR(adj.beta2_bytes, 2.0 * (p - q) / p * n, 1e-6)
        << "p=" << p << " q=" << q;
    EXPECT_NEAR(rr.beta2_bytes, 2.0 * (static_cast<double>(p) / q - 1) / p * n,
                1e-6)
        << "p=" << p << " q=" << q;
    // The improvement claim: less over-subscribed traffic, same latency.
    EXPECT_LT(rr.beta2_bytes, adj.beta2_bytes);
    EXPECT_EQ(rr.alpha_terms, adj.alpha_terms);
    EXPECT_LT(rr.seconds, adj.seconds);
  }
}

TEST(AllreduceCostTest, FunctionalAndAnalyticCostsAgree) {
  // The schedule that sums the data has, counted at rank 0, exactly the
  // terms the analytic price charges, under both placements.
  Topology topo{16, 4};
  auto data = random_data(16, 256, 5);
  const auto expected = column_sums(data);
  fixtures::run_allreduce(AllreduceAlgo::kRhdRoundRobin, topo, data);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_NEAR(data[15][i], expected[i], 1e-4);
  }
  for (Placement placement : {Placement::kAdjacent, Placement::kRoundRobin}) {
    const fixtures::TermCount counted =
        fixtures::count_terms(rhd_schedule(16, 256), 0, topo, placement);
    const auto analytic = cost_rhd(256 * 4, topo, sunway_network(), placement);
    EXPECT_EQ(counted.alpha, analytic.alpha_terms);
    EXPECT_EQ(counted.beta1, analytic.beta1_bytes);
    EXPECT_EQ(counted.beta2, analytic.beta2_bytes);
    EXPECT_EQ(counted.gamma, analytic.gamma_bytes);
  }
}

TEST(AllreduceCostTest, RingPaysLinearLatency) {
  // The paper rejects ring all-reduce on Sunway: its latency term is
  // p*alpha against the binomial algorithm's 2*log2(p)*alpha.
  Topology topo{1024, 256};
  const auto ring = cost_ring(1 << 20, topo, sunway_network(),
                              Placement::kAdjacent);
  const auto rhd = cost_rhd(1 << 20, topo, sunway_network(),
                            Placement::kRoundRobin);
  EXPECT_EQ(ring.alpha_terms, 2 * 1023);
  EXPECT_EQ(rhd.alpha_terms, 20);
  EXPECT_GT(ring.seconds, rhd.seconds);
}

TEST(AllreduceCostTest, ParamServerSerializesAtServerPort) {
  // Sec. V-A: the single network port of a parameter server is the
  // bottleneck; cost grows linearly with p while rhd grows ~log p.
  const std::int64_t n = 100 << 20;
  const NetParams net = sunway_network();
  Topology small{64, 256}, large{1024, 256};
  const auto ps_small = cost_param_server(n, small, net, 1);
  const auto ps_large = cost_param_server(n, large, net, 1);
  EXPECT_NEAR(ps_large.seconds / ps_small.seconds, 16.0, 0.5);
  const auto rhd_large = cost_rhd(n, large, net, Placement::kRoundRobin);
  EXPECT_GT(ps_large.seconds, 10.0 * rhd_large.seconds);
}

TEST(AllreduceCostTest, SingleNodeIsFree) {
  Topology topo{1, 256};
  const auto c = cost_rhd(1 << 20, topo, sunway_network(),
                          Placement::kAdjacent);
  EXPECT_EQ(c.seconds, 0.0);
  auto data = random_data(1, 8, 6);
  const auto expected = data[0];
  fixtures::run_allreduce(AllreduceAlgo::kRhdAdjacent, topo, data);
  EXPECT_EQ(data[0], expected);
}

// --- Algorithm-agreement edge cases -----------------------------------------------

TEST(AllreduceEdgeTest, RingAndRhdAgreeAtOneNode) {
  // Both algorithms must degenerate to a free no-op on a single rank: no
  // ops, no time, no traffic, payload untouched bit-for-bit.
  Topology topo{1, 256};
  const NetParams net = sunway_network();
  using CostFn = CostBreakdown (*)(std::int64_t, const Topology&,
                                   const NetParams&, Placement);
  const std::pair<AllreduceAlgo, CostFn> algos[] = {
      {AllreduceAlgo::kRing, &cost_ring}, {AllreduceAlgo::kRhdAdjacent, &cost_rhd}};
  for (const auto& [algo, cost] : algos) {
    auto data = random_data(1, 23, 77);
    const auto expected = data[0];
    EXPECT_TRUE(collective_schedule(algo, topo, 23).ops.empty());
    fixtures::run_allreduce(algo, topo, data);
    const CostBreakdown c = cost(23 * 4, topo, net, Placement::kAdjacent);
    EXPECT_EQ(c.seconds, 0.0);
    EXPECT_EQ(c.alpha_terms, 0);
    EXPECT_EQ(c.beta1_bytes + c.beta2_bytes + c.gamma_bytes, 0.0);
    EXPECT_EQ(data[0], expected);
  }
  EXPECT_EQ(cost_ring(1 << 20, topo, net, Placement::kAdjacent).seconds, 0.0);
}

TEST(AllreduceEdgeTest, RingAndRhdAgreeOnNonPowerOfTwoSums) {
  // The fold/unfold path of RHD and the linear ring must compute the same
  // elementwise sum for awkward rank counts (non-power-of-two, prime).
  for (int p : {3, 5, 6, 7, 12, 13}) {
    Topology topo{p, 4};
    auto ring_data = random_data(p, 41, 9000 + p);
    auto rhd_data = ring_data;  // identical inputs
    const auto expected = column_sums(ring_data);
    fixtures::run_allreduce(AllreduceAlgo::kRing, topo, ring_data);
    fixtures::run_allreduce(AllreduceAlgo::kRhdAdjacent, topo, rhd_data);
    for (int r = 0; r < p; ++r) {
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_NEAR(ring_data[r][i], expected[i], 1e-4) << "ring p=" << p;
        ASSERT_NEAR(rhd_data[r][i], expected[i], 1e-4) << "rhd p=" << p;
      }
    }
  }
}

TEST(AllreduceEdgeTest, NonPowerOfTwoCostsStayFiniteAndOrdered) {
  // Analytic costs at awkward counts: positive, finite, and more ranks of
  // the same message never make the ring cheaper (its latency is linear).
  const NetParams net = sunway_network();
  double prev_ring = 0.0;
  for (int p : {3, 5, 6, 7, 12, 13}) {
    Topology topo{p, 4};
    const auto ring = cost_ring(1 << 20, topo, net, Placement::kAdjacent);
    const auto rhd = cost_rhd(1 << 20, topo, net, Placement::kAdjacent);
    EXPECT_GT(ring.seconds, 0.0) << p;
    EXPECT_GT(rhd.seconds, 0.0) << p;
    EXPECT_EQ(ring.alpha_terms, 2 * (p - 1)) << p;
    EXPECT_GT(ring.seconds, prev_ring) << p;
    prev_ring = ring.seconds;
  }
}

// --- Degenerate payload handling --------------------------------------------------

TEST(AllreducePayloadTest, ZeroBytePayloadIsClampedToEmptyBreakdown) {
  Topology topo{8, 4};
  const NetParams net = sunway_network();
  for (const CostBreakdown& c :
       {cost_ring(0, topo, net, Placement::kAdjacent),
        cost_rhd(0, topo, net, Placement::kAdjacent),
        cost_param_server(0, topo, net, 2)}) {
    EXPECT_EQ(c.seconds, 0.0);
    EXPECT_EQ(c.alpha_terms, 0);
    EXPECT_EQ(c.beta1_bytes, 0.0);
    EXPECT_EQ(c.beta2_bytes, 0.0);
    EXPECT_EQ(c.gamma_bytes, 0.0);
  }
}

TEST(AllreducePayloadTest, ZeroBytePayloadEmitsNoTraceSpan) {
  // Consistent with the p==1 early-out: a degenerate collective must not
  // fabricate a "comm.allreduce" span of zero duration.
  Topology topo{8, 4};
  const NetParams net = sunway_network();
  trace::Tracer tracer;
  trace_allreduce(&tracer, 0, "allreduce.ring",
                  cost_ring(0, topo, net, Placement::kAdjacent));
  trace_allreduce(&tracer, 0, "allreduce.rhd",
                  cost_rhd(0, topo, net, Placement::kAdjacent));
  trace_allreduce(&tracer, 0, "allreduce.param_server",
                  cost_param_server(0, topo, net, 2));
  trace_allreduce(&tracer, 0, "allreduce.rhd",
                  cost_rhd(1 << 20, Topology{1, 4}, net,
                           Placement::kAdjacent));  // one node
  EXPECT_TRUE(tracer.log().empty());
}

TEST(AllreducePayloadTest, NegativePayloadIsRejectedWithDiagnostic) {
  Topology topo{8, 4};
  const NetParams net = sunway_network();
  EXPECT_THROW(cost_ring(-1, topo, net, Placement::kAdjacent),
               base::CheckError);
  EXPECT_THROW(cost_rhd(-4096, topo, net, Placement::kAdjacent),
               base::CheckError);
  EXPECT_THROW(cost_param_server(-1, topo, net, 2), base::CheckError);
  try {
    cost_ring(-7, topo, net, Placement::kAdjacent);
    FAIL() << "negative payload must throw";
  } catch (const base::CheckError& e) {
    // The diagnostic names the offending size so the caller can find it.
    EXPECT_NE(std::string(e.what()).find("-7"), std::string::npos) << e.what();
  }
}

TEST(AllreduceAlgoNamesTest, NameContractRoundTripsAndFeedsTheCommRule) {
  // from_name(name(a)) == a for every collective.
  for (AllreduceAlgo a : kAllreduceAlgos) {
    AllreduceAlgo back = a == AllreduceAlgo::kRing
                             ? AllreduceAlgo::kHierarchical
                             : AllreduceAlgo::kRing;
    EXPECT_TRUE(allreduce_algo_from_name(allreduce_algo_name(a), &back))
        << allreduce_algo_name(a);
    EXPECT_EQ(back, a) << allreduce_algo_name(a);
  }
  // Unknown, empty and null names are rejected and leave *out untouched.
  for (const char* bad :
       std::initializer_list<const char*>{"butterfly", "", "RING", "rhd",
                                          nullptr}) {
    AllreduceAlgo out = AllreduceAlgo::kParamServer;
    EXPECT_FALSE(allreduce_algo_from_name(bad, &out)) << (bad ? bad : "null");
    EXPECT_EQ(out, AllreduceAlgo::kParamServer);
  }
  // swcheck's comm rule takes its name list from the enum: it accepts every
  // canonical name and rejects one outside the list.
  const auto comm_report = [](const std::string& algorithm) {
    check::CommPlan plan;
    plan.name = "names";
    plan.algorithm = algorithm;
    plan.num_nodes = 64;
    plan.raw_bytes = 1 << 20;
    check::Report report;
    check::check_comm(plan, check::Options{}, plan.name, &report);
    return report;
  };
  for (AllreduceAlgo a : kAllreduceAlgos) {
    const check::Report report = comm_report(allreduce_algo_name(a));
    EXPECT_TRUE(report.empty()) << report.summary();
  }
  EXPECT_TRUE(comm_report("butterfly").has(check::Code::kGeomInvalid));
}

}  // namespace
}  // namespace swcaffe::topo
