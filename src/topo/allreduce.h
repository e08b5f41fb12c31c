// All-reduce algorithms over the simulated cluster (paper Sec. V-A).
//
// Functional variants move real float buffers between in-process ranks and
// return the same cost breakdown the analytic variants compute, so the cost
// model is validated against the data movement it claims to describe
// (Fig. 7 invariants in tests/topo).
//
// Algorithms:
//  * recursive halving + recursive doubling (MPICH binomial; the paper's
//    baseline and, with round-robin placement, its improved version)
//  * ring (Patarasuk & Yuan; rejected by the paper for its p*alpha latency)
//  * parameter server push/pull (rejected for the single-port bottleneck)
//
// Pricing is pure. The caller that owns a collective records it once with
// trace_allreduce: one "comm.allreduce" span of the breakdown's duration
// with the per-node network volume charged and the alpha/beta1/beta2/gamma
// terms emitted as counter samples (the Fig. 7 decomposition,
// machine-readable).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "topo/network_model.h"
#include "topo/topology.h"
#include "trace/tracer.h"

namespace swcaffe::topo {

/// The gradient collectives the trainer, scheduler, tuner and checker
/// choose between. kHierarchical is the two-level supernode-aware
/// all-reduce (topo/hierarchical): supernode-local reduce-scatter,
/// inter-supernode improved RHD over chunk representatives, supernode-local
/// all-gather. Falls back to flat improved RHD when the topology can't be
/// split (see hierarchical_applicable).
enum class AllreduceAlgo {
  kRhdAdjacent,
  kRhdRoundRobin,
  kRing,
  kParamServer,
  kHierarchical
};

/// Every AllreduceAlgo, in declaration order.
inline constexpr AllreduceAlgo kAllreduceAlgos[] = {
    AllreduceAlgo::kRhdAdjacent, AllreduceAlgo::kRhdRoundRobin,
    AllreduceAlgo::kRing, AllreduceAlgo::kParamServer,
    AllreduceAlgo::kHierarchical};

/// Canonical name: "rhd-adjacent" / "rhd-round-robin" / "ring" /
/// "param-server" / "hierarchical".
const char* allreduce_algo_name(AllreduceAlgo algo);

/// Inverse of allreduce_algo_name; returns false on an unknown (or null)
/// name, leaving *out untouched. For CLI flag and plan parsing.
bool allreduce_algo_from_name(const char* name, AllreduceAlgo* out);

/// Topology placement implied by the collective: only the paper's improved
/// RHD mapping deals ranks to supernodes round-robin; everything else keeps
/// the default adjacent mapping. Shared by the trainer, the pricing paths
/// and the cluster scheduler's gang allocator (sched::Cluster), so a gang is
/// laid out exactly the way its collective expects to find the ranks.
Placement placement_for(AllreduceAlgo algo);

/// Tracer span name of one `algo` all-reduce ("allreduce.rhd",
/// "allreduce.ring", ...).
const char* allreduce_span_name(AllreduceAlgo algo);

/// Per-node cost decomposition in the paper's alpha/beta/gamma terms.
struct CostBreakdown {
  double seconds = 0.0;
  int alpha_terms = 0;        ///< number of sequential message startups
  double beta1_bytes = 0.0;   ///< per-node bytes moved intra-supernode
  double beta2_bytes = 0.0;   ///< per-node bytes moved cross-supernode
  double gamma_bytes = 0.0;   ///< per-node bytes locally reduced

  /// Term-by-term sum: the cost of running `part` after this collective.
  CostBreakdown& operator+=(const CostBreakdown& part) {
    seconds += part.seconds;
    alpha_terms += part.alpha_terms;
    beta1_bytes += part.beta1_bytes;
    beta2_bytes += part.beta2_bytes;
    gamma_bytes += part.gamma_bytes;
    return *this;
  }
};

/// Records one finished all-reduce in `tracer` at its track clock: a span of
/// `breakdown.seconds` named `name` plus alpha/beta/gamma counters. No-op
/// when `tracer` is null or the collective is degenerate (zero seconds: one
/// node or an empty payload) — it does not fabricate a zero-length span.
void trace_allreduce(trace::Tracer* tracer, int track, std::string name,
                     const CostBreakdown& breakdown);

/// Recursive-halving reduce-scatter + recursive-doubling allgather.
/// Functional: `data[r]` is rank r's vector; on return every rank holds the
/// elementwise sum. Non-power-of-2 node counts use MPICH's fold/unfold
/// scheme (extra ranks merge into a neighbour before the core algorithm and
/// receive the result after it).
CostBreakdown allreduce_rhd(std::vector<std::vector<float>>& data,
                            const Topology& topo, const NetParams& net,
                            Placement placement);

/// Span variant: reduces `data[r]` in place where each span views rank r's
/// slice of a larger buffer (the bucketed all-reduce reduces one
/// layer-aligned bucket per call). Identical arithmetic and identical cost
/// to the vector variant over the same elements.
CostBreakdown allreduce_rhd(const std::vector<std::span<float>>& data,
                            const Topology& topo, const NetParams& net,
                            Placement placement);

/// Analytic cost of the same algorithm for arbitrary message size (used at
/// 1024-node scale where functional buffers would not fit).
CostBreakdown cost_rhd(std::int64_t bytes, const Topology& topo,
                       const NetParams& net, Placement placement);

/// Ring all-reduce (reduce-scatter ring + allgather ring).
CostBreakdown allreduce_ring(std::vector<std::vector<float>>& data,
                             const Topology& topo, const NetParams& net,
                             Placement placement);
CostBreakdown allreduce_ring(const std::vector<std::span<float>>& data,
                             const Topology& topo, const NetParams& net,
                             Placement placement);
CostBreakdown cost_ring(std::int64_t bytes, const Topology& topo,
                        const NetParams& net, Placement placement);

/// Parameter-server synchronization: workers push gradients to `servers`
/// shards, servers reduce and broadcast back. Functional result equals the
/// all-reduce sum on every rank.
CostBreakdown allreduce_param_server(std::vector<std::vector<float>>& data,
                                     const Topology& topo,
                                     const NetParams& net, int servers);
CostBreakdown allreduce_param_server(const std::vector<std::span<float>>& data,
                                     const Topology& topo,
                                     const NetParams& net, int servers);
CostBreakdown cost_param_server(std::int64_t bytes, const Topology& topo,
                                const NetParams& net, int servers);

}  // namespace swcaffe::topo
