// Two-level (supernode-hierarchical) all-reduce (ROADMAP item 4).
//
// The paper's improved placement keeps the *large* recursive-halving
// exchanges inside a supernode by dealing ranks round-robin; this module
// takes the idea to its conclusion and makes the hierarchy explicit:
//
//   phase A — supernode-local reduce-scatter: the q members of each
//             supernode binary-halve the full message down to 1/q chunks
//             over full-bandwidth intra-supernode links;
//   phase B — inter-supernode all-reduce: for each chunk, the s supernode
//             representatives holding it run the improved RHD over the
//             oversubscribed central switch — on 1/q of the bytes, with all
//             q chunk collectives sharing the uplink concurrently;
//   phase C — supernode-local all-gather: the mirror of phase A.
//
// For p = q * s with q and s powers of two this is *exactly* the flat RHD
// under round-robin placement (phase A = the high-bit butterfly steps, all
// intra; phase B = the low-bit steps, all cross), so the functional result
// is bit-identical and the priced cost matches to float-summation order.
// The hierarchy pays off off the beaten path: when s is not a power of two
// (40,960 = 160 x 256 full-machine), flat RHD folds the FULL message
// between ragged ranks while phase B folds only the 1/q chunk — the
// difference between a multi-second fold penalty and a near-linear point.
//
// Edge cases fall back to flat RHD with round-robin placement (the paper's
// improved baseline): a single supernode, node counts not divisible by the
// supernode size, and non-power-of-two supernode sizes (pinned by
// tests/hierarchical_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "topo/allreduce.h"
#include "topo/network_model.h"
#include "topo/topology.h"

namespace swcaffe::topo {

/// True when the two-level algorithm engages: more than one supernode, node
/// count divisible by the supernode size, and a power-of-two supernode size
/// of at least 2 (so the local phases are real butterflies). Everything
/// else falls back to flat RHD round-robin.
bool hierarchical_applicable(const Topology& topo);

/// Analytic cost of the two-level all-reduce, composed from the existing
/// cost model: phases A+C price as one supernode-local RHD of the full
/// message (q nodes, no crossings), phase B as an RHD of the 1/q chunk over
/// s single-node "supernodes" (every step crosses, per-flow uplink share
/// link_bw / oversub). Falls back to cost_rhd round-robin when the
/// hierarchy is not applicable.
CostBreakdown cost_hierarchical(std::int64_t bytes, const Topology& topo,
                                const NetParams& net);

/// Functional two-level all-reduce: `data[r]` is rank r's vector; on return
/// every rank holds the elementwise sum. Supernode membership follows the
/// round-robin placement the algorithm implies (rank r lives in supernode
/// r % s), and the phase arithmetic reproduces flat RHD's per-element
/// summation trees whenever s is a power of two — bit-identical results.
CostBreakdown allreduce_hierarchical(std::vector<std::vector<float>>& data,
                                     const Topology& topo,
                                     const NetParams& net);
CostBreakdown allreduce_hierarchical(const std::vector<std::span<float>>& data,
                                     const Topology& topo,
                                     const NetParams& net);

}  // namespace swcaffe::topo
