#include "topo/hierarchical.h"

namespace swcaffe::topo {

namespace {

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

}  // namespace

bool hierarchical_applicable(const Topology& topo) {
  const int p = topo.num_nodes;
  const int q = topo.supernode_size;
  return p > q && q >= 2 && p % q == 0 && is_pow2(q);
}

CostBreakdown cost_hierarchical(std::int64_t bytes, const Topology& topo,
                                const NetParams& net) {
  if (!hierarchical_applicable(topo) || bytes == 0) {
    return cost_rhd(bytes, topo, net, Placement::kRoundRobin);
  }
  const int q = topo.supernode_size;
  const int s = topo.num_nodes / q;

  // Phases A + C: one full supernode-local RHD of the whole message (the
  // reduce-scatter is its first half, the all-gather its second). A q-node
  // topology with supernode_size q never crosses, so every byte is beta1.
  Topology local;
  local.num_nodes = q;
  local.supernode_size = q;
  CostBreakdown cost = cost_rhd(bytes, local, net, Placement::kAdjacent);

  // Phase B: each member runs the RHD of its 1/q chunk across the s
  // supernodes. supernode_size 1 makes every step cross; the per-flow
  // uplink share (link_bw / oversub) models the q concurrent chunk
  // collectives saturating the supernode's q/oversub uplink equivalents.
  Topology inter;
  inter.num_nodes = s;
  inter.supernode_size = 1;
  const std::int64_t chunk = (bytes + q - 1) / q;
  cost += cost_rhd(chunk, inter, net, Placement::kAdjacent);
  return cost;
}

}  // namespace swcaffe::topo
