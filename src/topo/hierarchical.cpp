#include "topo/hierarchical.h"

#include <algorithm>

#include "base/log.h"

namespace swcaffe::topo {

namespace {

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

int log2i(int v) {
  int l = 0;
  while ((1 << l) < v) ++l;
  return l;
}

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

CostBreakdown allreduce_hierarchical(std::vector<std::vector<float>>& data,
                                     const Topology& topo,
                                     const NetParams& net) {
  std::vector<std::span<float>> spans;
  spans.reserve(data.size());
  for (auto& v : data) spans.emplace_back(v);
  return allreduce_hierarchical(spans, topo, net);
}

CostBreakdown allreduce_hierarchical(const std::vector<std::span<float>>& data,
                                     const Topology& topo,
                                     const NetParams& net) {
  const int p = static_cast<int>(data.size());
  SWC_CHECK_EQ(p, topo.num_nodes);
  if (!hierarchical_applicable(topo)) {
    return allreduce_rhd(data, topo, net, Placement::kRoundRobin);
  }
  const std::size_t n = data[0].size();
  for (const auto& v : data) SWC_CHECK_EQ(v.size(), n);
  const int q = topo.supernode_size;
  const int s = p / q;
  // Round-robin membership: rank r lives in supernode r % s as member
  // j = r / s, so member j of supernode k is rank k + j * s. The member
  // index carries the HIGH bits of the rank — phase A's butterfly over j is
  // exactly flat RHD's first log2(q) steps (global distances p/2 .. s).
  const auto rank = [s](int k, int j) { return k + j * s; };
  const int steps = log2i(q);
  std::vector<std::size_t> lo(q, 0), hi(q, n);

  // --- Phase A: supernode-local reduce-scatter ------------------------------
  for (int t = 0; t < steps; ++t) {
    const int d = q >> (t + 1);
    for (int j = 0; j < q; ++j) {
      const int pj = j ^ d;
      if (pj < j) continue;
      SWC_CHECK_EQ(lo[j], lo[pj]);
      SWC_CHECK_EQ(hi[j], hi[pj]);
      const std::size_t mid = (lo[j] + hi[j]) / 2;
      for (int k = 0; k < s; ++k) {
        const auto& mine = data[rank(k, j)];
        const auto& theirs = data[rank(k, pj)];
        for (std::size_t i = lo[j]; i < mid; ++i) mine[i] += theirs[i];
        for (std::size_t i = mid; i < hi[j]; ++i) theirs[i] += mine[i];
      }
      hi[j] = mid;
      lo[pj] = mid;
    }
  }

  // --- Phase B: inter-supernode all-reduce per chunk ------------------------
  // Member j of every supernode holds the group partial of [lo[j], hi[j]);
  // the s holders run a full RHD over it (fold/unfold included, so ragged
  // supernode counts like 40,960 / 256 = 160 work and only fold the chunk).
  Topology inter;
  inter.num_nodes = s;
  inter.supernode_size = 1;
  for (int j = 0; j < q; ++j) {
    if (hi[j] <= lo[j]) continue;  // n < q leaves some members chunkless
    std::vector<std::span<float>> chunk;
    chunk.reserve(s);
    for (int k = 0; k < s; ++k) {
      chunk.push_back(data[rank(k, j)].subspan(lo[j], hi[j] - lo[j]));
    }
    allreduce_rhd(chunk, inter, net, Placement::kAdjacent);
  }

  // --- Phase C: supernode-local all-gather ----------------------------------
  for (int t = steps - 1; t >= 0; --t) {
    const int d = q >> (t + 1);
    for (int j = 0; j < q; ++j) {
      const int pj = j ^ d;
      if (pj < j) continue;
      for (int k = 0; k < s; ++k) {
        const auto& mine = data[rank(k, j)];
        const auto& theirs = data[rank(k, pj)];
        for (std::size_t i = lo[pj]; i < hi[pj]; ++i) mine[i] = theirs[i];
        for (std::size_t i = lo[j]; i < hi[j]; ++i) theirs[i] = mine[i];
      }
      const std::size_t new_lo = std::min(lo[j], lo[pj]);
      const std::size_t new_hi = std::max(hi[j], hi[pj]);
      lo[j] = lo[pj] = new_lo;
      hi[j] = hi[pj] = new_hi;
    }
  }
  for (int j = 0; j < q; ++j) {
    SWC_CHECK_EQ(lo[j], 0u);
    SWC_CHECK_EQ(hi[j], n);
  }
  return cost_hierarchical(static_cast<std::int64_t>(n) * 4, topo, net);
}

}  // namespace swcaffe::topo
