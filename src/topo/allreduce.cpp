#include "topo/allreduce.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "base/log.h"

namespace swcaffe::topo {

const char* allreduce_algo_name(AllreduceAlgo algo) {
  switch (algo) {
    case AllreduceAlgo::kRhdAdjacent:
      return "rhd-adjacent";
    case AllreduceAlgo::kRhdRoundRobin:
      return "rhd-round-robin";
    case AllreduceAlgo::kRing:
      return "ring";
    case AllreduceAlgo::kParamServer:
      return "param-server";
    case AllreduceAlgo::kHierarchical:
      return "hierarchical";
  }
  return "?";
}

bool allreduce_algo_from_name(const char* name, AllreduceAlgo* out) {
  const std::string_view n = name ? name : "";
  for (AllreduceAlgo algo : kAllreduceAlgos) {
    if (n == allreduce_algo_name(algo)) {
      *out = algo;
      return true;
    }
  }
  return false;
}

Placement placement_for(AllreduceAlgo algo) {
  switch (algo) {
    case AllreduceAlgo::kRhdAdjacent:
    case AllreduceAlgo::kRing:
    case AllreduceAlgo::kParamServer:
      return Placement::kAdjacent;
    case AllreduceAlgo::kRhdRoundRobin:
    // The hierarchical algorithm's two-level phase structure is exactly the
    // improved RHD butterfly under round-robin placement, so a gang laid out
    // round-robin serves both (and the flat fallback is bit-identical).
    case AllreduceAlgo::kHierarchical:
      return Placement::kRoundRobin;
  }
  return Placement::kAdjacent;
}

const char* allreduce_span_name(AllreduceAlgo algo) {
  switch (algo) {
    case AllreduceAlgo::kRhdAdjacent:
    case AllreduceAlgo::kRhdRoundRobin:
      return "allreduce.rhd";
    case AllreduceAlgo::kRing:
      return "allreduce.ring";
    case AllreduceAlgo::kParamServer:
      return "allreduce.param_server";
    case AllreduceAlgo::kHierarchical:
      return "allreduce.hier";
  }
  return "allreduce";
}

namespace {

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

int log2i(int v) {
  int l = 0;
  while ((1 << l) < v) ++l;
  return l;
}

/// Adds one symmetric step (every rank exchanges `bytes` with rank^d) to the
/// breakdown; returns whether the step crossed supernodes.
void charge_step(CostBreakdown& cost, const Topology& topo,
                 const NetParams& net, Placement placement, int d,
                 double bytes, bool reduce) {
  const bool cross = topo.num_nodes > 1 && topo.crosses(0, d, placement);
  // Flow accounting: in a crossing step every node of a supernode sends out,
  // so q flows share the q/oversub uplink equivalents. Collective steps only
  // sustain a calibrated fraction of the per-flow wire rate (see NetParams).
  double flow_bw = net.link_bw;
  if (cross) {
    const int egress = std::min(topo.supernode_size, topo.num_nodes);
    flow_bw = std::min(flow_bw,
                       topo.supernode_size * net.link_bw / net.oversub / egress);
  }
  flow_bw *= net.collective_efficiency;
  double alpha = net.alpha + net.alpha_collective;
  if (bytes > static_cast<double>(net.eager_limit)) alpha += net.alpha_rendezvous;
  cost.seconds += alpha + bytes / flow_bw;
  cost.alpha_terms += 1;
  if (cross) {
    cost.beta2_bytes += bytes;
  } else {
    cost.beta1_bytes += bytes;
  }
  if (reduce) {
    cost.seconds += bytes * net.gamma();
    cost.gamma_bytes += bytes;
  }
}

}  // namespace

namespace {

int pow2_floor(int v) {
  int r = 1;
  while (r * 2 <= v) r *= 2;
  return r;
}

/// Cost of the MPICH fold/unfold steps for non-power-of-2 node counts: the
/// extra ranks each exchange the full message with a neighbour before and
/// after the core algorithm (Thakur et al. Sec. 4).
void charge_fold(CostBreakdown& cost, const Topology& topo,
                 const NetParams& net, Placement placement,
                 std::int64_t bytes) {
  // Neighbour pairs are rank-adjacent; crossing depends on the placement.
  charge_step(cost, topo, net, placement, /*d=*/1,
              static_cast<double>(bytes), /*reduce=*/true);   // fold in
  charge_step(cost, topo, net, placement, /*d=*/1,
              static_cast<double>(bytes), /*reduce=*/false);  // result out
}

}  // namespace

namespace {

/// Payload sanity shared by every cost path: negative byte counts are a
/// caller bug (a silently wrapped size would price the collective at garbage
/// rates), zero bytes is a degenerate-but-legal collective that costs
/// nothing. Returns true when the payload is empty and the cost should
/// clamp to the zero breakdown.
bool clamp_empty_payload(const char* algorithm, std::int64_t bytes) {
  SWC_CHECK_MSG(bytes >= 0, algorithm << ": negative payload (" << bytes
                                      << " bytes); message sizes must be >= 0");
  if (bytes == 0) {
    SWC_LOG(kWarning,
            algorithm << ": zero-byte payload, charging an empty collective");
    return true;
  }
  return false;
}

}  // namespace

void trace_allreduce(trace::Tracer* tracer, int track, std::string name,
                     const CostBreakdown& breakdown) {
  if (!tracer || breakdown.seconds == 0.0) return;
  tracer->begin_span(track, std::move(name), "comm.allreduce");
  sim::TrafficCounters c;
  c.net_bytes = static_cast<std::size_t>(breakdown.beta1_bytes +
                                         breakdown.beta2_bytes);
  tracer->charge(track, c);
  tracer->counter(track, trace::kCounterAlphaTerms, breakdown.alpha_terms);
  tracer->counter(track, trace::kCounterBeta1Bytes, breakdown.beta1_bytes);
  tracer->counter(track, trace::kCounterBeta2Bytes, breakdown.beta2_bytes);
  tracer->counter(track, trace::kCounterGammaBytes, breakdown.gamma_bytes);
  tracer->end_span(track, breakdown.seconds);
}

CostBreakdown cost_rhd(std::int64_t bytes, const Topology& topo,
                       const NetParams& net, Placement placement) {
  const int p = topo.num_nodes;
  CostBreakdown cost;
  if (clamp_empty_payload("allreduce.rhd", bytes)) return cost;
  if (p == 1) return cost;
  if (!is_pow2(p)) {
    const int p2 = pow2_floor(p);
    Topology core = topo;
    core.num_nodes = p2;
    cost = cost_rhd(bytes, core, net, placement);
    charge_fold(cost, topo, net, placement, bytes);
    return cost;
  }
  const int steps = log2i(p);
  // Reduce-scatter: message sizes n/2, n/4, ..., n/p at distances p/2 ... 1.
  for (int s = 0; s < steps; ++s) {
    const int d = p >> (s + 1);
    charge_step(cost, topo, net, placement,
                d, static_cast<double>(bytes) / (1 << (s + 1)),
                /*reduce=*/true);
  }
  // Allgather: the mirror image, sizes n/p ... n/2 at distances 1 ... p/2.
  for (int s = steps - 1; s >= 0; --s) {
    const int d = p >> (s + 1);
    charge_step(cost, topo, net, placement, d,
                static_cast<double>(bytes) / (1 << (s + 1)),
                /*reduce=*/false);
  }
  return cost;
}

namespace {

/// Views each rank's full vector as a span (the vector overloads delegate to
/// the span implementations over the whole buffer).
std::vector<std::span<float>> as_spans(std::vector<std::vector<float>>& data) {
  std::vector<std::span<float>> spans;
  spans.reserve(data.size());
  for (auto& v : data) spans.emplace_back(v);
  return spans;
}

}  // namespace

CostBreakdown allreduce_rhd(std::vector<std::vector<float>>& data,
                            const Topology& topo, const NetParams& net,
                            Placement placement) {
  return allreduce_rhd(as_spans(data), topo, net, placement);
}

CostBreakdown allreduce_rhd(const std::vector<std::span<float>>& data,
                            const Topology& topo, const NetParams& net,
                            Placement placement) {
  const int p = static_cast<int>(data.size());
  SWC_CHECK_EQ(p, topo.num_nodes);
  const std::size_t n = data[0].size();
  for (const auto& v : data) SWC_CHECK_EQ(v.size(), n);
  if (p == 1) return CostBreakdown{};

  // Non-power-of-2 handling (Thakur et al. Sec. 4): the first 2*extra ranks
  // pair up; each odd rank folds its vector into the even neighbour and sits
  // out of the core algorithm, receiving the final result afterwards.
  const int p2 = pow2_floor(p);
  const int extra = p - p2;
  std::vector<int> ids;  // participant rank of core-algorithm slot j
  ids.reserve(p2);
  for (int i = 0; i < extra; ++i) {
    for (std::size_t j = 0; j < n; ++j) data[2 * i][j] += data[2 * i + 1][j];
    ids.push_back(2 * i);
  }
  for (int r = 2 * extra; r < p; ++r) ids.push_back(r);
  SWC_CHECK_EQ(ids.size(), static_cast<std::size_t>(p2));

  const int steps = log2i(p2);
  std::vector<std::size_t> lo(p2, 0), hi(p2, n);

  // --- Reduce-scatter (recursive halving) ----------------------------------
  for (int s = 0; s < steps; ++s) {
    const int d = p2 >> (s + 1);
    for (int r = 0; r < p2; ++r) {
      const int partner = r ^ d;
      if (partner < r) continue;  // handle each pair once
      SWC_CHECK_EQ(lo[r], lo[partner]);
      SWC_CHECK_EQ(hi[r], hi[partner]);
      const std::size_t mid = (lo[r] + hi[r]) / 2;
      const auto& mine = data[ids[r]];
      const auto& theirs = data[ids[partner]];
      // Lower slot keeps [lo, mid) and receives the partner's copy of it;
      // the partner keeps [mid, hi) and receives the lower slot's copy.
      for (std::size_t i = lo[r]; i < mid; ++i) mine[i] += theirs[i];
      for (std::size_t i = mid; i < hi[r]; ++i) theirs[i] += mine[i];
      hi[r] = mid;
      lo[partner] = mid;
    }
  }

  // --- Allgather (recursive doubling, reversed halving order) ---------------
  for (int s = steps - 1; s >= 0; --s) {
    const int d = p2 >> (s + 1);
    for (int r = 0; r < p2; ++r) {
      const int partner = r ^ d;
      if (partner < r) continue;
      const auto& mine = data[ids[r]];
      const auto& theirs = data[ids[partner]];
      // The pair's ranges are the two halves they split at forward step s.
      for (std::size_t i = lo[partner]; i < hi[partner]; ++i) {
        mine[i] = theirs[i];
      }
      for (std::size_t i = lo[r]; i < hi[r]; ++i) {
        theirs[i] = mine[i];
      }
      const std::size_t new_lo = std::min(lo[r], lo[partner]);
      const std::size_t new_hi = std::max(hi[r], hi[partner]);
      lo[r] = lo[partner] = new_lo;
      hi[r] = hi[partner] = new_hi;
    }
  }
  for (int r = 0; r < p2; ++r) {
    SWC_CHECK_EQ(lo[r], 0u);
    SWC_CHECK_EQ(hi[r], n);
  }
  // Unfold: the sidelined odd ranks receive the finished result.
  for (int i = 0; i < extra; ++i) {
    std::copy(data[2 * i].begin(), data[2 * i].end(), data[2 * i + 1].begin());
  }
  return cost_rhd(static_cast<std::int64_t>(n) * 4, topo, net, placement);
}

CostBreakdown cost_ring(std::int64_t bytes, const Topology& topo,
                        const NetParams& net, Placement placement) {
  const int p = topo.num_nodes;
  CostBreakdown cost;
  if (clamp_empty_payload("allreduce.ring", bytes)) return cost;
  if (p == 1) return cost;
  const double chunk = static_cast<double>(bytes) / p;
  double alpha = net.alpha + net.alpha_collective;
  if (chunk > static_cast<double>(net.eager_limit)) alpha += net.alpha_rendezvous;
  // Neighbour traffic: at most one flow leaves any supernode per step, so
  // the ring never oversubscribes the uplink — but it pays 2(p-1) latencies
  // (why the paper rejects it on the high-latency Sunway network).
  (void)placement;
  cost.alpha_terms = 2 * (p - 1);
  cost.beta1_bytes = 2.0 * (p - 1) * chunk;
  cost.gamma_bytes = (p - 1) * chunk;
  cost.seconds = cost.alpha_terms * alpha +
                 cost.beta1_bytes * net.beta1() +
                 cost.gamma_bytes * net.gamma();
  return cost;
}

CostBreakdown allreduce_ring(std::vector<std::vector<float>>& data,
                             const Topology& topo, const NetParams& net,
                             Placement placement) {
  return allreduce_ring(as_spans(data), topo, net, placement);
}

CostBreakdown allreduce_ring(const std::vector<std::span<float>>& data,
                             const Topology& topo, const NetParams& net,
                             Placement placement) {
  const int p = static_cast<int>(data.size());
  SWC_CHECK_EQ(p, topo.num_nodes);
  const std::size_t n = data[0].size();
  if (p == 1) return CostBreakdown{};
  auto block_lo = [&](int b) { return n * b / p; };
  auto block_hi = [&](int b) { return n * (b + 1) / p; };

  // Reduce-scatter ring: after p-1 steps rank r owns the sum of block
  // (r+1) % p.
  for (int s = 0; s < p - 1; ++s) {
    // Perform all receives "simultaneously": snapshot the sent blocks.
    std::vector<std::vector<float>> staged(p);
    for (int r = 0; r < p; ++r) {
      const int b = (r - s + p) % p;
      staged[r].assign(data[r].begin() + block_lo(b),
                       data[r].begin() + block_hi(b));
    }
    for (int r = 0; r < p; ++r) {
      const int src = (r - 1 + p) % p;
      const int b = (src - s + p) % p;
      const std::size_t lo = block_lo(b);
      for (std::size_t i = 0; i < staged[src].size(); ++i) {
        data[r][lo + i] += staged[src][i];
      }
    }
  }
  // Allgather ring: rank r starts by sending its owned block (r+1) % p.
  for (int s = 0; s < p - 1; ++s) {
    std::vector<std::vector<float>> staged(p);
    for (int r = 0; r < p; ++r) {
      const int b = (r + 1 - s + p) % p;
      staged[r].assign(data[r].begin() + block_lo(b),
                       data[r].begin() + block_hi(b));
    }
    for (int r = 0; r < p; ++r) {
      const int src = (r - 1 + p) % p;
      const int b = (src + 1 - s + p) % p;
      std::copy(staged[src].begin(), staged[src].end(),
                data[r].begin() + block_lo(b));
    }
  }
  return cost_ring(static_cast<std::int64_t>(n) * 4, topo, net, placement);
}

CostBreakdown cost_param_server(std::int64_t bytes, const Topology& topo,
                                const NetParams& net, int servers) {
  SWC_CHECK_GT(servers, 0);
  CostBreakdown cost;
  const int p = topo.num_nodes;
  if (clamp_empty_payload("allreduce.param_server", bytes)) return cost;
  if (p == 1) return cost;
  // Every worker pushes its shard set; each server's single network port
  // serializes p incoming shards of bytes/servers (Sec. V-A: "receiving
  // gradients simultaneously from a large number of workers could
  // potentially become a bottleneck"). The pull phase mirrors it.
  const double shard = static_cast<double>(bytes) / servers;
  cost.alpha_terms = 2;
  cost.beta1_bytes = 2.0 * p * shard;
  cost.gamma_bytes = p * shard;
  double alpha = net.alpha + net.alpha_collective;
  if (shard > static_cast<double>(net.eager_limit)) alpha += net.alpha_rendezvous;
  cost.seconds = 2 * alpha + cost.beta1_bytes * net.beta1() +
                 cost.gamma_bytes * net.gamma();
  return cost;
}

CostBreakdown allreduce_param_server(std::vector<std::vector<float>>& data,
                                     const Topology& topo,
                                     const NetParams& net, int servers) {
  return allreduce_param_server(as_spans(data), topo, net, servers);
}

CostBreakdown allreduce_param_server(const std::vector<std::span<float>>& data,
                                     const Topology& topo,
                                     const NetParams& net, int servers) {
  const int p = static_cast<int>(data.size());
  SWC_CHECK_EQ(p, topo.num_nodes);
  const std::size_t n = data[0].size();
  std::vector<float> sum(n, 0.0f);
  for (const auto& v : data) {
    for (std::size_t i = 0; i < n; ++i) sum[i] += v[i];
  }
  for (const auto& v : data) std::copy(sum.begin(), sum.end(), v.begin());
  return cost_param_server(static_cast<std::int64_t>(n) * 4, topo, net,
                           servers);
}

}  // namespace swcaffe::topo
