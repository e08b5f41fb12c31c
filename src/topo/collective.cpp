#include "topo/collective.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>

#include "base/log.h"
#include "topo/hierarchical.h"

namespace swcaffe::topo {

namespace {

int pow2_floor(int v) {
  int r = 1;
  while (r * 2 <= v) r *= 2;
  return r;
}

int log2i(int v) {
  int l = 0;
  while ((1 << l) < v) ++l;
  return l;
}

void emit(std::vector<RangeOp>& ops, RangeOp::Kind kind, int dst, int src,
          int round, std::size_t lo, std::size_t hi) {
  if (lo < hi) ops.push_back({kind, dst, src, round, lo, hi});
}

/// Appends the RHD all-reduce of elements [base, base + n) over the buffers
/// rank[0..p-1], starting at `round`; returns the round after its last.
/// Non-power-of-2 p (Thakur et al. Sec. 4): the first 2*extra ranks pair
/// up; each odd rank folds its vector into the even neighbour, sits out the
/// core algorithm and receives the result after it.
int append_rhd(std::vector<RangeOp>& ops, const std::vector<int>& rank,
               std::size_t base, std::size_t n, int round) {
  const int p = static_cast<int>(rank.size());
  if (p == 1) return round;
  const int p2 = pow2_floor(p);
  const int extra = p - p2;
  std::vector<int> ids;  // buffer of core-algorithm slot j
  ids.reserve(p2);
  for (int i = 0; i < extra; ++i) {
    emit(ops, RangeOp::kAdd, rank[2 * i], rank[2 * i + 1], round, base,
         base + n);
    ids.push_back(rank[2 * i]);
  }
  if (extra > 0) ++round;
  for (int r = 2 * extra; r < p; ++r) ids.push_back(rank[r]);

  const int steps = log2i(p2);
  std::vector<std::size_t> lo(p2, 0), hi(p2, n);
  // Reduce-scatter (recursive halving): the lower slot keeps [lo, mid) and
  // receives the partner's copy of it; the partner keeps [mid, hi).
  for (int s = 0; s < steps; ++s, ++round) {
    const int d = p2 >> (s + 1);
    for (int r = 0; r < p2; ++r) {
      const int partner = r ^ d;
      if (partner < r) continue;  // each pair once
      SWC_CHECK_EQ(lo[r], lo[partner]);
      SWC_CHECK_EQ(hi[r], hi[partner]);
      const std::size_t mid = (lo[r] + hi[r]) / 2;
      emit(ops, RangeOp::kAdd, ids[r], ids[partner], round, base + lo[r],
           base + mid);
      emit(ops, RangeOp::kAdd, ids[partner], ids[r], round, base + mid,
           base + hi[r]);
      hi[r] = mid;
      lo[partner] = mid;
    }
  }
  // All-gather (recursive doubling): each pair swaps the halves it split
  // at forward step s.
  for (int s = steps - 1; s >= 0; --s, ++round) {
    const int d = p2 >> (s + 1);
    for (int r = 0; r < p2; ++r) {
      const int partner = r ^ d;
      if (partner < r) continue;
      emit(ops, RangeOp::kCopy, ids[r], ids[partner], round,
           base + lo[partner], base + hi[partner]);
      emit(ops, RangeOp::kCopy, ids[partner], ids[r], round, base + lo[r],
           base + hi[r]);
      lo[r] = lo[partner] = std::min(lo[r], lo[partner]);
      hi[r] = hi[partner] = std::max(hi[r], hi[partner]);
    }
  }
  for (int r = 0; r < p2; ++r) {
    SWC_CHECK_EQ(lo[r], 0u);
    SWC_CHECK_EQ(hi[r], n);
  }
  for (int i = 0; i < extra; ++i) {
    emit(ops, RangeOp::kCopy, rank[2 * i + 1], rank[2 * i], round, base,
         base + n);
  }
  return extra > 0 ? round + 1 : round;
}

}  // namespace

RangeSchedule rhd_schedule(int p, std::size_t n) {
  SWC_CHECK_GT(p, 0);
  RangeSchedule s{p, 0, n, {}};
  std::vector<int> rank(static_cast<std::size_t>(p));
  std::iota(rank.begin(), rank.end(), 0);
  append_rhd(s.ops, rank, 0, n, 0);
  return s;
}

RangeSchedule ring_schedule(int p, std::size_t n) {
  SWC_CHECK_GT(p, 0);
  RangeSchedule s{p, 0, n, {}};
  if (p == 1) return s;
  auto block_lo = [&](int b) { return n * b / p; };
  auto block_hi = [&](int b) { return n * (b + 1) / p; };
  // Within one step rank r writes its block (r - 1 - s) and rank r + 1
  // reads r's block (r - s): no element is both read and written by
  // different ops, so running a step's ops in turn equals running them all
  // at once.
  // Reduce-scatter: after p-1 steps rank r owns the sum of block (r+1) % p.
  for (int st = 0; st < p - 1; ++st) {
    for (int r = 0; r < p; ++r) {
      const int src = (r - 1 + p) % p;
      const int b = (src - st + p) % p;
      emit(s.ops, RangeOp::kAdd, r, src, st, block_lo(b), block_hi(b));
    }
  }
  // All-gather: rank r starts by sending its owned block (r+1) % p.
  for (int st = 0; st < p - 1; ++st) {
    for (int r = 0; r < p; ++r) {
      const int src = (r - 1 + p) % p;
      const int b = (src + 1 - st + p) % p;
      emit(s.ops, RangeOp::kCopy, r, src, p - 1 + st, block_lo(b),
           block_hi(b));
    }
  }
  return s;
}

RangeSchedule param_server_schedule(int p, std::size_t n) {
  SWC_CHECK_GT(p, 0);
  // Buffer p is the server's sum, which starts from +0.0f (so a lone -0.0f
  // gradient comes back +0.0f, as a push into a zeroed buffer does).
  RangeSchedule s{p, 1, n, {}};
  for (int r = 0; r < p; ++r) emit(s.ops, RangeOp::kAdd, p, r, 0, 0, n);
  for (int r = 0; r < p; ++r) emit(s.ops, RangeOp::kCopy, r, p, 1, 0, n);
  return s;
}

RangeSchedule hierarchical_schedule(const Topology& topo, std::size_t n) {
  const int p = topo.num_nodes;
  if (!hierarchical_applicable(topo)) return rhd_schedule(p, n);
  const int q = topo.supernode_size;
  const int s = p / q;
  RangeSchedule sched{p, 0, n, {}};
  auto& ops = sched.ops;
  // Round-robin membership: member j of supernode k is rank k + j * s, so
  // the member index carries the HIGH bits of the rank and phase A's
  // butterfly over j is exactly flat RHD's first log2(q) steps.
  const auto rank = [s](int k, int j) { return k + j * s; };
  const int steps = log2i(q);
  std::vector<std::size_t> lo(q, 0), hi(q, n);

  // Phase A: supernode-local reduce-scatter, rounds [0, steps).
  for (int t = 0; t < steps; ++t) {
    const int d = q >> (t + 1);
    for (int j = 0; j < q; ++j) {
      const int pj = j ^ d;
      if (pj < j) continue;
      SWC_CHECK_EQ(lo[j], lo[pj]);
      SWC_CHECK_EQ(hi[j], hi[pj]);
      const std::size_t mid = (lo[j] + hi[j]) / 2;
      for (int k = 0; k < s; ++k) {
        emit(ops, RangeOp::kAdd, rank(k, j), rank(k, pj), t, lo[j], mid);
        emit(ops, RangeOp::kAdd, rank(k, pj), rank(k, j), t, mid, hi[j]);
      }
      hi[j] = mid;
      lo[pj] = mid;
    }
  }

  // Phase B: member j of every supernode holds the group partial of
  // [lo[j], hi[j]); the s holders run a full RHD over it (fold/unfold
  // included, so ragged supernode counts only fold the chunk). The q chunk
  // collectives run concurrently: each starts at round `steps`.
  int round = steps;
  for (int j = 0; j < q; ++j) {
    std::vector<int> holders(static_cast<std::size_t>(s));
    for (int k = 0; k < s; ++k) holders[k] = rank(k, j);
    round = append_rhd(ops, holders, lo[j], hi[j] - lo[j], steps);
  }

  // Phase C: supernode-local all-gather, the mirror of phase A.
  for (int t = steps - 1; t >= 0; --t, ++round) {
    const int d = q >> (t + 1);
    for (int j = 0; j < q; ++j) {
      const int pj = j ^ d;
      if (pj < j) continue;
      for (int k = 0; k < s; ++k) {
        emit(ops, RangeOp::kCopy, rank(k, j), rank(k, pj), round, lo[pj],
             hi[pj]);
        emit(ops, RangeOp::kCopy, rank(k, pj), rank(k, j), round, lo[j],
             hi[j]);
      }
      lo[j] = lo[pj] = std::min(lo[j], lo[pj]);
      hi[j] = hi[pj] = std::max(hi[j], hi[pj]);
    }
  }
  for (int j = 0; j < q; ++j) {
    SWC_CHECK_EQ(lo[j], 0u);
    SWC_CHECK_EQ(hi[j], n);
  }
  return sched;
}

RangeSchedule collective_schedule(AllreduceAlgo algo, const Topology& topo,
                                  std::size_t n) {
  switch (algo) {
    case AllreduceAlgo::kRhdAdjacent:
    case AllreduceAlgo::kRhdRoundRobin:
      return rhd_schedule(topo.num_nodes, n);
    case AllreduceAlgo::kRing:
      return ring_schedule(topo.num_nodes, n);
    case AllreduceAlgo::kParamServer:
      return param_server_schedule(topo.num_nodes, n);
    case AllreduceAlgo::kHierarchical:
      return hierarchical_schedule(topo, n);
  }
  SWC_CHECK_MSG(false, "unknown all-reduce algorithm");
  return {};
}

void run_schedule(const RangeSchedule& schedule,
                  const std::vector<std::span<float>>& data,
                  sim::ThreadPool* pool) {
  SWC_CHECK_EQ(data.size(), static_cast<std::size_t>(schedule.ranks));
  const std::size_t n = schedule.n;
  for (const auto& v : data) SWC_CHECK_EQ(v.size(), n);
  const std::size_t blocks = (n + kCollectiveBlock - 1) / kCollectiveBlock;
  SWC_CHECK_LE(blocks, static_cast<std::size_t>(INT32_MAX));
  if (schedule.ops.empty() || blocks == 0) return;
  const std::function<void(int)> run_block = [&](int b) {
    const std::size_t b0 = static_cast<std::size_t>(b) * kCollectiveBlock;
    const std::size_t len = std::min(n - b0, kCollectiveBlock);
    std::vector<float> scratch(
        static_cast<std::size_t>(schedule.scratch) * len, 0.0f);
    const auto row = [&](int buf, std::size_t i) {
      return buf < schedule.ranks
                 ? data[buf].data() + i
                 : scratch.data() + (buf - schedule.ranks) * len + (i - b0);
    };
    for (const RangeOp& op : schedule.ops) {
      const std::size_t lo = std::max(op.lo, b0);
      const std::size_t hi = std::min(op.hi, b0 + len);
      if (lo >= hi) continue;
      float* dst = row(op.dst, lo);
      const float* src = row(op.src, lo);
      if (op.kind == RangeOp::kAdd) {
        for (std::size_t i = 0; i < hi - lo; ++i) dst[i] += src[i];
      } else {
        std::copy(src, src + (hi - lo), dst);
      }
    }
  };
  if (pool) {
    pool->parallel_for(0, static_cast<int>(blocks), run_block);
  } else {
    for (std::size_t b = 0; b < blocks; ++b) run_block(static_cast<int>(b));
  }
}

}  // namespace swcaffe::topo
