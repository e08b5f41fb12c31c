// Bitwise oracle for the functional collective path: the range-op schedules
// and their blocked executor (topo/collective) against in-test copies of
// the serial loop nests they replaced, and the fused error-feedback codec
// (topo/compress) against the unfused passes with a libm floor. Payloads
// carry +-0, +-inf, subnormals and NaNs, so a result that merely "sums
// right" is not enough: every bit, at every pool width, must be the
// reference's (NaN payloads aside, see same_bits). Three twins with one
// deliberate defect each (operand-swapped add, a dropped block tail, two
// ops reordered) show the comparison catches what it is meant to. The
// schedules' alpha/beta/gamma terms, counted op by op, gate the priced
// CostBreakdown of every algorithm.
#include "topo/collective.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "collective_fixtures.h"
#include "proptest.h"
#include "sim/thread_pool.h"
#include "topo/compress.h"
#include "topo/hierarchical.h"

namespace swcaffe::topo {
namespace {

using Buffers = std::vector<std::vector<float>>;
using Spans = std::vector<std::span<float>>;

constexpr std::size_t kB = kCollectiveBlock;

Spans spans_of(Buffers& data) {
  Spans s;
  for (auto& v : data) s.emplace_back(v);
  return s;
}

// --- Reference: the serial loop nests the schedules replaced ---------------

int ref_pow2_floor(int v) {
  int r = 1;
  while (r * 2 <= v) r *= 2;
  return r;
}

int ref_log2i(int v) {
  int l = 0;
  while ((1 << l) < v) ++l;
  return l;
}

void ref_rhd(const Spans& data) {
  const int p = static_cast<int>(data.size());
  const std::size_t n = data[0].size();
  if (p == 1) return;
  const int p2 = ref_pow2_floor(p);
  const int extra = p - p2;
  std::vector<int> ids;
  for (int i = 0; i < extra; ++i) {
    for (std::size_t j = 0; j < n; ++j) data[2 * i][j] += data[2 * i + 1][j];
    ids.push_back(2 * i);
  }
  for (int r = 2 * extra; r < p; ++r) ids.push_back(r);
  const int steps = ref_log2i(p2);
  std::vector<std::size_t> lo(p2, 0), hi(p2, n);
  for (int s = 0; s < steps; ++s) {
    const int d = p2 >> (s + 1);
    for (int r = 0; r < p2; ++r) {
      const int partner = r ^ d;
      if (partner < r) continue;
      const std::size_t mid = (lo[r] + hi[r]) / 2;
      const auto& mine = data[ids[r]];
      const auto& theirs = data[ids[partner]];
      for (std::size_t i = lo[r]; i < mid; ++i) mine[i] += theirs[i];
      for (std::size_t i = mid; i < hi[r]; ++i) theirs[i] += mine[i];
      hi[r] = mid;
      lo[partner] = mid;
    }
  }
  for (int s = steps - 1; s >= 0; --s) {
    const int d = p2 >> (s + 1);
    for (int r = 0; r < p2; ++r) {
      const int partner = r ^ d;
      if (partner < r) continue;
      const auto& mine = data[ids[r]];
      const auto& theirs = data[ids[partner]];
      for (std::size_t i = lo[partner]; i < hi[partner]; ++i) {
        mine[i] = theirs[i];
      }
      for (std::size_t i = lo[r]; i < hi[r]; ++i) theirs[i] = mine[i];
      const std::size_t new_lo = std::min(lo[r], lo[partner]);
      const std::size_t new_hi = std::max(hi[r], hi[partner]);
      lo[r] = lo[partner] = new_lo;
      hi[r] = hi[partner] = new_hi;
    }
  }
  for (int i = 0; i < extra; ++i) {
    std::copy(data[2 * i].begin(), data[2 * i].end(), data[2 * i + 1].begin());
  }
}

void ref_ring(const Spans& data) {
  const int p = static_cast<int>(data.size());
  const std::size_t n = data[0].size();
  if (p == 1) return;
  auto block_lo = [&](int b) { return n * b / p; };
  auto block_hi = [&](int b) { return n * (b + 1) / p; };
  for (int s = 0; s < p - 1; ++s) {
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
}

void ref_param_server(const Spans& data) {
  const std::size_t n = data[0].size();
  std::vector<float> sum(n, 0.0f);
  for (const auto& v : data) {
    for (std::size_t i = 0; i < n; ++i) sum[i] += v[i];
  }
  for (const auto& v : data) std::copy(sum.begin(), sum.end(), v.begin());
}

void ref_hierarchical(const Spans& data, int q) {
  const int p = static_cast<int>(data.size());
  Topology topo;
  topo.num_nodes = p;
  topo.supernode_size = q;
  if (!hierarchical_applicable(topo)) {
    ref_rhd(data);
    return;
  }
  const std::size_t n = data[0].size();
  const int s = p / q;
  const auto rank = [s](int k, int j) { return k + j * s; };
  const int steps = ref_log2i(q);
  std::vector<std::size_t> lo(q, 0), hi(q, n);
  for (int t = 0; t < steps; ++t) {
    const int d = q >> (t + 1);
    for (int j = 0; j < q; ++j) {
      const int pj = j ^ d;
      if (pj < j) continue;
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
  for (int j = 0; j < q; ++j) {
    if (hi[j] <= lo[j]) continue;
    Spans chunk;
    for (int k = 0; k < s; ++k) {
      chunk.push_back(data[rank(k, j)].subspan(lo[j], hi[j] - lo[j]));
    }
    ref_rhd(chunk);
  }
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
}

// --- Payloads --------------------------------------------------------------

/// Rank r's buffer: mostly finite floats, with +-0, +-inf, subnormals and
/// quiet and signaling NaNs (payloads differ per rank and element).
Buffers special_payload(std::uint64_t seed, int p, std::size_t n) {
  Buffers data(static_cast<std::size_t>(p), std::vector<float>(n));
  proptest::Rng rng(seed);
  for (int r = 0; r < p; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t h = rng.next_u64();
      const std::uint32_t sign = (h & 1) ? 0x80000000u : 0u;
      const std::uint32_t payload =
          static_cast<std::uint32_t>((r * 0x9e37u + i * 0x85ebu + 1) &
                                     0x3fffffu) | 1u;
      std::uint32_t bits;
      switch ((h >> 8) % 32) {
        case 0:
          bits = sign;  // +-0
          break;
        case 1:
          bits = sign | 0x7f800000u;  // +-inf
          break;
        case 2:
          bits = sign | static_cast<std::uint32_t>((h >> 20) & 0x7fffffu) | 1u;
          break;  // subnormal
        case 3:
          bits = sign | 0x7fc00000u | payload;  // quiet NaN
          break;
        case 4:
          bits = sign | 0x7f800000u | payload;  // signaling NaN
          break;
        default:
          bits = std::bit_cast<std::uint32_t>(
              static_cast<float>(rng.next_double() * 2e3 - 1e3));
      }
      data[r][i] = std::bit_cast<float>(bits);
    }
  }
  return data;
}

/// Bitwise equality, except that any two NaNs are equal. IEEE 754 leaves
/// open which operand's payload a NaN sum carries, and GCC's x86-64 code
/// for `d[i] += s[i]` picks d's in the scalar loop and s's in the
/// vectorized body, so the serial loops' own NaN payloads depend on where
/// an element falls relative to a loop's vector body. Where a NaN appears
/// is fixed; its payload is not.
bool same_bits(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

/// First element (rank-major) that differs under same_bits, or -1.
long first_mismatch(const Buffers& a, const Buffers& b) {
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return 0;
    for (std::size_t i = 0; i < a[r].size(); ++i) {
      if (!same_bits(a[r][i], b[r][i])) {
        return static_cast<long>(r * a[r].size() + i);
      }
    }
  }
  return -1;
}

/// Pool widths under test: serial (no pool) and 1, 2 and 4 lanes.
struct Pools {
  sim::ThreadPool one{1}, two{2}, four{4};
  std::vector<sim::ThreadPool*> all() { return {nullptr, &one, &two, &four}; }
};

std::vector<std::size_t> sizes_for(int p) {
  return {1, static_cast<std::size_t>(std::max(p - 1, 1)), kB - 1, kB, kB + 1,
          3 * kB + 7};
}

enum class Algo { kRhd, kRing, kParamServer };

const char* name(Algo a) {
  switch (a) {
    case Algo::kRhd:
      return "rhd";
    case Algo::kRing:
      return "ring";
    case Algo::kParamServer:
      return "param-server";
  }
  return "?";
}

RangeSchedule schedule_of(Algo a, int p, std::size_t n) {
  switch (a) {
    case Algo::kRhd:
      return rhd_schedule(p, n);
    case Algo::kRing:
      return ring_schedule(p, n);
    case Algo::kParamServer:
      return param_server_schedule(p, n);
  }
  return {};
}

void run_reference(Algo a, const Spans& data) {
  switch (a) {
    case Algo::kRhd:
      return ref_rhd(data);
    case Algo::kRing:
      return ref_ring(data);
    case Algo::kParamServer:
      return ref_param_server(data);
  }
}

// --- Executor vs reference -------------------------------------------------

TEST(CollectiveExecutorTest, FlatAlgorithmsMatchTheSerialLoopsBitwise) {
  Pools pools;
  for (Algo algo : {Algo::kRhd, Algo::kRing, Algo::kParamServer}) {
    for (int p : {2, 3, 4, 5, 6, 8, 12, 16}) {
      for (std::size_t n : sizes_for(p)) {
        const Buffers input = special_payload(1000 * p + n, p, n);
        Buffers want = input;
        run_reference(algo, spans_of(want));
        const RangeSchedule sched = schedule_of(algo, p, n);
        for (sim::ThreadPool* pool : pools.all()) {
          Buffers got = input;
          run_schedule(sched, spans_of(got), pool);
          EXPECT_EQ(first_mismatch(got, want), -1)
              << name(algo) << " p=" << p << " n=" << n << " lanes="
              << (pool ? pool->threads() : 0);
        }
      }
    }
  }
}

TEST(CollectiveExecutorTest, HierarchicalMatchesTheSerialLoopsBitwise) {
  Pools pools;
  const std::pair<int, int> shapes[] = {{4, 2}, {8, 2}, {16, 4}, {12, 4},
                                        {24, 8}};
  for (const auto& [p, q] : shapes) {
    Topology topo;
    topo.num_nodes = p;
    topo.supernode_size = q;
    ASSERT_TRUE(hierarchical_applicable(topo)) << p << "/" << q;
    for (std::size_t n : sizes_for(p)) {
      const Buffers input = special_payload(7000 * p + q + n, p, n);
      Buffers want = input;
      ref_hierarchical(spans_of(want), q);
      const RangeSchedule sched =
          collective_schedule(AllreduceAlgo::kHierarchical, topo, n);
      for (sim::ThreadPool* pool : pools.all()) {
        Buffers got = input;
        run_schedule(sched, spans_of(got), pool);
        EXPECT_EQ(first_mismatch(got, want), -1)
            << "hierarchical " << p << "/" << q << " n=" << n << " lanes="
            << (pool ? pool->threads() : 0);
      }
    }
  }
}

TEST(CollectiveExecutorTest, AllreduceEntryPointsRunTheSchedules) {
  // collective_schedule, the one entry point the trainer calls, hands every
  // algorithm its own schedule: both RHD placements run RHD.
  Topology topo;
  topo.num_nodes = 8;
  topo.supernode_size = 2;
  const std::size_t n = 2 * kB + 3;
  const Buffers input = special_payload(42, 8, n);
  const auto check = [&](AllreduceAlgo algo, auto&& reference) {
    Buffers got = input, want = input;
    fixtures::run_allreduce(algo, topo, got);
    reference(spans_of(want));
    EXPECT_EQ(first_mismatch(got, want), -1) << allreduce_algo_name(algo);
  };
  check(AllreduceAlgo::kRhdAdjacent, ref_rhd);
  check(AllreduceAlgo::kRhdRoundRobin, ref_rhd);
  check(AllreduceAlgo::kRing, ref_ring);
  check(AllreduceAlgo::kParamServer, ref_param_server);
  check(AllreduceAlgo::kHierarchical,
        [](const Spans& s) { ref_hierarchical(s, 2); });
}

// --- Counted terms vs the priced breakdown ---------------------------------

TEST(CollectiveCountTest, CountedTermsMatchThePricedBreakdown) {
  // Rank 0's rounds, bytes and reduced bytes in the executed schedule (the
  // parameter server's: its sum row, with one server) are the alpha, beta
  // and gamma terms allreduce_cost prices, at every power-of-two p in
  // [2, 64] and n divisible by p. Supernode sizes 2..256 make RHD's beta2
  // share (Fig. 7) and the hierarchical phase split count for something.
  const NetParams net = sunway_network();
  for (int p = 2; p <= 64; p *= 2) {
    for (int q : {2, 4, 16, 256}) {
      const Topology topo{p, q};
      const std::size_t n = 4 * static_cast<std::size_t>(p);
      for (AllreduceAlgo algo : kAllreduceAlgos) {
        const bool ps = algo == AllreduceAlgo::kParamServer;
        const fixtures::TermCount got =
            fixtures::count_terms(collective_schedule(algo, topo, n),
                                 ps ? p : 0, topo, placement_for(algo));
        const CostBreakdown want =
            allreduce_cost(algo, Compression::kNone,
                           static_cast<std::int64_t>(4 * n), topo, net, 1);
        const std::string at = std::string(allreduce_algo_name(algo)) +
                               " p=" + std::to_string(p) +
                               " q=" + std::to_string(q);
        EXPECT_EQ(got.alpha, want.alpha_terms) << at;
        EXPECT_EQ(got.gamma, want.gamma_bytes) << at;
        if (algo == AllreduceAlgo::kRing || ps) {
          // These two price every byte at the intra-supernode rate, even
          // the hops the count sees crossing once p > q: only the total
          // is a count.
          EXPECT_EQ(want.beta2_bytes, 0.0) << at;
          EXPECT_EQ(got.beta1 + got.beta2, want.beta1_bytes) << at;
        } else {
          EXPECT_EQ(got.beta1, want.beta1_bytes) << at;
          EXPECT_EQ(got.beta2, want.beta2_bytes) << at;
        }
      }
    }
  }
}

// --- Twins: each carries one defect the oracle must catch -------------------

enum class Defect { kNone, kSwappedAdd, kDroppedBlockTail };

/// An in-test executor with the production block loop, plus one defect.
void run_twin(const RangeSchedule& sched, const Spans& data, Defect defect) {
  const std::size_t n = sched.n;
  for (std::size_t b0 = 0; b0 < n; b0 += kB) {
    const std::size_t len = std::min(n - b0, kB);
    // The block's last element is skipped by every op under the defect.
    const std::size_t end = defect == Defect::kDroppedBlockTail
                                ? b0 + len - 1
                                : b0 + len;
    std::vector<float> scratch(static_cast<std::size_t>(sched.scratch) * len,
                               0.0f);
    const auto row = [&](int buf, std::size_t i) {
      return buf < sched.ranks
                 ? data[buf].data() + i
                 : scratch.data() + (buf - sched.ranks) * len + (i - b0);
    };
    for (const RangeOp& op : sched.ops) {
      const std::size_t lo = std::max(op.lo, b0);
      const std::size_t hi = std::min(op.hi, end);
      if (lo >= hi) continue;
      float* dst = row(op.dst, lo);
      float* src = row(op.src, lo);
      for (std::size_t i = 0; i < hi - lo; ++i) {
        if (op.kind == RangeOp::kCopy) {
          dst[i] = src[i];
        } else if (defect == Defect::kSwappedAdd) {
          // The add's operands trade places: the sum lands in the source.
          src[i] += dst[i];
        } else {
          dst[i] += src[i];
        }
      }
    }
  }
}

TEST(CollectiveTwinTest, DefectFreeTwinMatchesSoTheDefectsAreTheOnlyChange) {
  for (Algo algo : {Algo::kRhd, Algo::kRing, Algo::kParamServer}) {
    const std::size_t n = 2 * kB + 5;
    const Buffers input = special_payload(11, 6, n);
    Buffers want = input, got = input;
    run_reference(algo, spans_of(want));
    run_twin(schedule_of(algo, 6, n), spans_of(got), Defect::kNone);
    EXPECT_EQ(first_mismatch(got, want), -1) << name(algo);
  }
}

TEST(CollectiveTwinTest, OperandSwappedAddIsCaught) {
  for (Algo algo : {Algo::kRhd, Algo::kRing, Algo::kParamServer}) {
    const std::size_t n = kB + 9;
    const Buffers input = special_payload(12, 6, n);
    Buffers want = input, got = input;
    run_reference(algo, spans_of(want));
    run_twin(schedule_of(algo, 6, n), spans_of(got), Defect::kSwappedAdd);
    EXPECT_NE(first_mismatch(got, want), -1) << name(algo);
  }
}

TEST(CollectiveTwinTest, DroppedBlockTailIsCaught) {
  for (Algo algo : {Algo::kRhd, Algo::kRing, Algo::kParamServer}) {
    const std::size_t n = 3 * kB + 7;
    const Buffers input = special_payload(13, 4, n);
    Buffers want = input, got = input;
    run_reference(algo, spans_of(want));
    run_twin(schedule_of(algo, 4, n), spans_of(got), Defect::kDroppedBlockTail);
    EXPECT_NE(first_mismatch(got, want), -1) << name(algo);
  }
}

TEST(CollectiveTwinTest, TwoReorderedOpsAreCaught) {
  // The first copy trades places with the last add before it that writes
  // what the copy reads: the copy then sends an unfinished partial sum.
  for (Algo algo : {Algo::kRhd, Algo::kRing, Algo::kParamServer}) {
    const int p = 4;
    const std::size_t n = kB + 1;
    RangeSchedule sched = schedule_of(algo, p, n);
    std::size_t copy = 0;
    while (sched.ops[copy].kind != RangeOp::kCopy) ++copy;
    const RangeOp& c = sched.ops[copy];
    std::size_t add = copy;
    while (add > 0) {
      const RangeOp& a = sched.ops[--add];
      if (a.dst == c.src && a.lo < c.hi && c.lo < a.hi) break;
    }
    ASSERT_LT(add, copy) << name(algo);
    std::swap(sched.ops[add], sched.ops[copy]);
    const Buffers input = special_payload(14, p, n);
    Buffers want = input, got = input;
    run_reference(algo, spans_of(want));
    run_schedule(sched, spans_of(got));
    EXPECT_NE(first_mismatch(got, want), -1) << name(algo);
  }
}

// --- Fused error-feedback codec vs the unfused passes ----------------------

float ref_int8_round_trip(float v, float scale) {
  if (scale <= 0.0f) return 0.0f;
  const double t = static_cast<double>(v) / static_cast<double>(scale);
  double q = std::floor(t + 0.5);
  if (q > 127.0) q = 127.0;
  if (q < -127.0) q = -127.0;
  return static_cast<float>(q) * scale;
}

/// The pre-fusion ef_encode: v = g + r; r = v; g = round_trip(g); r -= g.
void ref_ef_encode(Compression c, std::span<float> grad,
                   std::span<float> residual) {
  if (c == Compression::kNone) return;
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] += residual[i];
  for (std::size_t i = 0; i < grad.size(); ++i) residual[i] = grad[i];
  if (c == Compression::kFp16) {
    for (float& v : grad) v = half_to_float(float_to_half(v));
  } else {
    float max_abs = 0.0f;
    for (float v : grad) {
      const float a = std::fabs(v);
      if (a > max_abs) max_abs = a;
    }
    const float scale = max_abs / 127.0f;
    for (float& v : grad) v = ref_int8_round_trip(v, scale);
  }
  for (std::size_t i = 0; i < grad.size(); ++i) residual[i] -= grad[i];
}

/// Runs `iters` carried encode steps with both codecs on copies of the same
/// gradients and residuals (fresh gradients every step) and compares every
/// bit of both after each step.
void expect_fused_matches(Compression c, const Buffers& grads0,
                          const Buffers& residual0, int iters,
                          sim::ThreadPool* pool, const std::string& what) {
  Buffers want_r = residual0, got_r = residual0;
  for (int it = 0; it < iters; ++it) {
    Buffers want_g = grads0, got_g = grads0;
    for (auto& v : want_g) {
      for (float& x : v) x *= static_cast<float>(it + 1);
    }
    for (auto& v : got_g) {
      for (float& x : v) x *= static_cast<float>(it + 1);
    }
    for (std::size_t r = 0; r < want_g.size(); ++r) {
      ref_ef_encode(c, want_g[r], want_r[r]);
    }
    ef_encode(c, spans_of(got_g), spans_of(got_r), pool);
    ASSERT_EQ(first_mismatch(got_g, want_g), -1)
        << what << " grad, iteration " << it;
    ASSERT_EQ(first_mismatch(got_r, want_r), -1)
        << what << " residual, iteration " << it;
  }
}

Buffers finite_payload(std::uint64_t seed, int p, std::size_t n, float mag) {
  Buffers data(static_cast<std::size_t>(p), std::vector<float>(n));
  proptest::Rng rng(seed);
  for (auto& v : data) {
    for (float& x : v) x = rng.next_float(-mag, mag);
  }
  return data;
}

TEST(CollectiveCodecTest, MatchesTheUnfusedPassesOverCarriedIterations) {
  Pools pools;
  for (Compression c : {Compression::kInt8, Compression::kFp16}) {
    for (std::size_t n : {std::size_t{1}, kB - 1, kB, kB + 1, 3 * kB + 7}) {
      const Buffers grads = finite_payload(n, 3, n, 1.0f);
      const Buffers residual(3, std::vector<float>(n, 0.0f));
      for (sim::ThreadPool* pool : pools.all()) {
        expect_fused_matches(c, grads, residual, 3, pool,
                             std::string(compression_name(c)) +
                                 " n=" + std::to_string(n));
      }
    }
    // Special payloads: NaNs (distinct payloads), infinities, +-0,
    // subnormals, in both the gradient and the carried residual.
    const std::size_t n = 2 * kB + 3;
    const Buffers grads = special_payload(21, 4, n);
    const Buffers residual = special_payload(22, 4, n);
    for (sim::ThreadPool* pool : pools.all()) {
      expect_fused_matches(c, grads, residual, 3, pool,
                           std::string(compression_name(c)) + " special");
    }
  }
}

TEST(CollectiveCodecTest, Int8EdgeCasesMatchTheLibmFloor) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float pos_nan = std::bit_cast<float>(0x7fc01234u);
  const float neg_nan = std::bit_cast<float>(0xffc05678u);
  const std::size_t n = kB + 2;
  Buffers grads(4, std::vector<float>(n, 0.0f));
  // Rank 0: all zeros (scale 0) apart from NaNs, which a zero scale still
  // encodes as 0 and leaves in the residual.
  grads[0][3] = pos_nan;
  grads[0][kB + 1] = neg_nan;
  // Rank 1: max|v| = 127 gives scale 1, so v is t exactly: the .5 ties
  // round up (-0.5 -> +0) and +-126.5 probe the +-127 clamp edge.
  const float ties[] = {0.5f,   -0.5f,  1.5f,   -1.5f, 2.5f,  -2.5f,
                        126.5f, -126.5f, 127.0f, -127.0f, 126.49f, -126.51f};
  for (std::size_t i = 0; i < n; ++i) {
    grads[1][i] = ties[i % std::size(ties)];
  }
  // Rank 2: a scale that rounds below max/127, so |t| at the max exceeds
  // 127 before the clamp.
  for (std::size_t i = 0; i < n; ++i) {
    grads[2][i] = (i % 2 ? -1.0f : 1.0f) * (0.1f + 1e-6f * i);
  }
  // Rank 3: NaN gradients among finite ones, and one infinity (scale inf).
  for (std::size_t i = 0; i < n; ++i) {
    grads[3][i] = (i % 7 == 0) ? nan : 1e-3f * static_cast<float>(i % 13);
  }
  grads[3][kB] = -std::numeric_limits<float>::infinity();
  const Buffers residual(4, std::vector<float>(n, 0.0f));
  Pools pools;
  for (sim::ThreadPool* pool : pools.all()) {
    expect_fused_matches(Compression::kInt8, grads, residual, 3, pool,
                         "int8 edges");
  }
  // The tie values alone: check the quantized steps, not just agreement.
  Buffers one = {std::vector<float>(std::begin(ties), std::end(ties))};
  Buffers res = {std::vector<float>(std::size(ties), 0.0f)};
  ef_encode(Compression::kInt8, spans_of(one), spans_of(res));
  const float want[] = {1.0f,   0.0f,   2.0f,   -1.0f, 3.0f,  -2.0f,
                        127.0f, -126.0f, 127.0f, -127.0f, 126.0f, -127.0f};
  for (std::size_t i = 0; i < std::size(ties); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(one[0][i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << ties[i];
  }
}

}  // namespace
}  // namespace swcaffe::topo
