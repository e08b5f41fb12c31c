#include "check/plan_model.h"

#include <algorithm>
#include <cmath>

#include "swgemm/estimate.h"
#include "swgemm/mesh_gemm.h"

namespace swcaffe::check {

namespace {

constexpr std::size_t kElemBytes = 4;   // SP data in main memory
constexpr std::size_t kLdmElem = 8;     // LDM tiles hold doubles (RLC native)
/// Nominal payload for schedule ops: schedules are checked for structure
/// (cycles, legality, matching), not volume, so one packet is enough.
constexpr std::size_t kNominalBytes = 32;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Appends one op with the nominal payload (a peer only for sends).
void push(CommSchedule& sched, CommOp::Kind kind, int row, int col,
          int peer_row = -1, int peer_col = -1) {
  sched.ops.push_back({kind, row, col, peer_row, peer_col, kNominalBytes});
}

// Cluster schedules: rank r executes at (r, 0) and receives on the row bus.
void send(CommSchedule& sched, int from, int to) {
  push(sched, CommOp::Kind::kSend, from, 0, to, 0);
}

void recv(CommSchedule& sched, int at) {
  push(sched, CommOp::Kind::kRecvRow, at, 0);
}

}  // namespace

std::size_t LdmPlan::resident_bytes() const {
  std::size_t total = 0;
  for (const LdmItem& item : items) total += item.bytes;
  return total;
}

std::size_t LdmPlan::buffered_bytes() const {
  std::size_t total = 0;
  for (const LdmItem& item : items) {
    total += item.bytes * (item.double_buffered ? 2 : 1);
  }
  return total;
}

double RetryPlan::worst_case_seconds() const {
  // max_attempts sends, each preceded (after the first) by backoff 2^k*base:
  // sum_{k=0}^{a-2} base*2^k = base*(2^(a-1) - 1).
  double backoff = 0.0;
  if (max_attempts > 1 && backoff_base_s > 0.0) {
    backoff = backoff_base_s * (std::ldexp(1.0, max_attempts - 1) - 1.0);
  }
  return max_attempts * round_time_s + backoff;
}

// --- swgemm -----------------------------------------------------------------

LdmPlan mesh_gemm_ldm_plan(const hw::HwParams& hp, std::int64_t m,
                           std::int64_t n, std::int64_t k) {
  const int mesh = hp.mesh_rows;
  const std::size_t bm = static_cast<std::size_t>(ceil_div(m, mesh));
  const std::size_t bn = static_cast<std::size_t>(ceil_div(n, mesh));
  const std::size_t bk = static_cast<std::size_t>(ceil_div(k, mesh));
  LdmPlan plan;
  plan.kernel = "mesh_gemm";
  // mesh_gemm allocates the three tiles single-buffered and throws when they
  // exceed the LDM; the blocked driver is responsible for the 2x margin.
  plan.items.push_back({"A tile", bm * bk * kLdmElem, false});
  plan.items.push_back({"B tile", bk * bn * kLdmElem, false});
  plan.items.push_back({"C tile", bm * bn * kLdmElem, false});
  return plan;
}

LdmPlan blocked_gemm_ldm_plan(const hw::HwParams& hp, std::int64_t m,
                              std::int64_t n, std::int64_t k,
                              const gemm::GemmBlocking& blocking) {
  const int mesh = hp.mesh_rows;
  auto round_up = [mesh](std::int64_t v) {
    return ((v + mesh - 1) / mesh) * mesh;
  };
  const std::int64_t pm = round_up(std::min<std::int64_t>(m, blocking.block_m));
  const std::int64_t pn = round_up(std::min<std::int64_t>(n, blocking.block_n));
  const std::int64_t pk = round_up(std::min<std::int64_t>(k, blocking.block_k));
  const std::size_t bm = static_cast<std::size_t>(pm / mesh);
  const std::size_t bn = static_cast<std::size_t>(pn / mesh);
  const std::size_t bk = static_cast<std::size_t>(pk / mesh);
  const std::size_t chunk = static_cast<std::size_t>(std::max(1, blocking.bcast_chunk));
  LdmPlan plan;
  plan.kernel = "blocked_mesh_gemm";
  // A/B panels stream through the k loop (double-buffered when the candidate
  // says so); a fused broadcast stages `chunk` tiles at once. The C panel
  // stays resident across the loop either way.
  plan.items.push_back(
      {"A panel tile", bm * bk * chunk * kLdmElem, blocking.double_buffered});
  plan.items.push_back(
      {"B panel tile", bk * bn * chunk * kLdmElem, blocking.double_buffered});
  plan.items.push_back({"C panel tile", bm * bn * kLdmElem, false});
  return plan;
}

LdmPlan blocked_gemm_ldm_plan(const hw::HwParams& hp, std::int64_t m,
                              std::int64_t n, std::int64_t k) {
  const int panel = std::min(256, gemm::max_mesh_block(hp));
  gemm::GemmBlocking blocking;
  blocking.block_m = panel;
  blocking.block_n = panel;
  blocking.block_k = panel;
  return blocked_gemm_ldm_plan(hp, m, n, k, blocking);
}

DmaPlan blocked_gemm_dma_plan(const hw::CostModel& cost, std::int64_t m,
                              std::int64_t n, std::int64_t k,
                              const gemm::GemmBlocking& blocking) {
  const hw::HwParams& hp = cost.params();
  const int mesh = hp.mesh_rows;
  const std::int64_t bm = std::min<std::int64_t>(m, blocking.block_m);
  const std::int64_t bn = std::min<std::int64_t>(n, blocking.block_n);
  const std::int64_t bk = std::min<std::int64_t>(k, blocking.block_k);
  const std::int64_t mb = ceil_div(m, bm);
  const std::int64_t nb = ceil_div(n, bn);

  auto run_bytes = [&](std::int64_t extent) {
    return static_cast<std::size_t>(std::max<std::int64_t>(1, extent / mesh)) *
           kElemBytes;
  };
  DmaPlan plan;
  plan.kernel = "blocked_mesh_gemm";
  // A panels are re-read once per column block, B once per row block, C once
  // (reuse_c): exactly the traffic estimate_gemm charges.
  plan.ops.push_back({"A panels", false, run_bytes(bk),
                      static_cast<std::size_t>(k) * kElemBytes,
                      static_cast<double>(m) * k * nb * kElemBytes});
  plan.ops.push_back({"B panels", false, run_bytes(bn),
                      static_cast<std::size_t>(n) * kElemBytes,
                      static_cast<double>(k) * n * mb * kElemBytes});
  plan.ops.push_back({"C panels", true, run_bytes(bn),
                      static_cast<std::size_t>(n) * kElemBytes,
                      static_cast<double>(m) * n * kElemBytes});
  plan.charged_bytes = static_cast<double>(
      gemm::estimate_gemm_blocked(cost, m, n, k, blocking).dma_bytes);
  return plan;
}

DmaPlan blocked_gemm_dma_plan(const hw::CostModel& cost, std::int64_t m,
                              std::int64_t n, std::int64_t k) {
  return blocked_gemm_dma_plan(cost, m, n, k, gemm::GemmBlocking{});
}

CommSchedule mesh_gemm_schedule(const hw::HwParams& hp) {
  const int mesh = hp.mesh_rows;
  CommSchedule sched;
  sched.name = "mesh_gemm";
  for (int t = 0; t < mesh; ++t) {
    // Broadcast phase: A(i,t) along row i, B(t,j) along column j.
    for (int i = 0; i < mesh; ++i) {
      push(sched, CommOp::Kind::kRowBroadcast, i, t);
    }
    for (int j = 0; j < mesh; ++j) {
      push(sched, CommOp::Kind::kColBroadcast, t, j);
    }
    // Compute phase: every non-owner pops its row/column delivery.
    for (int i = 0; i < mesh; ++i) {
      for (int j = 0; j < mesh; ++j) {
        if (j != t) push(sched, CommOp::Kind::kRecvRow, i, j);
        if (i != t) push(sched, CommOp::Kind::kRecvCol, i, j);
      }
    }
  }
  return sched;
}

// --- swdnn convolutions -----------------------------------------------------

DmaPlan im2col_dma_plan(const core::ConvGeom& g) {
  const double image_bytes = static_cast<double>(kElemBytes) * g.batch *
                             g.in_c * g.in_h * g.in_w;
  const double col_bytes = static_cast<double>(kElemBytes) * g.batch * g.in_c *
                           g.kernel * g.kernel * g.out_h() * g.out_w();
  DmaPlan plan;
  plan.kernel = "im2col";
  // Fig. 4 left: every input row fetched once, every replicated column line
  // written once (out_w-long strided puts into the column matrix).
  plan.ops.push_back({"image rows", false,
                      static_cast<std::size_t>(g.in_w) * kElemBytes,
                      static_cast<std::size_t>(g.in_w) * kElemBytes,
                      image_bytes});
  plan.ops.push_back({"column lines", true,
                      static_cast<std::size_t>(g.out_w()) * kElemBytes,
                      static_cast<std::size_t>(g.out_w()) * kElemBytes,
                      col_bytes});
  plan.charged_bytes = image_bytes + col_bytes;  // what im2col_time streams
  return plan;
}

DmaPlan col2im_dma_plan(const core::ConvGeom& g) {
  const double image_bytes = static_cast<double>(kElemBytes) * g.batch *
                             g.in_c * g.in_h * g.in_w;
  const double col_bytes = static_cast<double>(kElemBytes) * g.batch * g.in_c *
                           g.kernel * g.kernel * g.out_h() * g.out_w();
  DmaPlan plan;
  plan.kernel = "col2im";
  // Reverse movement: column lines in, accumulated image rows out. The
  // read-modify-write re-read of the image is priced by the lower scatter
  // bandwidth, not extra bytes, matching col2im_time's accounting.
  plan.ops.push_back({"column lines", false,
                      static_cast<std::size_t>(g.out_w()) * kElemBytes,
                      static_cast<std::size_t>(g.out_w()) * kElemBytes,
                      col_bytes});
  plan.ops.push_back({"image rows", true,
                      static_cast<std::size_t>(g.in_w) * kElemBytes,
                      static_cast<std::size_t>(g.in_w) * kElemBytes,
                      image_bytes});
  plan.charged_bytes = col_bytes + image_bytes;
  return plan;
}

LdmPlan implicit_conv_ldm_plan(const hw::HwParams& hp, const core::ConvGeom& g,
                               int channel_block_in, int channel_block_out) {
  const std::size_t kk = static_cast<std::size_t>(g.kernel) * g.kernel;
  const std::size_t c = static_cast<std::size_t>(std::max(1, channel_block_in));
  const std::size_t o =
      static_cast<std::size_t>(std::max(1, channel_block_out));
  (void)hp;  // the budget is judged by rules.cpp, not here
  LdmPlan plan;
  plan.kernel = "implicit_conv";
  plan.items.push_back({"filter chunk", o * c * kk * kLdmElem, true});
  plan.items.push_back(
      {"input rows",
       c * g.kernel * static_cast<std::size_t>(g.in_w) * kLdmElem, true});
  plan.items.push_back(
      {"output row", static_cast<std::size_t>(g.out_w()) * kLdmElem, false});
  return plan;
}

LdmPlan implicit_conv_ldm_plan(const hw::HwParams& hp,
                               const core::ConvGeom& g) {
  const int mesh = hp.mesh_rows;
  std::size_t cb = static_cast<std::size_t>(std::max(1, g.in_c / mesh));
  std::size_t ob = static_cast<std::size_t>(std::max(1, g.out_c / mesh));
  // The real kernel sub-blocks its channel groups until the working set fits
  // (extra passes cost time, not correctness); report the largest fitting
  // blocking, or the minimal one if even that overflows.
  LdmPlan plan = implicit_conv_ldm_plan(hp, g, static_cast<int>(cb),
                                        static_cast<int>(ob));
  while (plan.buffered_bytes() > hp.ldm_bytes && (cb > 1 || ob > 1)) {
    if (ob >= cb) {
      ob = (ob + 1) / 2;
    } else {
      cb = (cb + 1) / 2;
    }
    plan = implicit_conv_ldm_plan(hp, g, static_cast<int>(cb),
                                  static_cast<int>(ob));
  }
  return plan;
}

LdmPlan implicit_conv_sim_ldm_plan(const hw::HwParams& hp,
                                   const core::ConvGeom& g) {
  const int mesh = hp.mesh_rows;
  const std::size_t ni_grp = static_cast<std::size_t>(std::max(1, g.in_c / mesh));
  const std::size_t no_grp =
      static_cast<std::size_t>(std::max(1, g.out_c / mesh));
  LdmPlan plan;
  plan.kernel = "implicit_conv_sim";
  // The functional simulator keeps the whole per-CPE filter block resident
  // (no sub-blocking); the row-leader CPE additionally stages one input row.
  plan.items.push_back(
      {"filter block",
       no_grp * ni_grp * static_cast<std::size_t>(g.kernel) * g.kernel *
           kLdmElem,
       false});
  plan.items.push_back(
      {"leader row buffer", static_cast<std::size_t>(g.in_w) * kLdmElem,
       false});
  return plan;
}

DmaPlan implicit_conv_dma_plan(const core::ConvGeom& g) {
  const int mesh = 8;  // run shape only; geometry legality is checked by rules
  const double image_bytes =
      static_cast<double>(kElemBytes) * g.in_c * g.in_h * g.in_w;
  const double out_bytes = static_cast<double>(kElemBytes) * g.out_c *
                           g.out_h() * g.out_w();
  DmaPlan plan;
  plan.kernel = "implicit_conv";
  // Input rows are re-fetched once per kernel row, output rows and the
  // filter tensor move once — the plan implicit_time charges.
  plan.ops.push_back({"input rows", false,
                      static_cast<std::size_t>(g.in_w) * kElemBytes,
                      static_cast<std::size_t>(g.in_w) * kElemBytes,
                      image_bytes * g.kernel * g.batch});
  plan.ops.push_back({"output rows", true,
                      static_cast<std::size_t>(g.out_w()) * kElemBytes,
                      static_cast<std::size_t>(g.out_w()) * kElemBytes,
                      out_bytes * g.batch});
  plan.ops.push_back(
      {"filter blocks", false,
       static_cast<std::size_t>(std::max(1, g.in_c / mesh)) * g.kernel *
           g.kernel * kElemBytes,
       0, static_cast<double>(kElemBytes) * g.weight_count()});
  plan.charged_bytes = (image_bytes * g.kernel + out_bytes) * g.batch +
                       static_cast<double>(kElemBytes) * g.weight_count();
  return plan;
}

CommSchedule implicit_conv_schedule(const hw::HwParams& hp) {
  const int mesh = hp.mesh_rows;
  CommSchedule sched;
  sched.name = "implicit_conv_row";
  // One output row: each row leader broadcasts its channel group's input
  // rows, peers drain them, then every column reduces partials into row 0.
  for (int i = 0; i < mesh; ++i) {
    push(sched, CommOp::Kind::kRowBroadcast, i, 0);
    for (int j = 1; j < mesh; ++j) push(sched, CommOp::Kind::kRecvRow, i, j);
  }
  for (int j = 0; j < mesh; ++j) {
    for (int i = 1; i < mesh; ++i) {
      push(sched, CommOp::Kind::kSend, i, j, 0, j);
      push(sched, CommOp::Kind::kRecvCol, 0, j);
    }
  }
  return sched;
}

// --- swdnn memory-bound layers ----------------------------------------------

LdmPlan pool_ldm_plan(const hw::HwParams& hp, const core::PoolGeom& g) {
  const std::size_t row_bytes = static_cast<std::size_t>(g.in_w) * kElemBytes;
  const std::size_t k_rows =
      row_bytes * static_cast<std::size_t>(std::max(g.kernel, 1));
  LdmPlan plan;
  plan.kernel = "pool";
  // Sec. IV-D: K full rows when they fit half the LDM (the other half is the
  // double buffer), else strided column blocks sized to that same budget.
  const std::size_t window =
      k_rows <= hp.ldm_bytes / 2
          ? k_rows
          : std::max<std::size_t>(kElemBytes, (hp.ldm_bytes / 2) /
                                                  std::max(g.kernel, 1)) *
                std::max(g.kernel, 1);
  plan.items.push_back({"input window", window, true});
  return plan;
}

DmaPlan pool_dma_plan(const hw::HwParams& hp, const core::PoolGeom& g) {
  const std::size_t row_bytes = static_cast<std::size_t>(g.in_w) * kElemBytes;
  const std::size_t k_rows =
      row_bytes * static_cast<std::size_t>(std::max(g.kernel, 1));
  std::size_t run = row_bytes;
  if (k_rows > hp.ldm_bytes / 2) {
    run = std::max<std::size_t>(kElemBytes, (hp.ldm_bytes / 2) /
                                                std::max(g.kernel, 1));
    run -= run % kElemBytes;  // column blocks stay element-aligned
  }
  const double in_bytes = static_cast<double>(kElemBytes) * g.batch *
                          g.channels * g.in_h * g.in_w;
  const double out_bytes = static_cast<double>(kElemBytes) * g.batch *
                           g.channels * g.out_h() * g.out_w();
  DmaPlan plan;
  plan.kernel = "pool";
  plan.ops.push_back({"input rows", false, run, run, in_bytes});
  plan.ops.push_back(
      {"output rows", true,
       static_cast<std::size_t>(std::max(g.out_w(), 1)) * kElemBytes,
       static_cast<std::size_t>(std::max(g.out_w(), 1)) * kElemBytes,
       out_bytes});
  plan.charged_bytes = in_bytes + out_bytes;  // pool_forward_time's stream
  return plan;
}

DmaPlan elementwise_dma_plan(std::int64_t count, double passes) {
  DmaPlan plan;
  plan.kernel = "elementwise";
  const double bytes = static_cast<double>(kElemBytes) * count * passes;
  plan.ops.push_back({"stream", false, 8 * 1024, 0, bytes});
  plan.charged_bytes = bytes;
  return plan;
}

DmaPlan transform_dma_plan(std::int64_t count, int inner_run) {
  DmaPlan plan;
  plan.kernel = "transform";
  const double bytes = static_cast<double>(kElemBytes) * count;
  const std::size_t run =
      static_cast<std::size_t>(std::max(inner_run, 1)) * kElemBytes;
  plan.ops.push_back({"strided gather", false, run, run, bytes});
  plan.ops.push_back({"dense scatter", true, 8 * 1024, 0, bytes});
  plan.charged_bytes = 2.0 * bytes;  // transform_time's two passes
  return plan;
}

// --- topo all-reduce ---------------------------------------------------------

namespace {

constexpr auto kSelf = [](int r) { return r; };

/// One exchange round over the ranks rank(0 .. count-1): each sends to
/// rank(partner(k)), then each receives. Sends precede receives, so no
/// round can deadlock on its own.
template <typename Rank, typename Partner>
void exchange_round(CommSchedule& sched, int count, Rank rank,
                    Partner partner) {
  for (int k = 0; k < count; ++k) send(sched, rank(k), rank(partner(k)));
  for (int k = 0; k < count; ++k) recv(sched, rank(k));
}

/// Appends recursive halving + doubling over `count` participants, rank(k)
/// naming the k-th: the MPICH fold of the ranks past the power-of-two core
/// into a core neighbour, the pairwise exchanges with partner k ^ mask
/// (reduce-scatter halving, then allgather doubling), and the unfold back
/// to the folded ranks.
template <typename Rank>
void append_rhd(CommSchedule& sched, int count, Rank rank) {
  int rounds = 0;
  while ((2 << rounds) <= count) ++rounds;  // floor(log2(count))
  const int core = 1 << rounds;
  for (int k = core; k < count; ++k) {
    send(sched, rank(k), rank(k - core));
    recv(sched, rank(k - core));
  }
  for (int phase = 0; phase < 2 * rounds; ++phase) {
    const int mask = phase < rounds ? (1 << phase)
                                    : (1 << (2 * rounds - 1 - phase));
    exchange_round(sched, core, rank, [&](int k) { return k ^ mask; });
  }
  for (int k = core; k < count; ++k) {
    send(sched, rank(k - core), rank(k));
    recv(sched, rank(k));
  }
}

}  // namespace

CommSchedule rhd_allreduce_schedule(int num_nodes) {
  CommSchedule sched;
  sched.name = "allreduce_rhd";
  sched.mesh = false;
  append_rhd(sched, num_nodes, kSelf);
  return sched;
}

std::vector<CommSchedule> hierarchical_allreduce_phases(int num_nodes,
                                                        int supernode_size) {
  const int p = num_nodes;
  const int q = supernode_size;
  const int s = p / q;
  std::vector<CommSchedule> phases(3);
  int local_rounds = 0;
  while ((2 << local_rounds) <= q) ++local_rounds;  // log2(q), q power of two

  // Member j of supernode k is rank k + j * s; the local butterfly pairs
  // member j with j ^ d. Sends precede receives within every round, so each
  // phase (and the composition) is deadlock-free by construction.
  const auto local_phase = [&](CommSchedule& sched, bool gather) {
    sched.mesh = false;
    for (int t = 0; t < local_rounds; ++t) {
      const int d = gather ? (1 << t) : (q >> (t + 1));
      exchange_round(sched, p, kSelf,
                     [&](int r) { return r % s + ((r / s) ^ d) * s; });
    }
  };
  phases[0].name = "hier_local_rs";
  local_phase(phases[0], /*gather=*/false);

  // Inter-supernode RHD per chunk: the s holders of member j's chunk are
  // ranks k + j * s for k = 0..s-1, running the same fold / butterfly /
  // unfold structure as the flat schedule over the k index.
  phases[1].name = "hier_inter_rhd";
  phases[1].mesh = false;
  for (int j = 0; j < q; ++j) {
    append_rhd(phases[1], s, [&](int k) { return k + j * s; });
  }

  phases[2].name = "hier_local_ag";
  local_phase(phases[2], /*gather=*/true);
  return phases;
}

CommSchedule ring_allreduce_schedule(int num_nodes) {
  CommSchedule sched;
  sched.name = "allreduce_ring";
  sched.mesh = false;
  const int p = num_nodes;
  for (int round = 0; round < 2 * (p - 1); ++round) {
    exchange_round(sched, p, kSelf, [&](int r) { return (r + 1) % p; });
  }
  return sched;
}

}  // namespace swcaffe::check
