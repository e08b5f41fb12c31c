// Symbolic plan descriptions for the swcheck static verifier.
//
// Every SW26010 kernel in swgemm/swdnn/topo is driven by a *plan*: which
// tiles live in each CPE's LDM, which DMA runs move them, and which RLC
// messages cross the mesh. The kernels themselves interleave that plan with
// real arithmetic; the builders here re-derive the same plan as plain data
// (no execution, no allocation) so rules.h can verify hardware contracts
// before a single simulated cycle is spent. Builders mirror the kernels
// they describe — the agreement is pinned by tests (a plan the checker
// passes must never throw from Ldm::alloc when the kernel actually runs).
// The all-reduce schedules are not re-derived at all: comm_schedule reads
// them off the range-op schedule the trainer executes (topo/collective).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/layer_desc.h"
#include "hw/cost_model.h"
#include "hw/params.h"
#include "swgemm/estimate.h"
#include "topo/collective.h"

namespace swcaffe::check {

// --- LDM budgets ------------------------------------------------------------

/// One allocation a kernel makes from a CPE's 64 KB scratchpad.
struct LdmItem {
  std::string name;
  std::size_t bytes = 0;
  /// True when the kernel streams this buffer and a real implementation
  /// would double-buffer it to overlap DMA with compute (×2 budget).
  bool double_buffered = false;
};

/// The worst-case per-CPE LDM working set of one kernel.
struct LdmPlan {
  std::string kernel;
  std::vector<LdmItem> items;

  /// Single-buffered total: what hw::Ldm::alloc would actually consume.
  std::size_t resident_bytes() const;
  /// Total with the double-buffer multiplier applied per item.
  std::size_t buffered_bytes() const;
};

// --- DMA plans --------------------------------------------------------------

/// One family of DMA transfers sharing a shape: `total_bytes` moved in
/// contiguous runs of `run_bytes`, run starts spaced `stride_bytes` apart in
/// the far (main-memory) operand. stride_bytes == 0 means dense/contiguous.
struct DmaOp {
  std::string name;
  bool put = false;              ///< LDM -> memory (vs. memory -> LDM get)
  std::size_t run_bytes = 0;     ///< contiguous run length
  std::size_t stride_bytes = 0;  ///< spacing of run starts (0 = contiguous)
  double total_bytes = 0.0;      ///< volume this op family moves in total
};

/// All DMA traffic of one kernel plus the closed-form volume the cost model
/// charges for it (byte conservation: the two must agree).
struct DmaPlan {
  std::string kernel;
  std::vector<DmaOp> ops;
  /// Bytes the analytic cost model charges for this kernel. The rules
  /// compare it against the sum of op volumes (Code::kDmaBytesMismatch).
  double charged_bytes = 0.0;
};

// --- Communication schedules ------------------------------------------------

/// One RLC (or network) operation of a schedule, executed by CPE/rank
/// (row, col). For sends the peer is the destination; for receives it names
/// the bus being popped (RlcFabric::receive_row / receive_col semantics).
struct CommOp {
  enum class Kind { kRowBroadcast, kColBroadcast, kSend, kRecvRow, kRecvCol };
  Kind kind = Kind::kSend;
  int row = 0, col = 0;            ///< executing CPE (rank, 0 for clusters)
  int peer_row = -1, peer_col = -1;  ///< destination (sends only)
  std::size_t bytes = 0;
};

/// A communication schedule: ops in per-CPE program order (the list order
/// restricted to one CPE is that CPE's program). comm_graph.h derives the
/// dependency graph — program-order edges plus FIFO send->receive matching —
/// and check_schedule rejects cycles (deadlock) and geometry violations.
struct CommSchedule {
  std::string name;
  /// True for 8x8 CPE-mesh schedules: enforces the row/column RLC legality
  /// rule. False for cluster-level (all-reduce) schedules where any pair of
  /// ranks may exchange messages.
  bool mesh = true;
  std::vector<CommOp> ops;
};

// --- Builders: swgemm -------------------------------------------------------

/// Per-CPE LDM tiles of one mesh_gemm(m, n, k) launch (three (dim/8)^2
/// double tiles, exactly what mesh_gemm allocates before checking capacity).
LdmPlan mesh_gemm_ldm_plan(const hw::HwParams& hp, std::int64_t m,
                           std::int64_t n, std::int64_t k);

/// LDM plan of the blocked driver / analytic estimator: panel sizes are
/// chosen the way estimate_gemm chooses them, so this is the plan every
/// GEMM-backed layer (conv explicit, FC, LSTM) actually runs.
LdmPlan blocked_gemm_ldm_plan(const hw::HwParams& hp, std::int64_t m,
                              std::int64_t n, std::int64_t k);

/// Same LDM plan evaluated at an arbitrary candidate blocking (swtune's
/// legality oracle). Panel edges clamp to the problem dims and round up to
/// mesh multiples; A/B tiles carry the double-buffer flag of the candidate
/// and are staged `bcast_chunk` tiles at a time, so a fused broadcast pays
/// its LDM price here and gets rejected when it cannot fit.
LdmPlan blocked_gemm_ldm_plan(const hw::HwParams& hp, std::int64_t m,
                              std::int64_t n, std::int64_t k,
                              const gemm::GemmBlocking& blocking);

/// DMA plan of the blocked GEMM: A/B/C panel traffic with the per-CPE run
/// lengths estimate_gemm derates bandwidth by; charged_bytes comes from
/// gemm::estimate_gemm itself, making byte conservation a cross-module check.
DmaPlan blocked_gemm_dma_plan(const hw::CostModel& cost, std::int64_t m,
                              std::int64_t n, std::int64_t k);

/// Candidate-blocking variant: charged_bytes comes from
/// gemm::estimate_gemm_blocked at the same blocking.
DmaPlan blocked_gemm_dma_plan(const hw::CostModel& cost, std::int64_t m,
                              std::int64_t n, std::int64_t k,
                              const gemm::GemmBlocking& blocking);

/// RLC schedule of the 8-step register-communication algorithm (Fig. 3):
/// per step, A-block row broadcasts + B-block column broadcasts and the 7
/// matching receives each. Deadlock-free by construction; verified anyway.
CommSchedule mesh_gemm_schedule(const hw::HwParams& hp);

// --- Builders: swdnn convolutions -------------------------------------------

/// DMA plan of the Fig. 4 im2col transformation for the whole batch: one
/// contiguous get per input image row, one strided put per replicated column
/// line. Charged bytes are the image + column-matrix volumes conv_plan's
/// im2col_time streams.
DmaPlan im2col_dma_plan(const core::ConvGeom& g);

/// Reverse movement (col2im): column lines in, read-modify-write image rows.
DmaPlan col2im_dma_plan(const core::ConvGeom& g);

/// Per-CPE LDM working set of the implicit (direct) kernel with the channel
/// sub-blocking a real kernel applies: resident filter chunk, K input rows
/// of the channel block, one output row. Overflows only when even the
/// minimal (1-channel) blocking cannot fit, which is what makes wide-channel
/// paper layers (VGG conv4/5) legal.
LdmPlan implicit_conv_ldm_plan(const hw::HwParams& hp, const core::ConvGeom& g);

/// Same working set at an explicit channel blocking (no shrink loop): the
/// plan a tuner candidate with `channel_block_in` input channels and
/// `channel_block_out` output channels per CPE pass would run. Overflow means
/// that candidate is illegal, full stop.
LdmPlan implicit_conv_ldm_plan(const hw::HwParams& hp, const core::ConvGeom& g,
                               int channel_block_in, int channel_block_out);

/// LDM working set of the *functional simulator* (implicit_conv_sim), which
/// keeps the whole per-CPE filter block resident without sub-blocking. Used
/// by tests to predict exactly when the simulator's Ldm::alloc throws.
LdmPlan implicit_conv_sim_ldm_plan(const hw::HwParams& hp,
                                   const core::ConvGeom& g);

/// DMA plan of the implicit kernel (input slab re-read once per kernel row,
/// output and weights touched once — the plan implicit_time assumes).
DmaPlan implicit_conv_dma_plan(const core::ConvGeom& g);

/// RLC schedule of one output row of the implicit kernel: 8 row broadcasts
/// (leader to its mesh row) and the column reduction of partials to row 0.
CommSchedule implicit_conv_schedule(const hw::HwParams& hp);

// --- Builders: swdnn memory-bound layers ------------------------------------

/// Pooling plan (Sec. IV-D): K-row streaming when the rows fit half the LDM,
/// strided column blocks otherwise — the same fallback mem_plans prices.
LdmPlan pool_ldm_plan(const hw::HwParams& hp, const core::PoolGeom& g);
DmaPlan pool_dma_plan(const hw::HwParams& hp, const core::PoolGeom& g);

/// Elementwise streaming plan over `count` floats, `passes` tensor sweeps.
DmaPlan elementwise_dma_plan(std::int64_t count, double passes);

/// (B,N,R,C) <-> (R,C,N,B) layout transform: strided gather of
/// `inner_run`-element lines plus a dense scatter pass.
DmaPlan transform_dma_plan(std::int64_t count, int inner_run);

// --- Fault-tolerance retry plans --------------------------------------------

/// The buffering/backoff contract of a resilient send path (swfault's
/// RetryPolicy viewed as a checkable plan): a dropped message round can only
/// be re-sent if the round is still buffered, and the retry ladder is only
/// meaningful if it can finish before the escalation timeout fires.
struct RetryPlan {
  std::string name;
  std::int64_t round_bytes = 0;          ///< largest message round to buffer
  std::int64_t resend_buffer_bytes = 0;  ///< buffer reserved for re-sends
  int max_attempts = 1;
  double backoff_base_s = 0.0;  ///< backoff before retry k is base * 2^k
  double round_time_s = 0.0;    ///< wire time of one (re-)sent round
  double timeout_s = 0.0;       ///< escalation deadline

  /// Worst-case time the full ladder needs: max_attempts sends plus the
  /// geometric backoff series.
  double worst_case_seconds() const;
};

// --- Bucketed all-reduce plans ----------------------------------------------

/// One layer-aligned bucket of a bucketed gradient all-reduce (the overlap
/// schedule of topo/overlap.h viewed as checkable data).
struct BucketSpan {
  int first_layer = 0;
  int last_layer = 0;      ///< inclusive
  std::int64_t bytes = 0;  ///< gradient bytes the bucket's collective moves
};

/// A bucketed gradient all-reduce plan: buckets must tile the net's layers
/// in order (contiguous, non-overlapping, covering [0, num_layers)), carry
/// positive byte volumes that conserve the packed-message total, and — when
/// the plan composes with a resilient send path — each bucket's buffered
/// round must fit the resend buffer.
struct BucketPlan {
  std::string name;
  int num_layers = 0;
  std::vector<BucketSpan> buckets;
  std::int64_t total_bytes = 0;  ///< packed message size (0 = don't check)
  /// Eager-protocol cutoff: a bucket's buffered round is
  /// min(bucket bytes, eager_limit) — larger rounds go rendezvous and
  /// re-send from the source buffer. 0 means every round is fully buffered.
  std::int64_t eager_limit = 0;
  /// Resend buffer the rounds must fit (0 = no resilient path, skip rule).
  std::int64_t resend_buffer_bytes = 0;
};

// --- Communication configurations (topo hierarchy + compression) -------------

/// An all-reduce configuration (algorithm x compression x bucket count)
/// viewed as checkable data. Names use the canonical spellings the rest of
/// the stack prints (topo::allreduce_algo_name /
/// topo::compression_name), so a plan can be built verbatim from a
/// trainer's options and a tuner candidate is rejected by the same rule
/// that would reject the trainer.
struct CommPlan {
  std::string name;
  /// "rhd-adjacent" | "rhd-round-robin" | "ring" | "param-server" |
  /// "hierarchical"
  std::string algorithm;
  /// "none" | "fp16" | "int8"
  std::string compression = "none";
  int num_nodes = 1;
  int supernode_size = 256;
  int buckets = 1;
  std::int64_t raw_bytes = 0;   ///< packed float32 gradient bytes
  /// Claimed TOTAL on-wire bytes across all bucket messages (0 = don't
  /// check). The codec conservation rule re-derives the expected value from
  /// raw_bytes, the compression and the per-bucket scale headers.
  std::int64_t wire_bytes = 0;
};

// --- Builders: topo all-reduce ----------------------------------------------

/// The cluster send/receive schedule of an executed collective: every op of
/// `collective` between two different buffers is one message of its
/// (hi - lo) floats from src to dst, and each round lists all its sends,
/// then all its receives, so every buffer's program follows the rounds.
/// Buffer b executes at (b, 0); the parameter server's scratch row is one
/// more actor. Sends precede receives in every round, so the schedule
/// cannot deadlock; check_collective adds the per-round port rule.
CommSchedule comm_schedule(const topo::RangeSchedule& collective,
                           std::string name);

}  // namespace swcaffe::check
