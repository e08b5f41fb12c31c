// The data movement of every functional all-reduce, as data (DESIGN.md
// §4.19).
//
// Each algorithm is a *range-op schedule*: an ordered list of
// `dst[lo, hi) += src[lo, hi)` and `dst[lo, hi) = src[lo, hi)` steps over
// the ranks' buffers, built once from (algorithm, p, q, n) and independent
// of the data. Each op carries its round: the communication step it belongs
// to, in which every rank exchanges with its partners of that step. swcheck
// derives the cluster send/receive schedule it verifies from these rounds
// (check::comm_schedule), so the schedule that runs is the schedule that is
// checked. Every op reads and writes the same element index in both
// buffers, so an element's result depends only on the ops that cover it,
// in schedule order. One executor runs any schedule: it cuts [0, n) into
// kCollectiveBlock-float blocks and, per block, runs every op that
// intersects it, in schedule order. Each element therefore sees exactly the
// float operations of the serial loop nests the schedules replace, with the
// same operands in the same order, so the result is bitwise the same at
// any thread count (−0, infinities and NaN payloads included). Blocks run
// on an optional sim::ThreadPool; a null pool runs them on the caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/thread_pool.h"
#include "topo/allreduce.h"
#include "topo/topology.h"

namespace swcaffe::topo {

/// Floats per executor block (64 KiB per buffer): the per-block working set
/// of a few ranks stays cache resident while every op touching it runs.
inline constexpr std::size_t kCollectiveBlock = 16384;

/// One step of a schedule over buffers 0..ranks+scratch-1.
struct RangeOp {
  enum Kind : std::uint8_t { kAdd, kCopy };
  Kind kind = kAdd;  ///< kAdd: dst[i] += src[i]; kCopy: dst[i] = src[i]
  int dst = 0;
  int src = 0;
  int round = 0;  ///< communication step, counted from 0 per schedule
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// A data-independent collective over `ranks` buffers of `n` floats.
/// Buffers ranks..ranks+scratch-1 are scratch rows the executor provides,
/// filled with +0.0f before the first op touches them (the parameter
/// server's sum).
struct RangeSchedule {
  int ranks = 0;
  int scratch = 0;
  std::size_t n = 0;
  std::vector<RangeOp> ops;
};

/// Recursive halving + doubling with MPICH's fold/unfold for non-power-of-2
/// p: rank 2i+1 folds into rank 2i for i < p - 2^floor(log2 p).
RangeSchedule rhd_schedule(int p, std::size_t n);
/// Ring reduce-scatter + ring all-gather over p near-equal blocks.
RangeSchedule ring_schedule(int p, std::size_t n);
/// Sum into one +0-filled scratch row in rank order (round 0), then copy it
/// out (round 1).
RangeSchedule param_server_schedule(int p, std::size_t n);
/// Two-level all-reduce (topo/hierarchical): phase A, phase B as
/// rhd_schedule over each chunk's holders, phase C. Falls back to
/// rhd_schedule when !hierarchical_applicable(topo).
RangeSchedule hierarchical_schedule(const Topology& topo, std::size_t n);

/// The schedule of `algo` for topo.num_nodes ranks of `n` floats (both RHD
/// placements share one; the parameter server's shard count does not
/// change the data movement).
RangeSchedule collective_schedule(AllreduceAlgo algo, const Topology& topo,
                                  std::size_t n);

/// Runs `schedule` over `data` (one span of schedule.n floats per rank),
/// block by block, on `pool` when given.
void run_schedule(const RangeSchedule& schedule,
                  const std::vector<std::span<float>>& data,
                  sim::ThreadPool* pool = nullptr);

}  // namespace swcaffe::topo
