// Parallel synchronous SGD across simulated nodes (paper Sec. V-A).
//
// Functional trainer: N model replicas, each computes gradients on its
// sub-mini-batch, gradients of ALL layers are packed into one flat message
// (the paper's gradient-packing optimization) and combined with the chosen
// all-reduce; every node then applies the identical SGD update. The
// communication cost of each iteration is accounted with the topo cost
// model (topo::allreduce_cost). The analytic Fig. 10/11 scalability sweep
// over the same pricing lives in parallel/sweep.h.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/models.h"
#include "core/net.h"
#include "core/solver.h"
#include "hw/cost_model.h"
#include "sim/thread_pool.h"
#include "swdnn/conv_plan.h"
#include "topo/allreduce.h"
#include "topo/compress.h"
#include "topo/overlap.h"

namespace swcaffe::parallel {

// The collectives, their names and placements live in topo, the lowest
// library every pricing path links; SsgdOptions::algo and existing
// parallel::AllreduceAlgo spellings use this alias.
using topo::AllreduceAlgo;

/// Every collective runs on the TaihuLight network (topo::sunway_network),
/// and the parameter-server baseline uses one server shard.
struct SsgdOptions {
  AllreduceAlgo algo = AllreduceAlgo::kRhdRoundRobin;
  int supernode_size = 256;
  /// Layer-aligned gradient buckets of the all-reduce (topo/overlap). 1 =
  /// the paper's single packed message. More buckets let the analytic
  /// overlap schedule hide collectives under backward; the functional
  /// reduction is elementwise and therefore bit-identical for any count.
  /// Clamps to the number of parameterized layers.
  int buckets = 1;
  /// Host worker threads for the replica loops (forward/backward and the
  /// update) and for drawing replica 0's initial weights (wall-clock only;
  /// results are bit-identical to serial for any value). 1 = serial.
  int threads = 1;
  /// Gradient compression of the all-reduce payload (topo/compress). Each
  /// node encode/decodes its packed slice at the source with per-bucket
  /// error-feedback residuals, so the quantization error telescopes instead
  /// of accumulating; the collective then combines the decoded values, which
  /// keeps every algorithm's summation tree (and hence determinism) intact
  /// while the wire cost is priced at the compressed byte count. kInt8 is
  /// rejected for ring/param-server by swcheck (re-quantizing partial sums
  /// at every hop has no error bound).
  topo::Compression compression = topo::Compression::kNone;
  /// Timing-only mode (the swsim fast path): the trainer builds ONE
  /// prototype replica, whose weights are never drawn — its live layers'
  /// shapes are enough to derive and verify the bucket layout — instead of
  /// num_nodes, and prices iterations through
  /// price_iteration() instead of training. The functional phases (step,
  /// forward_backward_packed, allreduce, apply) throw; there are no replica
  /// tensors to touch. Priced times are bit-identical to what the
  /// functional path charges (pinned by tests).
  bool timing_only = false;
};

/// One priced (not executed) SSGD iteration of the timing-only fast path.
struct TimedIteration {
  double comp_s = 0.0;  ///< forward + backward estimate (one node, 4 CGs)
  /// Serial-model all-reduce total: per-bucket collective costs summed in
  /// layer order, exactly how step() accumulates last_comm().
  topo::CostBreakdown comm;
  topo::OverlapTimeline overlap;  ///< bucketed schedule on the swsim engine
  double serial_s = 0.0;          ///< comp_s + comm.seconds
};

class SsgdTrainer {
 public:
  /// `spec` takes the PER-NODE sub-batch and declares "data"/"label" inputs.
  SsgdTrainer(const core::NetSpec& spec, int num_nodes,
              const core::SolverSpec& solver, const SsgdOptions& options,
              std::uint64_t seed = 1);

  /// One SSGD iteration over the global batch (= nodes * sub-batch).
  /// Returns the mean loss across nodes.
  double step(std::span<const float> data, std::span<const float> labels);

  // --- Split-phase API (step() == the three phases in order; the
  // fault-tolerant trainer interposes recovery between them) ----------------

  /// Forward/backward on every replica; packs each node's gradients into
  /// `grads[r]` (resized to param_count floats; buffers the caller keeps
  /// across iterations are reused, not refilled). Returns the mean loss
  /// across nodes.
  double forward_backward_packed(std::span<const float> data,
                                 std::span<const float> labels,
                                 std::vector<std::vector<float>>& grads);

  /// In-place all-reduce of the packed per-node gradients with the
  /// configured algorithm; also stored as last_comm(). With buckets > 1
  /// this reduces bucket by bucket in network service order (reverse layer
  /// order) — elementwise identical to the single-message reduction.
  const topo::CostBreakdown& allreduce(std::vector<std::vector<float>>& grads);

  /// Per-bucket variant of the all-reduce phase: reduces only bucket `b`'s
  /// slice of every node's packed gradient and returns that bucket's own
  /// cost breakdown (the fault-tolerant trainer interposes per-bucket
  /// retry/replay between calls). Callers must reduce every bucket exactly
  /// once per iteration; allreduce() is the loop over all of them.
  const topo::CostBreakdown& allreduce_bucket(
      std::vector<std::vector<float>>& grads, int b);

  /// Applies node r's SGD update from grads[r] * (1 / num_nodes()) in one
  /// fused pass per parameter; the averaged gradient lands in the param
  /// diffs and `grads` is left as it was.
  void apply(const std::vector<std::vector<float>>& grads);

  /// Applies one already-combined gradient verbatim to every node (the
  /// bounded-staleness path, where aggregation happened upstream).
  void apply_aggregate(std::span<const float> grad);

  /// Prices one iteration without touching replica tensors: compute from
  /// the analytic layer estimators (`descs_per_cg` must describe the same
  /// layer sequence as the replica, one descriptor per layer), per-bucket
  /// collectives at this trainer's exact bucket layout and pricing, and the
  /// overlapped schedule on the swsim engine. The engine's own event log is
  /// extracted (check::timeline_from_events) and verified by swsched before
  /// the numbers are returned. Available in both modes; the priced comm
  /// equals the functional step()'s last_comm() bit for bit.
  TimedIteration price_iteration(
      const hw::CostModel& cost,
      const std::vector<core::LayerDesc>& descs_per_cg,
      const std::map<std::string, dnn::ConvEstimate>* conv_overrides =
          nullptr) const;

  core::Net& node(int i) { return *nets_[i]; }
  core::SgdSolver& solver(int i) { return *solvers_[i]; }
  const SsgdOptions& options() const { return options_; }
  /// Simulated cluster size (in timing-only mode only ONE replica exists —
  /// the prototype at node(0) — but pricing still spans this many nodes).
  int num_nodes() const { return topo_.num_nodes; }
  const topo::CostBreakdown& last_comm() const { return last_comm_; }
  int iter() const { return solvers_[0]->iter(); }

  /// The layer-aligned bucket layout (built in the constructor from the
  /// replica's live per-layer parameter counts, verified by swcheck).
  const std::vector<topo::GradientBucket>& bucket_layout() const {
    return buckets_;
  }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  /// Per-bucket breakdowns of the latest iteration, indexed like
  /// bucket_layout() (layer order, not service order).
  const std::vector<topo::CostBreakdown>& last_comm_buckets() const {
    return last_comm_buckets_;
  }

  /// Attaches an optional tracer: each bucket's all-reduce is recorded once
  /// (topo::trace_allreduce) as a "comm.allreduce" span with
  /// alpha/beta/gamma counters on `track`.
  void set_tracer(trace::Tracer* tracer, int track = 0) {
    tracer_ = tracer;
    trace_track_ = track;
  }

 private:
  SsgdOptions options_;
  topo::NetParams net_ = topo::sunway_network();
  topo::Topology topo_;
  std::vector<std::unique_ptr<core::Net>> nets_;
  std::vector<std::unique_ptr<core::SgdSolver>> solvers_;
  std::vector<topo::GradientBucket> buckets_;
  std::vector<std::size_t> bucket_offset_;  ///< float offset of each bucket
  std::vector<topo::CostBreakdown> last_comm_buckets_;
  topo::CostBreakdown last_comm_;
  std::unique_ptr<sim::ThreadPool> pool_;  ///< null when threads <= 1
  /// Per-node error-feedback residuals (param_count floats each); empty
  /// when compression is kNone. Residuals persist across iterations — the
  /// carry is what bounds the accumulated quantization drift.
  std::vector<std::vector<float>> residual_;
  /// step()'s packed per-node gradients, sized on the first step and
  /// reused by every later one.
  std::vector<std::vector<float>> grads_;
  trace::Tracer* tracer_ = nullptr;
  int trace_track_ = 0;

  /// Runs body(r) for every replica slot, on the pool when there is one;
  /// each body must touch only replica r's state.
  void for_each_replica(const std::function<void(int)>& body);

  /// Codec-wrapped price of one bucket of `raw_bytes` on this trainer's
  /// topology (pricing only; no data movement).
  topo::CostBreakdown bucket_cost(std::int64_t raw_bytes) const {
    return topo::allreduce_cost(options_.algo, options_.compression,
                                raw_bytes, topo_, net_);
  }
};

}  // namespace swcaffe::parallel
