// Single-node training harness: wires the I/O prefetcher, the multi-core-
// group runner (Algorithm 1) and the solver into Caffe's familiar train
// loop (display/test/snapshot intervals), and accounts the simulated
// SW26010 time of every iteration (compute from the cost model, I/O from
// the disk model, overlapped the way the prefetch thread overlaps them).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/layer_desc.h"
#include "core/solver.h"
#include "hw/cost_model.h"
#include "io/prefetch.h"
#include "parallel/node_runner.h"
#include "swdnn/conv_plan.h"

namespace swcaffe::parallel {

/// The node runs Algorithm 1 on all four core groups of the chip and reads
/// its samples from striped dataset files.
struct TrainOptions {
  int max_iter = 100;
  int display_every = 10;    ///< 0 disables logging
  int test_every = 0;        ///< 0 disables the test phase
  int test_batches = 4;
  int snapshot_every = 0;    ///< 0 disables snapshots
  std::string snapshot_prefix = "swcaffe";
  /// Optional: records the run as simulated-time spans (track 0 = the node:
  /// iteration > compute > per-layer detail, plus exposed I/O; tracks 1..CGs
  /// = one "forward_backward" span per core group per iteration). Null costs
  /// nothing and every TrainStats number is bit-identical to an untraced run.
  trace::Tracer* tracer = nullptr;
  /// Run the swtune autotuner over the net at construction: every replica is
  /// switched onto the tuned per-layer strategies and the simulated compute
  /// time per iteration is priced at the tuned plans.
  bool tune = false;
  /// Optional persistent plan cache for --tune (loaded before the search,
  /// written back after; a warm cache skips the search entirely).
  std::string plan_cache;
};

struct TrainStats {
  std::vector<double> losses;        ///< per displayed iteration
  std::vector<double> test_accuracy; ///< per test run
  double final_loss = 0.0;
  double simulated_seconds = 0.0;    ///< SW26010 wall time of the whole run
  double simulated_io_seconds = 0.0; ///< portion that was NOT hidden
  /// Per-iteration compute at the plans actually run (== default when the
  /// tuner is off) and at the hand-written defaults, for tuned-vs-default
  /// reporting in the benches.
  double compute_per_iter_seconds = 0.0;
  double default_compute_per_iter_seconds = 0.0;
  int iterations = 0;
};

class Trainer {
 public:
  /// `spec` is the per-core-group spec (sub-batch = node batch / CGs) with
  /// "data"/"label" inputs; the dataset must produce matching image sizes.
  Trainer(const core::NetSpec& spec, const core::SolverSpec& solver,
          const io::DatasetSpec& dataset, const io::DiskParams& disk,
          const TrainOptions& options);

  /// Runs the loop; returns per-run statistics.
  TrainStats run();

  core::Net& net() { return runner_->master(); }
  core::SgdSolver& solver() { return *solver_; }

 private:
  double evaluate(int batches);

  TrainOptions options_;
  std::unique_ptr<NodeRunner> runner_;
  std::unique_ptr<core::SgdSolver> solver_;
  std::unique_ptr<io::Prefetcher> prefetcher_;
  hw::CostModel cost_;
  io::SyntheticImageNet eval_data_;
  double sim_compute_per_iter_ = 0.0;
  double sim_compute_default_ = 0.0;
  std::vector<core::LayerDesc> descs_;
  /// Tuned per-conv estimates (empty when options_.tune is false; an empty
  /// map makes every estimator call bit-identical to the untuned path).
  std::map<std::string, dnn::ConvEstimate> overrides_;
};

}  // namespace swcaffe::parallel
