// swfault: fault-tolerant synchronous SGD.
//
// Wraps parallel::SsgdTrainer's split-phase API with the resilience
// mechanisms of a production run:
//
//   * every network collective goes through the retry/backoff/escalation
//     path (resilient_comm), so message loss costs time, never gradients;
//   * straggler-aware aggregation: when a node blows the per-iteration
//     deadline, the survivors aggregate without it (bounded staleness: the
//     late gradient joins the NEXT iteration's aggregate) instead of
//     stalling the whole machine;
//   * periodic versioned checkpoints plus run_with_restarts(), which
//     rewinds a crashed run to the latest checkpoint and replays it
//     bit-identically (the fault schedule is a pure function of the seed,
//     so recovery is deterministic too).
//
// With a disabled FaultSpec every step is literally SsgdTrainer::step() —
// same call sequence, same float-summation order, bit-identical weights.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "fault/checkpoint.h"
#include "fault/injector.h"
#include "fault/resilient_comm.h"
#include "parallel/ssgd.h"

namespace swcaffe::fault {

struct FtOptions {
  parallel::SsgdOptions ssgd;
  FaultSpec faults;
  RetryPolicy retry;

  /// Max iterations a late gradient may lag (0 = always wait; 1 = the
  /// survivors proceed and fold the late gradient into the next step).
  int max_staleness = 1;

  int checkpoint_every = 0;  ///< iterations between checkpoints (0 = off)
  std::string checkpoint_prefix;  ///< path prefix for checkpoint files
  std::string plan_cache;         ///< swtune plan-cache reference to record
  /// Job namespace for checkpoint files (src/sched multi-tenant runs):
  /// non-empty ids write `<prefix>.<job>.ckpt.<iter>` and refuse to restore
  /// a checkpoint recorded by any other job. Empty = single-job legacy
  /// layout `<prefix>.<iter>`.
  std::string job_id;
};

/// Outcome of one fault-tolerant iteration.
struct StepResult {
  double loss = 0.0;
  double sim_seconds = 0.0;  ///< compute + collective + recovery
  double recovery_s = 0.0;   ///< retries, backoff, delays, escalations
  int retries = 0;
  int late_nodes = 0;
  bool stale_applied = false;  ///< a carried-over gradient joined this step
  bool crashed = false;        ///< the crash site fired; state is untouched
};

class FtSsgdTrainer {
 public:
  FtSsgdTrainer(const core::NetSpec& spec, int num_nodes,
                const core::SolverSpec& solver, const FtOptions& options,
                std::uint64_t seed = 1);

  /// One fault-tolerant SSGD iteration. A healthy node computes for 1 ms of
  /// simulated time, a straggler for its factor times that; a node is late
  /// when it needs more than 2.5 ms. When the crash site fires, returns
  /// crashed=true WITHOUT touching trainer state — the caller restarts via
  /// restore_latest() (see run_with_restarts).
  StepResult step(std::span<const float> data, std::span<const float> labels);

  /// Writes a checkpoint of the current state to `path`.
  void save_checkpoint(const std::string& path);
  /// Restores state from a checkpoint file.
  void restore_checkpoint(const std::string& path);
  /// Rewinds to the most recent checkpoint (the initial state when no
  /// periodic checkpoint was written yet) and records the restart.
  void restore_latest();

  int iter() const { return ssgd_.iter(); }
  parallel::SsgdTrainer& ssgd() { return ssgd_; }
  FaultInjector& injector() { return injector_; }
  const FaultStats& stats() const { return injector_.stats(); }
  int stale_count() const { return stale_count_; }
  const std::string& last_checkpoint() const { return last_checkpoint_; }

  void set_tracer(trace::Tracer* tracer, int track = 0) {
    ssgd_.set_tracer(tracer, track);
    injector_.set_tracer(tracer, track);
  }

 private:
  Checkpoint capture();
  void restore(const Checkpoint& ckpt);

  FtOptions options_;
  parallel::SsgdTrainer ssgd_;
  FaultInjector injector_;
  std::vector<float> stale_sum_;  ///< summed late gradients, one iter old
  /// step()'s packed per-node gradients, reused across steps.
  std::vector<std::vector<float>> grads_;
  int stale_count_ = 0;
  Checkpoint initial_;            ///< pre-training state (restart fallback)
  std::string last_checkpoint_;
  bool crash_fired_ = false;
};

/// Fills `data`/`labels` with iteration `iter`'s global batch. Must be a
/// pure function of `iter` so a restarted run replays identical batches.
using BatchFn = std::function<void(std::int64_t iter, std::vector<float>& data,
                                   std::vector<float>& labels)>;

struct RunResult {
  double final_loss = 0.0;
  double sim_seconds = 0.0;
  std::int64_t iters = 0;
  int restarts = 0;
};

/// Drives the trainer to `max_iter`, handling crashes by rewinding to the
/// latest checkpoint and replaying ("fault.restart" marks each recovery).
RunResult run_with_restarts(FtSsgdTrainer& trainer, const BatchFn& next_batch,
                            std::int64_t max_iter);

}  // namespace swcaffe::fault
