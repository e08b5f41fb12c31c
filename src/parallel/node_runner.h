// Single-node multi-core-group training (paper Algorithm 1 / Fig. 5):
// 4 threads, one per core group, each runs forward/backward on 1/4 of the
// mini-batch against its own model replica (core groups have private memory
// spaces); a handshake barrier synchronizes them and CG0 averages the four
// gradient sets.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/net.h"
#include "trace/tracer.h"

namespace swcaffe::parallel {

/// The paper's "Simple_Sync()": an initiation-confirmation handshake barrier
/// built on a shared-memory semaphore (here: mutex + condvar).
class SimpleSync {
 public:
  explicit SimpleSync(int parties);
  /// Blocks until all parties arrive; reusable across rounds.
  void arrive_and_wait();

 private:
  int parties_;
  int arrived_ = 0;
  std::int64_t generation_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
};

class NodeRunner {
 public:
  /// `spec` must take the PER-CORE-GROUP sub-batch (mini-batch / num_cgs)
  /// and declare "data"/"label" inputs. All replicas start from identical
  /// parameters.
  NodeRunner(const core::NetSpec& spec, int num_core_groups = 4,
             std::uint64_t seed = 1);

  /// One gradient computation: splits the node's mini-batch over the core
  /// groups (threads), barriers, and averages gradients into the master
  /// replica's diffs. Returns the mean loss. `data`/`labels` hold the full
  /// node mini-batch.
  double compute_gradients(std::span<const float> data,
                           std::span<const float> labels);

  /// Replica 0; its params/diffs are the node's canonical state.
  core::Net& master() { return *nets_[0]; }
  core::Net& replica(int cg) { return *nets_[cg]; }
  int num_core_groups() const { return static_cast<int>(nets_.size()); }

  /// Pushes master's (post-update) parameters to the other core groups.
  void broadcast_params();

  /// Attaches an optional tracer. Each compute_gradients() then emits one
  /// "forward_backward" span per core group on tracks base_track..+CGs-1
  /// (aligned to the node track's clock; all CGs run concurrently for
  /// `sim_iter_seconds` of simulated time, Algorithm 1), and marks the CG0
  /// gradient average and the parameter broadcast as instants on the node
  /// track. Purely observational — the functional math is unchanged.
  void set_tracer(trace::Tracer* tracer, double sim_iter_seconds,
                  int node_track = 0, int base_track = 1);

 private:
  std::vector<std::unique_ptr<core::Net>> nets_;
  trace::Tracer* tracer_ = nullptr;
  double sim_iter_seconds_ = 0.0;
  int node_track_ = 0;
  int base_track_ = 1;
};

}  // namespace swcaffe::parallel
