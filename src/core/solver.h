// Stochastic gradient descent solver (Caffe SGD semantics: momentum,
// weight decay, learning-rate policies). The gradient-computation and
// parameter-update halves are separable so the distributed trainer can
// all-reduce gradients between them (paper Algorithm 1, line 9/10).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/net.h"

namespace swcaffe::core {

enum class LrPolicy { kFixed, kStep, kPoly, kInv };

enum class SolverType {
  kSgd,       ///< classic momentum SGD (the paper's solver)
  kNesterov,  ///< Nesterov accelerated gradient (Caffe semantics)
};

struct SolverSpec {
  SolverType type = SolverType::kSgd;
  float base_lr = 0.01f;
  float momentum = 0.9f;
  float weight_decay = 0.0f;
  LrPolicy policy = LrPolicy::kFixed;
  float gamma = 0.1f;     ///< step decay factor / inv decay rate
  int step_size = 100000; ///< iterations per step decay
  float power = 1.0f;     ///< poly/inv decay exponent
  int max_iter = 10000;   ///< poly horizon
};

class SgdSolver {
 public:
  SgdSolver(Net& net, const SolverSpec& spec);

  /// One full iteration: forward, backward, update. Returns the loss.
  double step();

  /// Gradient half only (distributed callers all-reduce diffs after this).
  double compute_gradients() { return net_->forward_backward(); }

  /// Update half: v = momentum*v + lr*(diff + wd*w); w -= v (or the
  /// Nesterov variant). Advances iter. Every change of iter (here,
  /// restore(), set_state()) is passed to Net::set_iteration, so the net's
  /// dropout masks are those of the solver's iteration.
  void apply_update();

  /// The same update from a packed gradient (Net::pack_param_diffs
  /// layout): each param's diff becomes grad * scale and is applied in the
  /// same pass. Bit-identical to scaling `grad`, Net::unpack_param_diffs and
  /// apply_update(), without the two extra passes over the gradient.
  void apply_update(std::span<const float> grad, float scale);

  float current_lr() const;
  int iter() const { return iter_; }

  /// Snapshot everything needed to resume bit-exactly: net parameters,
  /// momentum history and the iteration counter.
  void snapshot(const std::string& path) const;
  void restore(const std::string& path);

  /// Momentum-state access for external serializers (swfault checkpoints).
  const std::vector<std::vector<float>>& history() const { return history_; }
  /// Restores the iteration counter and momentum buffers; shapes must match
  /// this solver's net.
  void set_state(int iter, const std::vector<std::vector<float>>& history);

 private:
  Net* net_;
  SolverSpec spec_;
  int iter_ = 0;
  std::vector<std::vector<float>> history_;  ///< momentum buffer per param
};

}  // namespace swcaffe::core
