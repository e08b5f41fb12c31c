// Net: a DAG of layers over named blobs, executing forward/backward in spec
// order (which must be topological, as in Caffe prototxts). Multi-consumer
// blobs are handled by accumulation: backward zeroes every diff once and
// layers add their contributions, so residual and inception graphs need no
// Split layers.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/layer.h"
#include "core/spec.h"
#include "sim/thread_pool.h"
#include "tensor/tensor.h"

namespace swcaffe::core {

class Net {
 public:
  /// Builds every layer. With a seed, draw_params(seed) runs on this thread
  /// once every layer is set up. std::nullopt draws nothing and leaves every
  /// parameter at 0.0f: for a replica that copy_params_from() or
  /// draw_params() fills next, or a net only its shapes are read from.
  /// Either way the forward-pass draws are keyed by (seed or 1, replica 0).
  explicit Net(const NetSpec& spec, std::optional<std::uint64_t> seed = 1);

  Net(const Net&) = delete;
  Net& operator=(const Net&) = delete;

  /// Writes every parameter from its layer's filler. Element e of parameter
  /// p of layer l is a pure function of (seed, l, p, e), so the weights are
  /// bit-identical whether the chunks run serially or on `pool`.
  void draw_params(std::uint64_t seed, sim::ThreadPool* pool = nullptr);

  /// Keys the forward pass's draws (dropout masks, synthetic batches) by
  /// `seed` and the logical `replica` (see DrawCoords).
  void set_stream(std::uint64_t seed, int replica);

  /// The solver iteration the next forward's draws are keyed by; the net's
  /// SgdSolver keeps it equal to its own iteration.
  void set_iteration(std::int64_t iter) { draws_.iter = iter; }
  std::int64_t iteration() const { return draws_.iter; }

  /// Runs all layers; returns the weighted sum of loss-layer outputs.
  double forward();

  /// Zeroes blob diffs, seeds loss gradients, runs layers in reverse.
  /// Parameter diffs ACCUMULATE (callers zero them via zero_param_diffs()).
  void backward();

  /// forward() + zero_param_diffs() + backward(); returns the loss.
  double forward_backward();

  void set_phase(Phase phase);
  Phase phase() const { return phase_; }

  tensor::Tensor* blob(const std::string& name);
  const tensor::Tensor* blob(const std::string& name) const;
  bool has_blob(const std::string& name) const;

  Layer* layer(const std::string& name);
  const std::vector<std::unique_ptr<Layer>>& layers() const { return layers_; }

  /// All learnable parameter tensors in deterministic order.
  std::vector<tensor::Tensor*> learnable_params();
  std::size_t param_count() const;  ///< total learnable floats

  /// Memory accounting (the net level is where Caffe-style frameworks apply
  /// memory optimizations, paper Sec. II-C): bytes held by activation blobs
  /// and by parameters, data buffers only (diffs double these when
  /// training).
  std::size_t activation_bytes() const;
  std::size_t param_bytes() const { return param_count() * sizeof(float); }

  void zero_param_diffs();

  /// Flattens parameter gradients into `out` / restores them from `in`
  /// (the paper's gradient packing for a single fused all-reduce, Sec. V-A).
  void pack_param_diffs(std::span<float> out) const;
  void unpack_param_diffs(std::span<const float> in);
  void pack_params(std::span<float> out) const;
  void unpack_params(std::span<const float> in);

  /// Copies all parameters from a same-spec net (replica initialization).
  void copy_params_from(const Net& other);

  /// Performance descriptors of every layer (for the timing models).
  std::vector<LayerDesc> describe() const;

  /// Switches convolution layers onto tuned strategy assignments (swtune):
  /// each named conv reports the assigned implicit/explicit plan (its host
  /// arithmetic is the same for every plan). Names not present in the net
  /// are ignored (a plan cache may carry more layers than this replica
  /// instantiates). Returns the number of layers switched.
  int apply_conv_plans(
      const std::map<std::string, ConvPlanAssignment>& assignments);

  const std::string& name() const { return spec_.name; }

 private:
  NetSpec spec_;
  Phase phase_ = Phase::kTrain;
  DrawCoords draws_;  ///< stream seed, replica and iteration; layer per call
  std::map<std::string, std::unique_ptr<tensor::Tensor>> blobs_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<std::vector<tensor::Tensor*>> bottoms_;
  std::vector<std::vector<tensor::Tensor*>> tops_;
  std::vector<std::vector<bool>> prop_down_;
  std::vector<bool> layer_needs_backward_;
};

}  // namespace swcaffe::core
