// Layer interface in the Caffe mould: setup reshapes tops from bottoms and
// allocates parameters, param_fillers names the fillers the net draws them
// from; forward/backward implement the math. Backward
// ACCUMULATES into bottom diffs (the net zeroes diffs once per iteration),
// which makes multi-consumer blobs (residual connections, inception fan-out)
// correct without Caffe's explicit Split layers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/layer_desc.h"
#include "core/spec.h"
#include "tensor/tensor.h"

namespace swcaffe::core {

/// What a forward pass's draws (dropout masks, synthetic batches) are keyed
/// by, besides the element: the net's seed, the layer's index in the net,
/// the logical replica and the solver iteration (DESIGN.md "Randomness").
/// The net sets them before every forward, so replaying an iteration redraws
/// the same values.
struct DrawCoords {
  std::uint64_t seed = 1;
  int layer = 0;
  int replica = 0;
  std::int64_t iter = 0;
};

class Layer {
 public:
  explicit Layer(const LayerSpec& spec) : spec_(spec) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Shapes tops, allocates parameters (zero-filled; their initial values
  /// are never drawn here) and fills the layer descriptor used by the
  /// performance models.
  virtual void setup(const std::vector<tensor::Tensor*>& bottoms,
                     const std::vector<tensor::Tensor*>& tops) = 0;

  /// The filler of each params() entry, in order (valid after setup()).
  /// Net::draw_params draws them; layers without parameters return none.
  virtual std::vector<tensor::FillerSpec> param_fillers() const { return {}; }

  /// Adjusts the freshly drawn parameters (runs after every filler).
  virtual void after_draw() {}

  void set_draw_coords(const DrawCoords& coords) { draw_ = coords; }

  virtual void forward(const std::vector<tensor::Tensor*>& bottoms,
                       const std::vector<tensor::Tensor*>& tops) = 0;

  /// `prop_down[i]` says whether bottom i needs a gradient. Implementations
  /// must ADD their contribution to bottom diffs.
  virtual void backward(const std::vector<tensor::Tensor*>& tops,
                        const std::vector<tensor::Tensor*>& bottoms,
                        const std::vector<bool>& prop_down) = 0;

  /// Loss weight contribution of this layer's top(0) (1.0 for loss layers).
  virtual double loss_weight() const { return 0.0; }

  const std::string& name() const { return spec_.name; }
  LayerKind kind() const { return spec_.kind; }
  const LayerSpec& spec() const { return spec_; }
  void set_phase(Phase phase) { phase_ = phase; }
  Phase phase() const { return phase_; }

  std::vector<std::shared_ptr<tensor::Tensor>>& params() { return params_; }
  const std::vector<std::shared_ptr<tensor::Tensor>>& params() const {
    return params_;
  }

  /// Performance descriptor (valid after setup).
  const LayerDesc& desc() const { return desc_; }

 protected:
  LayerSpec spec_;
  Phase phase_ = Phase::kTrain;
  std::vector<std::shared_ptr<tensor::Tensor>> params_;
  LayerDesc desc_;
  DrawCoords draw_;
};

/// Factory: instantiates the concrete layer class for a spec.
std::unique_ptr<Layer> create_layer(const LayerSpec& spec);

}  // namespace swcaffe::core
