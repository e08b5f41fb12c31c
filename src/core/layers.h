// Concrete layer classes. Construction goes through core::create_layer();
// the classes are exposed for direct use in unit tests.
#pragma once

#include <vector>

#include "core/layer.h"

namespace swcaffe::core {

/// Convolution with the two swCaffe execution plans. In kAuto mode the layer
/// queries the SW26010 cost model at setup and locks the faster plan per
/// direction — the in-simulator equivalent of the paper's "run the first two
/// iterations with each strategy and keep the winner" (Sec. VI-A). The plan
/// is what the simulated chip would run; the host computes every pass of
/// every plan through im2col + GEMM, which gives the implicit loops' bits.
class ConvLayer : public Layer {
 public:
  explicit ConvLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  std::vector<tensor::FillerSpec> param_fillers() const override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;

  /// The SW26010 plan of each direction (what pricing and swtune read);
  /// neither selects a host code path.
  bool uses_implicit_forward() const { return implicit_fwd_; }
  bool uses_implicit_backward() const { return implicit_bwd_; }

  /// Switches the layer onto a tuned strategy assignment (swtune). Must be
  /// called after setup(); requests are clamped by the kernel support
  /// predicates, so an assignment that asks for an unsupported implicit pass
  /// silently keeps the explicit plan.
  void set_plan(const ConvPlanAssignment& assignment);

 private:
  ConvGeom geom_;
  bool implicit_fwd_ = false;
  bool implicit_bwd_ = false;
  std::vector<float> col_buf_;
  std::vector<float> scratch_;
};

class InnerProductLayer : public Layer {
 public:
  explicit InnerProductLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  std::vector<tensor::FillerSpec> param_fillers() const override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;

 private:
  int m_ = 0, n_ = 0, k_ = 0;
};

/// LSTM over a (T, B, I) sequence -> (T, B, H) hidden states, gates i/f/o/g,
/// zero initial state, full BPTT backward (paper Sec. IV-A's GEMM-dominated
/// recurrent layer).
class LstmLayer : public Layer {
 public:
  explicit LstmLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  std::vector<tensor::FillerSpec> param_fillers() const override;
  void after_draw() override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;

 private:
  int steps_ = 0, batch_ = 0, input_dim_ = 0, hidden_ = 0;
  std::vector<float> gates_;      ///< post-activation i/f/o/g per step
  std::vector<float> cells_;      ///< c_t per step
  std::vector<float> cell_tanh_;  ///< tanh(c_t) per step
};

class ReluLayer : public Layer {
 public:
  explicit ReluLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;
};

class SigmoidLayer : public Layer {
 public:
  explicit SigmoidLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;
};

class TanhLayer : public Layer {
 public:
  explicit TanhLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;
};

class PoolLayer : public Layer {
 public:
  explicit PoolLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;

 private:
  PoolGeom geom_;
  std::vector<int> max_idx_;  ///< argmax per output element (max pooling)
};

/// Batch normalization with learnable scale/shift folded in (the paper's
/// AlexNet refinement replaces LRN with BN, Sec. VI-A).
class BatchNormLayer : public Layer {
 public:
  explicit BatchNormLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  std::vector<tensor::FillerSpec> param_fillers() const override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;

 private:
  int channels_ = 0;
  std::vector<float> mean_, var_, x_hat_;
  std::vector<float> running_mean_, running_var_;
};

/// Local response normalization across channels (original AlexNet/GoogleNet).
class LrnLayer : public Layer {
 public:
  explicit LrnLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;

 private:
  std::vector<float> scale_;
};

class DropoutLayer : public Layer {
 public:
  explicit DropoutLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;

  /// The last training forward's mask: 0 or 1 / (1 - ratio) per element.
  const std::vector<float>& mask() const { return mask_; }

 private:
  std::vector<float> mask_;
};

class SoftmaxLayer : public Layer {
 public:
  explicit SoftmaxLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;
};

/// Softmax + multinomial cross-entropy; bottom(1) holds labels as floats.
class SoftmaxLossLayer : public Layer {
 public:
  explicit SoftmaxLossLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;
  double loss_weight() const override { return 1.0; }

 private:
  std::vector<float> prob_;
};

class AccuracyLayer : public Layer {
 public:
  explicit AccuracyLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;
};

/// Elementwise combination: weighted sum (ResNet shortcut joins; default
/// coefficients are 1) or per-element max (maxout-style), per Caffe's
/// EltwiseParameter.
class EltwiseLayer : public Layer {
 public:
  explicit EltwiseLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;

 private:
  std::vector<int> max_src_;  ///< argmax bottom per element (max mode)
};

/// Channel-axis concatenation (GoogleNet inception joins).
class ConcatLayer : public Layer {
 public:
  explicit ConcatLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;
};

/// Layout transformation layer (paper Sec. IV-C): (B,N,R,C) <-> (R,C,N,B).
/// Direction is chosen by spec.stride: 0 = to RCNB, 1 = back to BNRC.
class TransformLayer : public Layer {
 public:
  explicit TransformLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;
};

/// Deterministic synthetic data source: label-conditioned gaussian images,
/// the stand-in for ImageNet (see DESIGN.md substitutions). A batch is a
/// pure function of (seed, iteration).
class SyntheticDataLayer : public Layer {
 public:
  explicit SyntheticDataLayer(const LayerSpec& spec) : Layer(spec) {}
  void setup(const std::vector<tensor::Tensor*>& bottoms,
             const std::vector<tensor::Tensor*>& tops) override;
  void forward(const std::vector<tensor::Tensor*>& bottoms,
               const std::vector<tensor::Tensor*>& tops) override;
  void backward(const std::vector<tensor::Tensor*>& tops,
                const std::vector<tensor::Tensor*>& bottoms,
                const std::vector<bool>& prop_down) override;
};

}  // namespace swcaffe::core
