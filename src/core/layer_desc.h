// Architecture-neutral layer descriptors.
//
// A LayerDesc captures everything the performance models need about one
// layer at one batch size: kind, shapes, flop counts and byte counts. The
// functional framework (core::Net) produces them from live layers, and the
// model zoo produces them by pure shape inference so that paper-scale
// configurations (batch-128 VGG-16, batch-256 AlexNet) can be timed without
// allocating multi-gigabyte activations. Consumed by swdnn (SW26010 times)
// and perfmodel (GPU/CPU baselines).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace swcaffe::core {

enum class LayerKind {
  kData,
  kConv,
  kInnerProduct,
  kLSTM,  // recurrent layer; GEMM-dominated on SW26010 (paper Sec. IV-A)
  kReLU,
  kSigmoid,
  kTanH,
  kPool,
  kBatchNorm,
  kLRN,
  kDropout,
  kSoftmax,
  kSoftmaxLoss,
  kAccuracy,
  kEltwise,
  kConcat,
  kTransform,  // tensor layout transformation layer (paper Sec. IV-C)
};

const char* layer_kind_name(LayerKind kind);

/// Convolution geometry in the paper's notation (Sec. IV-B): filter
/// (No, Ni, K, K), input image (Ri, Ci, Ni), stride S, zero padding P.
struct ConvGeom {
  int batch = 0;
  int in_c = 0;   ///< Ni
  int out_c = 0;  ///< No
  int in_h = 0;   ///< Ri
  int in_w = 0;   ///< Ci
  int kernel = 0; ///< K
  int stride = 1; ///< S
  int pad = 0;
  /// Channel groups (Caffe semantics: group g's out channels see only group
  /// g's in channels; the original AlexNet used group = 2).
  int group = 1;

  bool operator==(const ConvGeom&) const = default;

  int out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }

  /// Multiply-add pairs counted as 2 flops, whole batch.
  double flops_fwd() const {
    return 2.0 * batch * out_c * (in_c / group) * kernel * kernel *
           static_cast<double>(out_h()) * out_w();
  }
  /// Weight-gradient and input-gradient GEMMs have the same flop count as
  /// the forward pass each.
  double flops_bwd_weight() const { return flops_fwd(); }
  double flops_bwd_input() const { return flops_fwd(); }

  std::int64_t input_count() const {
    return static_cast<std::int64_t>(batch) * in_c * in_h * in_w;
  }
  std::int64_t output_count() const {
    return static_cast<std::int64_t>(batch) * out_c * out_h() * out_w();
  }
  std::int64_t weight_count() const {
    return static_cast<std::int64_t>(out_c) * (in_c / group) * kernel *
           kernel;
  }

  /// The geometry of one group in isolation (what each group's kernel sees).
  ConvGeom per_group() const {
    ConvGeom g = *this;
    g.in_c = in_c / group;
    g.out_c = out_c / group;
    g.group = 1;
    return g;
  }
};

/// Per-layer strategy assignment a tuner hands to a live network: which
/// convolution path each pass runs. The functional ConvLayer keeps one
/// backward flag, so a mixed dW/dX tuning maps to implicit_backward only
/// when both backward passes choose the implicit kernel.
struct ConvPlanAssignment {
  bool implicit_forward = false;
  bool implicit_backward = false;
};

/// GEMM dims of an inner-product layer: out(m x n) = in(m x k) * W^T.
struct FcGeom {
  std::int64_t m = 0;  ///< batch
  std::int64_t n = 0;  ///< output features
  std::int64_t k = 0;  ///< input features
  bool operator==(const FcGeom&) const = default;
  double flops_fwd() const { return 2.0 * m * n * k; }
};

struct PoolGeom {
  int batch = 0, channels = 0, in_h = 0, in_w = 0;
  int kernel = 2, stride = 2, pad = 0;
  bool global = false;  ///< pool the full feature map (ResNet/GoogleNet head)

  bool operator==(const PoolGeom&) const = default;

  /// Caffe's ceil-mode pooled size.
  static int pooled(int in, int kernel, int stride, int pad) {
    int out = (in + 2 * pad - kernel + stride - 1) / stride + 1;
    if (pad > 0 && (out - 1) * stride >= in + pad) --out;  // clip last window
    return out;
  }
  int out_h() const { return global ? 1 : pooled(in_h, kernel, stride, pad); }
  int out_w() const { return global ? 1 : pooled(in_w, kernel, stride, pad); }
};

struct LayerDesc {
  std::string name;
  LayerKind kind = LayerKind::kReLU;

  ConvGeom conv;  ///< valid when kind == kConv
  FcGeom fc;      ///< valid when kind == kInnerProduct or kLSTM (per step)
  PoolGeom pool;  ///< valid when kind == kPool
  int steps = 1;  ///< sequential repetitions (LSTM time steps)

  /// Element counts (floats) of the main input/output/parameter blobs; used
  /// for bandwidth-bound ops and communication sizing.
  std::int64_t input_count = 0;
  std::int64_t output_count = 0;
  std::int64_t param_count = 0;

  bool operator==(const LayerDesc&) const = default;
  std::int64_t param_bytes() const { return param_count * 4; }
};

/// Sum of parameter bytes across a net description (the all-reduce message
/// size of data-parallel SGD; paper Sec. VI-C quotes 232.6 MB for AlexNet
/// and 97.7 MB for ResNet-50).
std::int64_t total_param_bytes(const std::vector<LayerDesc>& descs);

}  // namespace swcaffe::core
