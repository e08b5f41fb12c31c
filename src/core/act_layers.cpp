// ReLU, Dropout, Softmax, SoftmaxWithLoss and Accuracy layers.
#include <algorithm>
#include <cmath>

#include "base/log.h"
#include "base/rng.h"
#include "core/layers.h"

namespace swcaffe::core {

namespace {

void fill_simple_desc(LayerDesc& d, const LayerSpec& spec, LayerKind kind,
                      const tensor::Tensor& in, const tensor::Tensor& out) {
  d = LayerDesc{};
  d.name = spec.name;
  d.kind = kind;
  d.input_count = static_cast<std::int64_t>(in.count());
  d.output_count = static_cast<std::int64_t>(out.count());
}

}  // namespace

// --- ReLU --------------------------------------------------------------------

void ReluLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                      const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 1u);
  tops[0]->reshape_like(*bottoms[0]);
  fill_simple_desc(desc_, spec_, LayerKind::kReLU, *bottoms[0], *tops[0]);
}

void ReluLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                        const std::vector<tensor::Tensor*>& tops) {
  auto in = bottoms[0]->data();
  auto out = tops[0]->data();
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = std::max(0.0f, in[i]);
}

void ReluLayer::backward(const std::vector<tensor::Tensor*>& tops,
                         const std::vector<tensor::Tensor*>& bottoms,
                         const std::vector<bool>& prop_down) {
  if (prop_down.empty() || !prop_down[0]) return;
  auto in = bottoms[0]->data();
  auto bd = bottoms[0]->diff();
  auto td = tops[0]->diff();
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] > 0.0f) bd[i] += td[i];
  }
}

// --- Sigmoid -------------------------------------------------------------------

void SigmoidLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                         const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 1u);
  tops[0]->reshape_like(*bottoms[0]);
  fill_simple_desc(desc_, spec_, LayerKind::kSigmoid, *bottoms[0], *tops[0]);
}

void SigmoidLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                           const std::vector<tensor::Tensor*>& tops) {
  auto in = bottoms[0]->data();
  auto out = tops[0]->data();
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = 1.0f / (1.0f + std::exp(-in[i]));
  }
}

void SigmoidLayer::backward(const std::vector<tensor::Tensor*>& tops,
                            const std::vector<tensor::Tensor*>& bottoms,
                            const std::vector<bool>& prop_down) {
  if (prop_down.empty() || !prop_down[0]) return;
  auto y = tops[0]->data();
  auto td = tops[0]->diff();
  auto bd = bottoms[0]->diff();
  for (std::size_t i = 0; i < y.size(); ++i) {
    bd[i] += td[i] * y[i] * (1.0f - y[i]);
  }
}

// --- TanH -----------------------------------------------------------------------

void TanhLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                      const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 1u);
  tops[0]->reshape_like(*bottoms[0]);
  fill_simple_desc(desc_, spec_, LayerKind::kTanH, *bottoms[0], *tops[0]);
}

void TanhLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                        const std::vector<tensor::Tensor*>& tops) {
  auto in = bottoms[0]->data();
  auto out = tops[0]->data();
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = std::tanh(in[i]);
}

void TanhLayer::backward(const std::vector<tensor::Tensor*>& tops,
                         const std::vector<tensor::Tensor*>& bottoms,
                         const std::vector<bool>& prop_down) {
  if (prop_down.empty() || !prop_down[0]) return;
  auto y = tops[0]->data();
  auto td = tops[0]->diff();
  auto bd = bottoms[0]->diff();
  for (std::size_t i = 0; i < y.size(); ++i) {
    bd[i] += td[i] * (1.0f - y[i] * y[i]);
  }
}

// --- Dropout -------------------------------------------------------------------

void DropoutLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                         const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 1u);
  SWC_CHECK_GT(spec_.dropout_ratio, 0.0f);
  SWC_CHECK_LT(spec_.dropout_ratio, 1.0f);
  tops[0]->reshape_like(*bottoms[0]);
  mask_.assign(bottoms[0]->count(), 1.0f);
  fill_simple_desc(desc_, spec_, LayerKind::kDropout, *bottoms[0], *tops[0]);
}

void DropoutLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                           const std::vector<tensor::Tensor*>& tops) {
  auto in = bottoms[0]->data();
  auto out = tops[0]->data();
  if (phase_ == Phase::kTest) {
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  // Inverted dropout: scale kept activations so test time is an identity.
  // Mask element i is a pure function of (seed, layer, replica, iteration,
  // i): layers and replicas draw their own masks, and a replayed iteration
  // redraws the same one.
  const float keep = 1.0f - spec_.dropout_ratio;
  const float scale = 1.0f / keep;
  const base::Key key = base::Key(draw_.seed, base::Site::kDropout)
                            .then(static_cast<std::uint64_t>(draw_.layer))
                            .then(static_cast<std::uint64_t>(draw_.replica))
                            .then(static_cast<std::uint64_t>(draw_.iter));
  for (std::size_t i = 0; i < in.size(); ++i) {
    mask_[i] = base::bernoulli(key.bits(i), keep) ? scale : 0.0f;
    out[i] = in[i] * mask_[i];
  }
}

void DropoutLayer::backward(const std::vector<tensor::Tensor*>& tops,
                            const std::vector<tensor::Tensor*>& bottoms,
                            const std::vector<bool>& prop_down) {
  if (prop_down.empty() || !prop_down[0]) return;
  auto bd = bottoms[0]->diff();
  auto td = tops[0]->diff();
  if (phase_ == Phase::kTest) {
    for (std::size_t i = 0; i < bd.size(); ++i) bd[i] += td[i];
    return;
  }
  for (std::size_t i = 0; i < bd.size(); ++i) bd[i] += td[i] * mask_[i];
}

// --- Softmax -------------------------------------------------------------------

namespace {

/// Row-wise softmax of (rows x classes).
void softmax_rows(const float* in, int rows, int classes, float* out) {
  for (int r = 0; r < rows; ++r) {
    const float* x = in + static_cast<std::size_t>(r) * classes;
    float* y = out + static_cast<std::size_t>(r) * classes;
    float mx = x[0];
    for (int c = 1; c < classes; ++c) mx = std::max(mx, x[c]);
    float sum = 0.0f;
    for (int c = 0; c < classes; ++c) {
      y[c] = std::exp(x[c] - mx);
      sum += y[c];
    }
    const float inv = 1.0f / sum;
    for (int c = 0; c < classes; ++c) y[c] *= inv;
  }
}

}  // namespace

void SoftmaxLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                         const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 1u);
  tops[0]->reshape_like(*bottoms[0]);
  fill_simple_desc(desc_, spec_, LayerKind::kSoftmax, *bottoms[0], *tops[0]);
}

void SoftmaxLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                           const std::vector<tensor::Tensor*>& tops) {
  const int rows = bottoms[0]->dim(0);
  const int classes = static_cast<int>(bottoms[0]->count()) / rows;
  softmax_rows(bottoms[0]->data_ptr(), rows, classes,
               tops[0]->mutable_data_ptr());
}

void SoftmaxLayer::backward(const std::vector<tensor::Tensor*>& tops,
                            const std::vector<tensor::Tensor*>& bottoms,
                            const std::vector<bool>& prop_down) {
  if (prop_down.empty() || !prop_down[0]) return;
  const int rows = bottoms[0]->dim(0);
  const int classes = static_cast<int>(bottoms[0]->count()) / rows;
  auto y = tops[0]->data();
  auto td = tops[0]->diff();
  auto bd = bottoms[0]->diff();
  for (int r = 0; r < rows; ++r) {
    const std::size_t base = static_cast<std::size_t>(r) * classes;
    float dot = 0.0f;
    for (int c = 0; c < classes; ++c) dot += td[base + c] * y[base + c];
    for (int c = 0; c < classes; ++c) {
      bd[base + c] += y[base + c] * (td[base + c] - dot);
    }
  }
}

// --- SoftmaxWithLoss --------------------------------------------------------

void SoftmaxLossLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                             const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 2u);  // scores, labels
  tops[0]->reshape({1});
  prob_.assign(bottoms[0]->count(), 0.0f);
  fill_simple_desc(desc_, spec_, LayerKind::kSoftmaxLoss, *bottoms[0],
                   *tops[0]);
}

void SoftmaxLossLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                               const std::vector<tensor::Tensor*>& tops) {
  const int rows = bottoms[0]->dim(0);
  const int classes = static_cast<int>(bottoms[0]->count()) / rows;
  SWC_CHECK_EQ(bottoms[1]->count(), static_cast<std::size_t>(rows));
  prob_.resize(bottoms[0]->count());
  softmax_rows(bottoms[0]->data_ptr(), rows, classes, prob_.data());
  auto labels = bottoms[1]->data();
  double loss = 0.0;
  for (int r = 0; r < rows; ++r) {
    const int label = static_cast<int>(labels[r]);
    SWC_CHECK_GE(label, 0);
    SWC_CHECK_LT(label, classes);
    const float p = prob_[static_cast<std::size_t>(r) * classes + label];
    loss -= std::log(std::max(p, 1e-20f));
  }
  tops[0]->data()[0] = static_cast<float>(loss / rows);
}

void SoftmaxLossLayer::backward(const std::vector<tensor::Tensor*>& tops,
                                const std::vector<tensor::Tensor*>& bottoms,
                                const std::vector<bool>& prop_down) {
  if (prop_down.empty() || !prop_down[0]) return;
  const int rows = bottoms[0]->dim(0);
  const int classes = static_cast<int>(bottoms[0]->count()) / rows;
  auto labels = bottoms[1]->data();
  auto bd = bottoms[0]->diff();
  const float top_diff = tops[0]->diff()[0] != 0.0f ? tops[0]->diff()[0] : 1.0f;
  const float scale = top_diff / rows;
  for (int r = 0; r < rows; ++r) {
    const std::size_t base = static_cast<std::size_t>(r) * classes;
    const int label = static_cast<int>(labels[r]);
    for (int c = 0; c < classes; ++c) {
      const float grad = prob_[base + c] - (c == label ? 1.0f : 0.0f);
      bd[base + c] += scale * grad;
    }
  }
}

// --- Accuracy -------------------------------------------------------------------

void AccuracyLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                          const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 2u);
  tops[0]->reshape({1});
  fill_simple_desc(desc_, spec_, LayerKind::kAccuracy, *bottoms[0], *tops[0]);
}

void AccuracyLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                            const std::vector<tensor::Tensor*>& tops) {
  const int rows = bottoms[0]->dim(0);
  const int classes = static_cast<int>(bottoms[0]->count()) / rows;
  const int top_k = std::max(spec_.top_k, 1);
  auto scores = bottoms[0]->data();
  auto labels = bottoms[1]->data();
  int correct = 0;
  for (int r = 0; r < rows; ++r) {
    const std::size_t base = static_cast<std::size_t>(r) * classes;
    const int label = static_cast<int>(labels[r]);
    // Top-k hit: fewer than k classes score strictly above the label's
    // (ImageNet's standard top-5 metric at k=5).
    int above = 0;
    for (int c = 0; c < classes; ++c) {
      if (scores[base + c] > scores[base + label]) ++above;
    }
    if (above < top_k) ++correct;
  }
  tops[0]->data()[0] = static_cast<float>(correct) / rows;
}

void AccuracyLayer::backward(const std::vector<tensor::Tensor*>& /*tops*/,
                             const std::vector<tensor::Tensor*>& /*bottoms*/,
                             const std::vector<bool>& /*prop_down*/) {
  // Metric layer: no gradient.
}

}  // namespace swcaffe::core
