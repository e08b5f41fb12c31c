// Eltwise sum, channel Concat, TensorTransform and SyntheticData layers,
// plus the layer factory.
#include <algorithm>
#include <cmath>

#include "base/log.h"
#include "base/rng.h"
#include "core/layers.h"
#include "tensor/layout.h"

namespace swcaffe::core {

// --- Eltwise (sum) -----------------------------------------------------------

void EltwiseLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                         const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_GE(bottoms.size(), 2u);
  for (std::size_t i = 1; i < bottoms.size(); ++i) {
    SWC_CHECK_EQ(bottoms[i]->count(), bottoms[0]->count());
  }
  if (!spec_.eltwise_coeffs.empty()) {
    SWC_CHECK_EQ(spec_.eltwise_coeffs.size(), bottoms.size());
    SWC_CHECK_MSG(!spec_.eltwise_max,
                  "eltwise '" << spec_.name << "': max takes no coefficients");
  }
  tops[0]->reshape_like(*bottoms[0]);
  if (spec_.eltwise_max) max_src_.assign(bottoms[0]->count(), 0);
  desc_ = LayerDesc{};
  desc_.name = spec_.name;
  desc_.kind = LayerKind::kEltwise;
  desc_.input_count = static_cast<std::int64_t>(bottoms[0]->count()) *
                      static_cast<std::int64_t>(bottoms.size());
  desc_.output_count = static_cast<std::int64_t>(tops[0]->count());
}

void EltwiseLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                           const std::vector<tensor::Tensor*>& tops) {
  auto out = tops[0]->data();
  if (spec_.eltwise_max) {
    auto first = bottoms[0]->data();
    std::copy(first.begin(), first.end(), out.begin());
    std::fill(max_src_.begin(), max_src_.end(), 0);
    for (std::size_t b = 1; b < bottoms.size(); ++b) {
      auto in = bottoms[b]->data();
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (in[i] > out[i]) {
          out[i] = in[i];
          max_src_[i] = static_cast<int>(b);
        }
      }
    }
    return;
  }
  auto coeff = [&](std::size_t b) {
    return spec_.eltwise_coeffs.empty() ? 1.0f : spec_.eltwise_coeffs[b];
  };
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t b = 0; b < bottoms.size(); ++b) {
    auto in = bottoms[b]->data();
    const float c = coeff(b);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += c * in[i];
  }
}

void EltwiseLayer::backward(const std::vector<tensor::Tensor*>& tops,
                            const std::vector<tensor::Tensor*>& bottoms,
                            const std::vector<bool>& prop_down) {
  auto td = tops[0]->diff();
  if (spec_.eltwise_max) {
    // Winner-take-all gradient routing, like max pooling.
    for (std::size_t i = 0; i < td.size(); ++i) {
      const std::size_t b = static_cast<std::size_t>(max_src_[i]);
      if (b < prop_down.size() && !prop_down[b]) continue;
      bottoms[b]->diff()[i] += td[i];
    }
    return;
  }
  for (std::size_t b = 0; b < bottoms.size(); ++b) {
    if (b < prop_down.size() && !prop_down[b]) continue;
    const float c =
        spec_.eltwise_coeffs.empty() ? 1.0f : spec_.eltwise_coeffs[b];
    auto bd = bottoms[b]->diff();
    for (std::size_t i = 0; i < td.size(); ++i) bd[i] += c * td[i];
  }
}

// --- Concat (channel axis) ----------------------------------------------------

void ConcatLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                        const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_GE(bottoms.size(), 1u);
  int channels = 0;
  for (const auto* b : bottoms) {
    SWC_CHECK_EQ(b->num_axes(), 4);
    SWC_CHECK_EQ(b->num(), bottoms[0]->num());
    SWC_CHECK_EQ(b->height(), bottoms[0]->height());
    SWC_CHECK_EQ(b->width(), bottoms[0]->width());
    channels += b->channels();
  }
  tops[0]->reshape({bottoms[0]->num(), channels, bottoms[0]->height(),
                    bottoms[0]->width()});
  desc_ = LayerDesc{};
  desc_.name = spec_.name;
  desc_.kind = LayerKind::kConcat;
  desc_.input_count = static_cast<std::int64_t>(tops[0]->count());
  desc_.output_count = desc_.input_count;
}

void ConcatLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                          const std::vector<tensor::Tensor*>& tops) {
  tensor::Tensor& out = *tops[0];
  const int n = out.num();
  float* y = out.mutable_data_ptr();
  for (int b = 0; b < n; ++b) {
    std::size_t dst =
        static_cast<std::size_t>(b) * out.channels() * out.height() * out.width();
    for (const auto* bot : bottoms) {
      const std::size_t chunk = bot->count() / n;
      std::copy_n(bot->data_ptr() + b * chunk, chunk, y + dst);
      dst += chunk;
    }
  }
}

void ConcatLayer::backward(const std::vector<tensor::Tensor*>& tops,
                           const std::vector<tensor::Tensor*>& bottoms,
                           const std::vector<bool>& prop_down) {
  const tensor::Tensor& out = *tops[0];
  const int n = out.num();
  auto td = out.diff();
  for (int b = 0; b < n; ++b) {
    std::size_t src =
        static_cast<std::size_t>(b) * out.channels() * out.height() * out.width();
    for (std::size_t bi = 0; bi < bottoms.size(); ++bi) {
      const std::size_t chunk = bottoms[bi]->count() / n;
      if (bi >= prop_down.size() || prop_down[bi]) {
        auto bd = bottoms[bi]->diff();
        for (std::size_t i = 0; i < chunk; ++i) bd[b * chunk + i] += td[src + i];
      }
      src += chunk;
    }
  }
}

// --- TensorTransform -----------------------------------------------------------

void TransformLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                           const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 1u);
  SWC_CHECK_EQ(bottoms[0]->num_axes(), 4);
  const auto& s = bottoms[0]->shape();
  if (spec_.stride == 0) {
    tops[0]->reshape({s[2], s[3], s[1], s[0]});  // BNRC -> RCNB
  } else {
    tops[0]->reshape({s[3], s[2], s[0], s[1]});  // RCNB -> BNRC
  }
  desc_ = LayerDesc{};
  desc_.name = spec_.name;
  desc_.kind = LayerKind::kTransform;
  desc_.input_count = static_cast<std::int64_t>(bottoms[0]->count());
  desc_.output_count = desc_.input_count;
  desc_.conv.in_w = s[3];
}

void TransformLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                             const std::vector<tensor::Tensor*>& tops) {
  if (spec_.stride == 0) {
    tensor::bnrc_to_rcnb(*bottoms[0], *tops[0]);
  } else {
    tensor::rcnb_to_bnrc(*bottoms[0], *tops[0]);
  }
}

void TransformLayer::backward(const std::vector<tensor::Tensor*>& tops,
                              const std::vector<tensor::Tensor*>& bottoms,
                              const std::vector<bool>& prop_down) {
  if (prop_down.empty() || !prop_down[0]) return;
  // The inverse permutation routes the gradient back.
  tensor::Tensor grad_in(tops[0]->shape());
  std::copy(tops[0]->diff().begin(), tops[0]->diff().end(),
            grad_in.data().begin());
  tensor::Tensor grad_out;
  if (spec_.stride == 0) {
    tensor::rcnb_to_bnrc(grad_in, grad_out);
  } else {
    tensor::bnrc_to_rcnb(grad_in, grad_out);
  }
  auto bd = bottoms[0]->diff();
  auto g = grad_out.data();
  for (std::size_t i = 0; i < bd.size(); ++i) bd[i] += g[i];
}

// --- SyntheticData ---------------------------------------------------------------

void SyntheticDataLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                               const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 0u);
  SWC_CHECK_EQ(tops.size(), 2u);
  SWC_CHECK_EQ(spec_.data_shape.size(), 4u);
  SWC_CHECK_GT(spec_.num_classes, 0);
  tops[0]->reshape(spec_.data_shape);
  tops[1]->reshape({spec_.data_shape[0]});
  desc_ = LayerDesc{};
  desc_.name = spec_.name;
  desc_.kind = LayerKind::kData;
  desc_.output_count = static_cast<std::int64_t>(tops[0]->count());
}

void SyntheticDataLayer::forward(const std::vector<tensor::Tensor*>& /*bottoms*/,
                                 const std::vector<tensor::Tensor*>& tops) {
  // Label-conditioned gaussians: class k has mean sin-pattern so that the
  // task is learnable (used by the convergence examples/tests).
  // Labels are draws of (seed, iteration, 0), pixel noise the normal
  // elements of (seed, iteration, 1).
  tensor::Tensor& data = *tops[0];
  tensor::Tensor& label = *tops[1];
  const int batch = data.num();
  const std::size_t img = data.count() / batch;
  const base::Key key = base::Key(draw_.seed, base::Site::kData)
                            .then(static_cast<std::uint64_t>(draw_.iter));
  const base::Key labels = key.then(0);
  const base::Key noise = key.then(1);
  for (int b = 0; b < batch; ++b) {
    const int cls = static_cast<int>(base::uniform_int(
        labels.bits(static_cast<std::uint64_t>(b)), 0, spec_.num_classes - 1));
    label.data()[b] = static_cast<float>(cls);
    float* px = data.mutable_data_ptr() + b * img;
    base::fill_normal(noise, b * img, std::span<float>(px, img), 0.0f, 0.25f);
    for (std::size_t i = 0; i < img; ++i) {
      px[i] += 0.6f * std::sin(0.37f * static_cast<float>(i + 1) * (cls + 1));
    }
  }
}

void SyntheticDataLayer::backward(const std::vector<tensor::Tensor*>& /*tops*/,
                                  const std::vector<tensor::Tensor*>& /*bottoms*/,
                                  const std::vector<bool>& /*prop_down*/) {}

// --- Factory ----------------------------------------------------------------------

std::unique_ptr<Layer> create_layer(const LayerSpec& spec) {
  switch (spec.kind) {
    case LayerKind::kConv: return std::make_unique<ConvLayer>(spec);
    case LayerKind::kInnerProduct: return std::make_unique<InnerProductLayer>(spec);
    case LayerKind::kLSTM: return std::make_unique<LstmLayer>(spec);
    case LayerKind::kReLU: return std::make_unique<ReluLayer>(spec);
    case LayerKind::kSigmoid: return std::make_unique<SigmoidLayer>(spec);
    case LayerKind::kTanH: return std::make_unique<TanhLayer>(spec);
    case LayerKind::kPool: return std::make_unique<PoolLayer>(spec);
    case LayerKind::kBatchNorm: return std::make_unique<BatchNormLayer>(spec);
    case LayerKind::kLRN: return std::make_unique<LrnLayer>(spec);
    case LayerKind::kDropout: return std::make_unique<DropoutLayer>(spec);
    case LayerKind::kSoftmax: return std::make_unique<SoftmaxLayer>(spec);
    case LayerKind::kSoftmaxLoss: return std::make_unique<SoftmaxLossLayer>(spec);
    case LayerKind::kAccuracy: return std::make_unique<AccuracyLayer>(spec);
    case LayerKind::kEltwise: return std::make_unique<EltwiseLayer>(spec);
    case LayerKind::kConcat: return std::make_unique<ConcatLayer>(spec);
    case LayerKind::kTransform: return std::make_unique<TransformLayer>(spec);
    case LayerKind::kData: return std::make_unique<SyntheticDataLayer>(spec);
  }
  SWC_CHECK_MSG(false, "unknown layer kind");
  return nullptr;
}

}  // namespace swcaffe::core
