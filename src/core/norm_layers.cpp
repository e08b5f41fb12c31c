// BatchNorm (with learnable scale/shift) and cross-channel LRN.
#include <algorithm>
#include <cmath>

#include "base/log.h"
#include "core/layers.h"
#include "tensor/filler.h"

namespace swcaffe::core {

// --- BatchNorm ----------------------------------------------------------------

void BatchNormLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                           const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 1u);
  const tensor::Tensor& in = *bottoms[0];
  SWC_CHECK_EQ(in.num_axes(), 4);
  channels_ = in.channels();
  tops[0]->reshape_like(in);

  if (params_.empty()) {
    params_.push_back(
        std::make_shared<tensor::Tensor>(std::vector<int>{channels_}));
    params_.push_back(
        std::make_shared<tensor::Tensor>(std::vector<int>{channels_}));
  }
  running_mean_.assign(channels_, 0.0f);
  running_var_.assign(channels_, 1.0f);
  mean_.assign(channels_, 0.0f);
  var_.assign(channels_, 0.0f);
  x_hat_.assign(in.count(), 0.0f);

  desc_ = LayerDesc{};
  desc_.name = spec_.name;
  desc_.kind = LayerKind::kBatchNorm;
  desc_.input_count = static_cast<std::int64_t>(in.count());
  desc_.output_count = desc_.input_count;
  desc_.param_count = 2 * channels_;
}

std::vector<tensor::FillerSpec> BatchNormLayer::param_fillers() const {
  // Identity scale, zero shift.
  return {tensor::FillerSpec::constant(1.0f), tensor::FillerSpec::constant(0.0f)};
}

void BatchNormLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                             const std::vector<tensor::Tensor*>& tops) {
  const tensor::Tensor& in = *bottoms[0];
  const int n = in.num(), h = in.height(), w = in.width();
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t img = static_cast<std::size_t>(channels_) * plane;
  const double m = static_cast<double>(n) * plane;
  const float* x = in.data_ptr();
  float* y = tops[0]->mutable_data_ptr();
  const float* gamma = params_[0]->data_ptr();
  const float* beta = params_[1]->data_ptr();

  if (phase_ == Phase::kTrain) {
    for (int c = 0; c < channels_; ++c) {
      double sum = 0.0, sq = 0.0;
      for (int b = 0; b < n; ++b) {
        const float* p = x + b * img + c * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          sum += p[i];
          sq += static_cast<double>(p[i]) * p[i];
        }
      }
      const double mu = sum / m;
      mean_[c] = static_cast<float>(mu);
      var_[c] = static_cast<float>(std::max(sq / m - mu * mu, 0.0));
      running_mean_[c] = spec_.bn_momentum * running_mean_[c] +
                         (1.0f - spec_.bn_momentum) * mean_[c];
      running_var_[c] = spec_.bn_momentum * running_var_[c] +
                        (1.0f - spec_.bn_momentum) * var_[c];
    }
  } else {
    mean_ = running_mean_;
    var_ = running_var_;
  }

  x_hat_.resize(in.count());
  for (int c = 0; c < channels_; ++c) {
    const float inv_std = 1.0f / std::sqrt(var_[c] + spec_.bn_eps);
    for (int b = 0; b < n; ++b) {
      const std::size_t off = b * img + c * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const float xh = (x[off + i] - mean_[c]) * inv_std;
        x_hat_[off + i] = xh;
        y[off + i] = gamma[c] * xh + beta[c];
      }
    }
  }
}

void BatchNormLayer::backward(const std::vector<tensor::Tensor*>& tops,
                              const std::vector<tensor::Tensor*>& bottoms,
                              const std::vector<bool>& prop_down) {
  const tensor::Tensor& in = *bottoms[0];
  const int n = in.num(), h = in.height(), w = in.width();
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t img = static_cast<std::size_t>(channels_) * plane;
  const double m = static_cast<double>(n) * plane;
  auto td = tops[0]->diff();
  auto gamma_diff = params_[0]->diff();
  auto beta_diff = params_[1]->diff();
  const float* gamma = params_[0]->data_ptr();

  for (int c = 0; c < channels_; ++c) {
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    for (int b = 0; b < n; ++b) {
      const std::size_t off = b * img + c * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        sum_dy += td[off + i];
        sum_dy_xhat += static_cast<double>(td[off + i]) * x_hat_[off + i];
      }
    }
    gamma_diff[c] += static_cast<float>(sum_dy_xhat);
    beta_diff[c] += static_cast<float>(sum_dy);

    if (!prop_down.empty() && prop_down[0]) {
      auto bd = bottoms[0]->diff();
      const float inv_std = 1.0f / std::sqrt(var_[c] + spec_.bn_eps);
      const float scale = gamma[c] * inv_std / static_cast<float>(m);
      for (int b = 0; b < n; ++b) {
        const std::size_t off = b * img + c * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          const double dx = m * td[off + i] - sum_dy -
                            x_hat_[off + i] * sum_dy_xhat;
          bd[off + i] += scale * static_cast<float>(dx);
        }
      }
    }
  }
}

// --- LRN (across channels, Caffe semantics) ------------------------------------

void LrnLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                     const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 1u);
  SWC_CHECK_EQ(bottoms[0]->num_axes(), 4);
  SWC_CHECK_EQ(spec_.lrn_size % 2, 1);
  tops[0]->reshape_like(*bottoms[0]);
  scale_.assign(bottoms[0]->count(), 0.0f);

  desc_ = LayerDesc{};
  desc_.name = spec_.name;
  desc_.kind = LayerKind::kLRN;
  desc_.input_count = static_cast<std::int64_t>(bottoms[0]->count());
  desc_.output_count = desc_.input_count;
}

void LrnLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                       const std::vector<tensor::Tensor*>& tops) {
  const tensor::Tensor& in = *bottoms[0];
  const int n = in.num(), c = in.channels(), h = in.height(), w = in.width();
  const int half = spec_.lrn_size / 2;
  const float alpha_n = spec_.lrn_alpha / spec_.lrn_size;
  const float* x = in.data_ptr();
  float* y = tops[0]->mutable_data_ptr();
  scale_.resize(in.count());
  for (int b = 0; b < n; ++b) {
    for (int ci = 0; ci < c; ++ci) {
      for (int yy = 0; yy < h; ++yy) {
        for (int xx = 0; xx < w; ++xx) {
          float acc = 0.0f;
          const int lo = std::max(0, ci - half);
          const int hi = std::min(c - 1, ci + half);
          for (int cj = lo; cj <= hi; ++cj) {
            const float v = x[in.offset(b, cj, yy, xx)];
            acc += v * v;
          }
          const std::size_t o = in.offset(b, ci, yy, xx);
          scale_[o] = 1.0f + alpha_n * acc;
          y[o] = x[o] * std::pow(scale_[o], -spec_.lrn_beta);
        }
      }
    }
  }
}

void LrnLayer::backward(const std::vector<tensor::Tensor*>& tops,
                        const std::vector<tensor::Tensor*>& bottoms,
                        const std::vector<bool>& prop_down) {
  if (prop_down.empty() || !prop_down[0]) return;
  const tensor::Tensor& in = *bottoms[0];
  const int n = in.num(), c = in.channels(), h = in.height(), w = in.width();
  const int half = spec_.lrn_size / 2;
  const float alpha_n = spec_.lrn_alpha / spec_.lrn_size;
  const float* x = in.data_ptr();
  auto y = tops[0]->data();
  auto td = tops[0]->diff();
  auto bd = bottoms[0]->diff();
  for (int b = 0; b < n; ++b) {
    for (int ci = 0; ci < c; ++ci) {
      for (int yy = 0; yy < h; ++yy) {
        for (int xx = 0; xx < w; ++xx) {
          const std::size_t oi = in.offset(b, ci, yy, xx);
          // Direct term.
          float grad = td[oi] * std::pow(scale_[oi], -spec_.lrn_beta);
          // Cross terms: every output j whose window contains i.
          const int lo = std::max(0, ci - half);
          const int hi = std::min(c - 1, ci + half);
          float cross = 0.0f;
          for (int cj = lo; cj <= hi; ++cj) {
            const std::size_t oj = in.offset(b, cj, yy, xx);
            cross += td[oj] * y[oj] / scale_[oj];
          }
          grad -= 2.0f * alpha_n * spec_.lrn_beta * x[oi] * cross;
          bd[oi] += grad;
        }
      }
    }
  }
}

}  // namespace swcaffe::core
