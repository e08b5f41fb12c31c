#include "base/log.h"
#include "core/layers.h"
#include "swgemm/reference.h"
#include "tensor/filler.h"

namespace swcaffe::core {

void InnerProductLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                              const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 1u);
  SWC_CHECK_EQ(tops.size(), 1u);
  const tensor::Tensor& in = *bottoms[0];
  m_ = in.dim(0);
  k_ = static_cast<int>(in.count() / m_);
  n_ = spec_.num_output;
  SWC_CHECK_GT(n_, 0);
  tops[0]->reshape({m_, n_});

  if (params_.empty()) {
    params_.push_back(
        std::make_shared<tensor::Tensor>(std::vector<int>{n_, k_}));
    if (spec_.bias) {
      params_.push_back(std::make_shared<tensor::Tensor>(std::vector<int>{n_}));
    }
  }

  desc_ = LayerDesc{};
  desc_.name = spec_.name;
  desc_.kind = LayerKind::kInnerProduct;
  desc_.fc = FcGeom{m_, n_, k_};
  desc_.input_count = in.count();
  desc_.output_count = tops[0]->count();
  desc_.param_count =
      static_cast<std::int64_t>(n_) * k_ + (spec_.bias ? n_ : 0);
}

std::vector<tensor::FillerSpec> InnerProductLayer::param_fillers() const {
  if (!spec_.bias) return {spec_.weight_filler};
  return {spec_.weight_filler, spec_.bias_filler};
}

void InnerProductLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                                const std::vector<tensor::Tensor*>& tops) {
  // top (m x n) = bottom (m x k) * W^T (k x n)
  gemm::sgemm(false, true, m_, n_, k_, 1.0f, bottoms[0]->data_ptr(),
              params_[0]->data_ptr(), 0.0f, tops[0]->mutable_data_ptr());
  if (spec_.bias) {
    const float* bias = params_[1]->data_ptr();
    float* out = tops[0]->mutable_data_ptr();
    for (int i = 0; i < m_; ++i) {
      for (int j = 0; j < n_; ++j) out[static_cast<std::size_t>(i) * n_ + j] += bias[j];
    }
  }
}

void InnerProductLayer::backward(const std::vector<tensor::Tensor*>& tops,
                                 const std::vector<tensor::Tensor*>& bottoms,
                                 const std::vector<bool>& prop_down) {
  const float* top_diff = tops[0]->diff().data();
  // dW (n x k) += top_diff^T (n x m) * bottom (m x k)
  gemm::sgemm(true, false, n_, k_, m_, 1.0f, top_diff, bottoms[0]->data_ptr(),
              1.0f, params_[0]->diff().data());
  if (spec_.bias) {
    float* bias_diff = params_[1]->diff().data();
    for (int i = 0; i < m_; ++i) {
      for (int j = 0; j < n_; ++j) {
        bias_diff[j] += top_diff[static_cast<std::size_t>(i) * n_ + j];
      }
    }
  }
  if (!prop_down.empty() && prop_down[0]) {
    // dBottom (m x k) += top_diff (m x n) * W (n x k)
    gemm::sgemm(false, false, m_, k_, n_, 1.0f, top_diff,
                params_[0]->data_ptr(), 1.0f, bottoms[0]->diff().data());
  }
}

}  // namespace swcaffe::core
