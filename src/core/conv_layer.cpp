#include <algorithm>
#include <vector>

#include "base/log.h"
#include "core/layers.h"
#include "swdnn/conv_func.h"
#include "swdnn/conv_plan.h"
#include "tensor/filler.h"

namespace swcaffe::core {

void ConvLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                      const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 1u);
  SWC_CHECK_EQ(tops.size(), 1u);
  const tensor::Tensor& in = *bottoms[0];
  SWC_CHECK_EQ(in.num_axes(), 4);
  geom_ = ConvGeom{};
  geom_.batch = in.num();
  geom_.in_c = in.channels();
  geom_.in_h = in.height();
  geom_.in_w = in.width();
  geom_.out_c = spec_.num_output;
  geom_.kernel = spec_.kernel;
  geom_.stride = spec_.stride;
  geom_.pad = spec_.pad;
  geom_.group = spec_.group;
  SWC_CHECK_GT(geom_.group, 0);
  SWC_CHECK_MSG(geom_.in_c % geom_.group == 0 &&
                    geom_.out_c % geom_.group == 0,
                "conv '" << spec_.name << "': channels not divisible by group "
                         << geom_.group);
  SWC_CHECK_GT(geom_.out_h(), 0);
  SWC_CHECK_GT(geom_.out_w(), 0);

  tops[0]->reshape({geom_.batch, geom_.out_c, geom_.out_h(), geom_.out_w()});

  if (params_.empty()) {
    params_.push_back(std::make_shared<tensor::Tensor>(std::vector<int>{
        geom_.out_c, geom_.in_c / geom_.group, geom_.kernel, geom_.kernel}));
    if (spec_.bias) {
      params_.push_back(
          std::make_shared<tensor::Tensor>(std::vector<int>{geom_.out_c}));
    }
  }

  // Plan selection (paper Sec. VI-A): the auto-tuner evaluates both
  // strategies with the SW26010 cost model and locks the winner.
  switch (spec_.strategy) {
    case ConvStrategy::kExplicit:
      implicit_fwd_ = implicit_bwd_ = false;
      break;
    case ConvStrategy::kImplicit:
      SWC_CHECK_MSG(dnn::implicit_forward_supported(geom_.per_group()),
                    "implicit conv unsupported for " << spec_.name
                        << " (in_c=" << geom_.in_c << ")");
      implicit_fwd_ = true;
      implicit_bwd_ = dnn::implicit_backward_supported(geom_.per_group());
      break;
    case ConvStrategy::kAuto: {
      const hw::CostModel cost;
      const dnn::ConvEstimate est = dnn::estimate_conv(cost, geom_);
      implicit_fwd_ = est.forward.implicit_wins();
      implicit_bwd_ = est.backward_input.implicit_wins() &&
                      est.backward_weight.implicit_wins();
      break;
    }
  }

  desc_ = LayerDesc{};
  desc_.name = spec_.name;
  desc_.kind = LayerKind::kConv;
  desc_.conv = geom_;
  desc_.input_count = geom_.input_count();
  desc_.output_count = geom_.output_count();
  desc_.param_count = geom_.weight_count() + (spec_.bias ? geom_.out_c : 0);
}

std::vector<tensor::FillerSpec> ConvLayer::param_fillers() const {
  if (!spec_.bias) return {spec_.weight_filler};
  return {spec_.weight_filler, spec_.bias_filler};
}

void ConvLayer::set_plan(const ConvPlanAssignment& assignment) {
  SWC_CHECK_GT(geom_.batch, 0);  // setup() must have run
  implicit_fwd_ = assignment.implicit_forward &&
                  dnn::implicit_forward_supported(geom_.per_group());
  implicit_bwd_ = assignment.implicit_backward &&
                  dnn::implicit_backward_supported(geom_.per_group());
}

void ConvLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                        const std::vector<tensor::Tensor*>& tops) {
  // The host computes every plan as im2col + GEMM: it sums each output's
  // (c, kh, kw) products in the order the implicit loops do, so the plan
  // (implicit_fwd_) only prices the pass on the simulated chip.
  col_buf_.resize(static_cast<std::size_t>(geom_.in_c) * geom_.kernel *
                  geom_.kernel * geom_.out_h() * geom_.out_w());
  dnn::conv_forward_explicit(geom_, bottoms[0]->data_ptr(),
                             params_[0]->data_ptr(),
                             spec_.bias ? params_[1]->data_ptr() : nullptr,
                             tops[0]->mutable_data_ptr(), col_buf_.data());
}

void ConvLayer::backward(const std::vector<tensor::Tensor*>& tops,
                         const std::vector<tensor::Tensor*>& bottoms,
                         const std::vector<bool>& prop_down) {
  const float* top_diff = tops[0]->diff().data();
  col_buf_.resize(static_cast<std::size_t>(geom_.in_c) * geom_.kernel *
                  geom_.kernel * geom_.out_h() * geom_.out_w());
  // Parameter gradients accumulate across the iteration (zeroed by solver).
  dnn::conv_backward_weight(
      geom_, bottoms[0]->data_ptr(), top_diff,
      params_[0]->diff().data(),
      spec_.bias ? params_[1]->diff().data() : nullptr, col_buf_.data());
  if (!prop_down.empty() && prop_down[0]) {
    // conv_backward_input overwrites, so route through scratch and add
    // (bottom blobs can have several consumers).
    scratch_.resize(bottoms[0]->count());
    dnn::conv_backward_input(geom_, params_[0]->data_ptr(), top_diff,
                             scratch_.data(), col_buf_.data());
    auto bd = bottoms[0]->diff();
    for (std::size_t i = 0; i < scratch_.size(); ++i) bd[i] += scratch_[i];
  }
}

}  // namespace swcaffe::core
