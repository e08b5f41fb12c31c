// Long Short-Term Memory layer (paper Sec. IV-A: "more complicated layers,
// such as Long Short Time Memory (LSTM) layers, are mainly involving
// General Matrix to Matrix Multiplication operations").
//
// Input (T, B, I) -> output (T, B, H). Gates in i, f, o, g order share two
// weight matrices: W_x (4H x I) applied to the input and W_h (4H x H)
// applied to the recurrent state, plus a 4H bias. Full BPTT backward.
#include <algorithm>
#include <cmath>
#include <vector>

#include "base/log.h"
#include "core/layers.h"
#include "swgemm/reference.h"
#include "tensor/filler.h"

namespace swcaffe::core {

namespace {

float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

void LstmLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                      const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 1u);
  SWC_CHECK_EQ(tops.size(), 1u);
  const tensor::Tensor& in = *bottoms[0];
  SWC_CHECK_MSG(in.num_axes() == 3,
                "LSTM input must be (T, B, I), got " << in.shape_string());
  steps_ = in.dim(0);
  batch_ = in.dim(1);
  input_dim_ = in.dim(2);
  hidden_ = spec_.num_output;
  SWC_CHECK_GT(hidden_, 0);
  tops[0]->reshape({steps_, batch_, hidden_});

  if (params_.empty()) {
    params_.push_back(std::make_shared<tensor::Tensor>(
        std::vector<int>{4 * hidden_, input_dim_}));
    params_.push_back(std::make_shared<tensor::Tensor>(
        std::vector<int>{4 * hidden_, hidden_}));
    if (spec_.bias) {
      params_.push_back(
          std::make_shared<tensor::Tensor>(std::vector<int>{4 * hidden_}));
    }
  }

  const std::size_t state = static_cast<std::size_t>(steps_) * batch_ * hidden_;
  gates_.assign(state * 4, 0.0f);
  cells_.assign(state, 0.0f);
  cell_tanh_.assign(state, 0.0f);

  desc_ = LayerDesc{};
  desc_.name = spec_.name;
  desc_.kind = LayerKind::kLSTM;
  // Per-step GEMM: (B x 4H) = (B x (I+H)) * W^T.
  desc_.fc = FcGeom{batch_, 4 * hidden_,
                    static_cast<std::int64_t>(input_dim_) + hidden_};
  desc_.steps = steps_;
  desc_.input_count = static_cast<std::int64_t>(in.count());
  desc_.output_count = static_cast<std::int64_t>(tops[0]->count());
  desc_.param_count = static_cast<std::int64_t>(4) * hidden_ *
                          (input_dim_ + hidden_) +
                      (spec_.bias ? 4 * hidden_ : 0);
}

std::vector<tensor::FillerSpec> LstmLayer::param_fillers() const {
  if (!spec_.bias) return {spec_.weight_filler, spec_.weight_filler};
  return {spec_.weight_filler, spec_.weight_filler, spec_.bias_filler};
}

void LstmLayer::after_draw() {
  // Unit forget-gate bias: the standard trick for gradient flow.
  if (!spec_.bias) return;
  for (int h = hidden_; h < 2 * hidden_; ++h) params_[2]->data()[h] += 1.0f;
}

void LstmLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                        const std::vector<tensor::Tensor*>& tops) {
  const float* x = bottoms[0]->data_ptr();
  float* h_out = tops[0]->mutable_data_ptr();
  const float* wx = params_[0]->data_ptr();
  const float* wh = params_[1]->data_ptr();
  const float* bias = spec_.bias ? params_[2]->data_ptr() : nullptr;
  const int H = hidden_, B = batch_, I = input_dim_;
  const std::size_t step_in = static_cast<std::size_t>(B) * I;
  const std::size_t step_out = static_cast<std::size_t>(B) * H;
  const std::size_t step_gates = step_out * 4;

  std::vector<float> pre(step_gates);
  for (int t = 0; t < steps_; ++t) {
    // pre (B x 4H) = x_t (B x I) W_x^T + h_{t-1} (B x H) W_h^T + bias
    gemm::sgemm(false, true, B, 4 * H, I, 1.0f, x + t * step_in, wx, 0.0f,
                pre.data());
    if (t > 0) {
      gemm::sgemm(false, true, B, 4 * H, H, 1.0f, h_out + (t - 1) * step_out,
                  wh, 1.0f, pre.data());
    }
    float* gates = gates_.data() + t * step_gates;
    float* c = cells_.data() + t * step_out;
    float* ct = cell_tanh_.data() + t * step_out;
    const float* c_prev = t > 0 ? cells_.data() + (t - 1) * step_out : nullptr;
    for (int b = 0; b < B; ++b) {
      for (int h = 0; h < H; ++h) {
        const std::size_t row = static_cast<std::size_t>(b) * 4 * H;
        auto gate_pre = [&](int g) {
          return pre[row + g * H + h] + (bias != nullptr ? bias[g * H + h] : 0.0f);
        };
        const float gi = sigmoid(gate_pre(0));
        const float gf = sigmoid(gate_pre(1));
        const float go = sigmoid(gate_pre(2));
        const float gg = std::tanh(gate_pre(3));
        const std::size_t idx = static_cast<std::size_t>(b) * H + h;
        gates[row + 0 * H + h] = gi;
        gates[row + 1 * H + h] = gf;
        gates[row + 2 * H + h] = go;
        gates[row + 3 * H + h] = gg;
        const float prev = c_prev != nullptr ? c_prev[idx] : 0.0f;
        c[idx] = gf * prev + gi * gg;
        ct[idx] = std::tanh(c[idx]);
        h_out[t * step_out + idx] = go * ct[idx];
      }
    }
  }
}

void LstmLayer::backward(const std::vector<tensor::Tensor*>& tops,
                         const std::vector<tensor::Tensor*>& bottoms,
                         const std::vector<bool>& prop_down) {
  const float* x = bottoms[0]->data_ptr();
  const float* h_out = tops[0]->data_ptr();
  auto top_diff = tops[0]->diff();
  const float* wx = params_[0]->data_ptr();
  const float* wh = params_[1]->data_ptr();
  float* wx_diff = params_[0]->diff().data();
  float* wh_diff = params_[1]->diff().data();
  float* b_diff = spec_.bias ? params_[2]->diff().data() : nullptr;
  const bool prop_input = !prop_down.empty() && prop_down[0];
  const int H = hidden_, B = batch_, I = input_dim_;
  const std::size_t step_in = static_cast<std::size_t>(B) * I;
  const std::size_t step_out = static_cast<std::size_t>(B) * H;
  const std::size_t step_gates = step_out * 4;

  std::vector<float> dh_next(step_out, 0.0f);  // dL/dh flowing from t+1
  std::vector<float> dc_next(step_out, 0.0f);  // dL/dc flowing from t+1
  std::vector<float> dpre(step_gates);         // pre-activation gate grads
  std::vector<float> dx_step(step_in);

  for (int t = steps_ - 1; t >= 0; --t) {
    const float* gates = gates_.data() + t * step_gates;
    const float* ct = cell_tanh_.data() + t * step_out;
    const float* c_prev =
        t > 0 ? cells_.data() + (t - 1) * step_out : nullptr;
    for (int b = 0; b < B; ++b) {
      for (int h = 0; h < H; ++h) {
        const std::size_t idx = static_cast<std::size_t>(b) * H + h;
        const std::size_t row = static_cast<std::size_t>(b) * 4 * H;
        const float gi = gates[row + 0 * H + h];
        const float gf = gates[row + 1 * H + h];
        const float go = gates[row + 2 * H + h];
        const float gg = gates[row + 3 * H + h];
        const float dh = top_diff[t * step_out + idx] + dh_next[idx];
        float dc = dc_next[idx] + dh * go * (1.0f - ct[idx] * ct[idx]);
        const float d_go = dh * ct[idx];
        const float d_gi = dc * gg;
        const float d_gg = dc * gi;
        const float d_gf = dc * (c_prev != nullptr ? c_prev[idx] : 0.0f);
        dc_next[idx] = dc * gf;
        dpre[row + 0 * H + h] = d_gi * gi * (1.0f - gi);
        dpre[row + 1 * H + h] = d_gf * gf * (1.0f - gf);
        dpre[row + 2 * H + h] = d_go * go * (1.0f - go);
        dpre[row + 3 * H + h] = d_gg * (1.0f - gg * gg);
      }
    }
    // Parameter gradients: dW_x += dpre^T x_t, dW_h += dpre^T h_{t-1}.
    gemm::sgemm(true, false, 4 * H, I, B, 1.0f, dpre.data(), x + t * step_in,
                1.0f, wx_diff);
    if (t > 0) {
      gemm::sgemm(true, false, 4 * H, H, B, 1.0f, dpre.data(),
                  h_out + (t - 1) * step_out, 1.0f, wh_diff);
    }
    if (b_diff != nullptr) {
      for (int b = 0; b < B; ++b) {
        for (int g = 0; g < 4 * H; ++g) {
          b_diff[g] += dpre[static_cast<std::size_t>(b) * 4 * H + g];
        }
      }
    }
    // Recurrent gradient: dh_{t-1} = dpre W_h; input gradient: dx = dpre W_x.
    if (t > 0) {
      gemm::sgemm(false, false, B, H, 4 * H, 1.0f, dpre.data(), wh, 0.0f,
                  dh_next.data());
    }
    if (prop_input) {
      gemm::sgemm(false, false, B, I, 4 * H, 1.0f, dpre.data(), wx, 0.0f,
                  dx_step.data());
      auto bd = bottoms[0]->diff();
      for (std::size_t i = 0; i < step_in; ++i) {
        bd[t * step_in + i] += dx_step[i];
      }
    }
  }
}

}  // namespace swcaffe::core
