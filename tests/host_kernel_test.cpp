// Bitwise contracts of the host kernels the training step runs.
//
// gemm::sgemm may block and vectorize, but every C element must get its
// products in ascending l exactly as the unblocked loops below add them, and
// the conv layer may run im2col + GEMM for every plan only because that
// gives the direct loops' bits. Each contract also has a twin that sums in
// another order and must be caught, so the comparison can fail.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "base/rng.h"
#include "core/layers.h"
#include "core/net.h"
#include "swdnn/conv_func.h"
#include "swgemm/reference.h"

namespace swcaffe {
namespace {

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// --- GEMM --------------------------------------------------------------------

using Sgemm = void (*)(bool, bool, int, int, int, float, const float*,
                       const float*, float, float*);

/// The unblocked loops the blocked kernels must reproduce: NN and TN add
/// alpha * a * b straight into C in ascending l and skip a zero alpha * a;
/// NT sums each dot product from 0.0f in ascending l, then adds alpha * sum;
/// TT transposes B and runs TN. `split_dot` makes NT sum even and odd l in
/// two partial accumulators: the same value in exact arithmetic, a
/// different rounding in float.
void loop_sgemm(bool split_dot, bool ta, bool tb, int m, int n, int k,
                float alpha, const float* a, const float* b, float beta,
                float* c) {
  const std::size_t cn = static_cast<std::size_t>(m) * n;
  if (beta == 0.0f) {
    std::fill(c, c + cn, 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < cn; ++i) c[i] *= beta;
  }
  if (alpha == 0.0f || m == 0 || n == 0 || k == 0) return;
  auto axpy = [&](std::size_t ars, std::size_t als, const float* bb) {
    for (int i = 0; i < m; ++i) {
      for (int l = 0; l < k; ++l) {
        const float av = alpha * a[i * ars + l * als];
        if (av == 0.0f) continue;
        for (int j = 0; j < n; ++j) c[i * n + j] += av * bb[l * n + j];
      }
    }
  };
  if (!ta && !tb) {
    axpy(k, 1, b);
  } else if (ta && !tb) {
    axpy(1, m, b);
  } else if (!ta) {
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        float acc[2] = {0.0f, 0.0f};
        for (int l = 0; l < k; ++l) {
          acc[split_dot ? l % 2 : 0] += a[i * k + l] * b[j * k + l];
        }
        c[i * n + j] += alpha * (acc[0] + acc[1]);
      }
    }
  } else {
    std::vector<float> bt(static_cast<std::size_t>(k) * n);
    for (int j = 0; j < n; ++j) {
      for (int l = 0; l < k; ++l) bt[l * n + j] = b[j * k + l];
    }
    axpy(1, m, bt.data());
  }
}

void unblocked_sgemm(bool ta, bool tb, int m, int n, int k, float alpha,
                     const float* a, const float* b, float beta, float* c) {
  loop_sgemm(false, ta, tb, m, n, k, alpha, a, b, beta, c);
}

void two_accumulator_sgemm(bool ta, bool tb, int m, int n, int k, float alpha,
                           const float* a, const float* b, float beta,
                           float* c) {
  loop_sgemm(true, ta, tb, m, n, k, alpha, a, b, beta, c);
}

/// Cases where `kernel` differs from the unblocked loops by a bit: every
/// transpose mode, alpha in {1, 0.7}, beta in {0, 1, 0.3}, shapes with
/// fewer rows than a register block and widths on and off its 8 columns,
/// A holding exact +0 and -0, C holding -0.
int mismatches(Sgemm kernel) {
  base::Rng rng(2301);
  int bad = 0;
  for (int m : {1, 2, 3, 4, 5, 9, 13}) {
    for (int n : {1, 7, 8, 9, 17, 33}) {
      for (int k : {1, 2, 9, 40}) {
        std::vector<float> a(static_cast<std::size_t>(m) * k);
        std::vector<float> b(static_cast<std::size_t>(k) * n);
        std::vector<float> c0(static_cast<std::size_t>(m) * n);
        for (std::size_t i = 0; i < a.size(); ++i) {
          a[i] = i % 5 == 0 ? (i % 2 ? -0.0f : 0.0f) : rng.uniform(-1, 1);
        }
        for (float& v : b) v = rng.uniform(-100, 100);
        for (std::size_t i = 0; i < c0.size(); ++i) {
          c0[i] = i % 4 == 0 ? -0.0f : rng.uniform(-1, 1);
        }
        for (int mode = 0; mode < 4; ++mode) {
          const bool ta = mode & 1, tb = mode & 2;
          for (float alpha : {1.0f, 0.7f}) {
            for (float beta : {0.0f, 1.0f, 0.3f}) {
              std::vector<float> want = c0, got = c0;
              unblocked_sgemm(ta, tb, m, n, k, alpha, a.data(), b.data(),
                              beta, want.data());
              kernel(ta, tb, m, n, k, alpha, a.data(), b.data(), beta,
                     got.data());
              bad += !same_bits(want, got);
            }
          }
        }
      }
    }
  }
  return bad;
}

TEST(HostGemmContract, SgemmEqualsTheUnblockedLoopsBitwise) {
  EXPECT_EQ(mismatches(gemm::sgemm), 0);
}

TEST(HostGemmContract, TwoAccumulatorTwinIsCaught) {
  EXPECT_GT(mismatches(two_accumulator_sgemm), 0);
}

TEST(HostGemmContract, FullyConnectedShapesEqualTheUnblockedLoops) {
  // An fc layer's three GEMMs at batch 2 (the few-row NN path and the wide
  // NT and TN panels), with ReLU-like zeros in the gradient.
  const int batch = 2, in = 300, out = 70;
  base::Rng rng(2302);
  std::vector<float> x(batch * in), w(out * in), dy(batch * out);
  for (float& v : x) v = rng.uniform(-1, 1);
  for (float& v : w) v = rng.uniform(-0.1f, 0.1f);
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dy[i] = i % 3 == 0 ? 0.0f : rng.uniform(-1, 1);
  }
  struct Case {
    bool ta, tb;
    int m, n, k;
    const std::vector<float>&a, &b;
  };
  for (const Case& g : {Case{false, true, batch, out, in, x, w},
                        Case{true, false, out, in, batch, dy, x},
                        Case{false, false, batch, in, out, dy, w}}) {
    std::vector<float> want(static_cast<std::size_t>(g.m) * g.n, 0.5f);
    std::vector<float> got = want;
    unblocked_sgemm(g.ta, g.tb, g.m, g.n, g.k, 1.0f, g.a.data(), g.b.data(),
                    1.0f, want.data());
    gemm::sgemm(g.ta, g.tb, g.m, g.n, g.k, 1.0f, g.a.data(), g.b.data(), 1.0f,
                got.data());
    EXPECT_TRUE(same_bits(want, got)) << g.ta << g.tb;
  }
}

// --- Convolution forward -------------------------------------------------------

core::ConvGeom geom(int in_c, int out_c, int img, int kernel, int stride,
                    int pad, int group = 1) {
  core::ConvGeom g;
  g.batch = 2;
  g.in_c = in_c;
  g.out_c = out_c;
  g.in_h = g.in_w = img;
  g.kernel = kernel;
  g.stride = stride;
  g.pad = pad;
  g.group = group;
  return g;
}

/// The direct loops with the kernel window walked backwards (kw descending):
/// each output's products are the same, added in another order.
void reversed_window_forward(const core::ConvGeom& g, const float* bottom,
                             const float* weight, const float* bias,
                             float* top) {
  const core::ConvGeom s = g.per_group();
  const int oh = g.out_h(), ow = g.out_w(), kk = g.kernel;
  for (int b = 0; b < g.batch; ++b) {
    for (int o = 0; o < g.out_c; ++o) {
      const int gp = o / s.out_c;
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          float acc = 0.0f;
          for (int c = 0; c < s.in_c; ++c) {
            const int ci = gp * s.in_c + c;
            for (int kh = 0; kh < kk; ++kh) {
              for (int kw = kk - 1; kw >= 0; --kw) {
                const int sy = y * g.stride + kh - g.pad;
                const int sx = x * g.stride + kw - g.pad;
                const float w = weight[((o * s.in_c + c) * kk + kh) * kk + kw];
                if (w == 0.0f || sy < 0 || sy >= g.in_h || sx < 0 ||
                    sx >= g.in_w) {
                  continue;
                }
                acc += w * bottom[((b * g.in_c + ci) * g.in_h + sy) * g.in_w +
                                  sx];
              }
            }
          }
          if (bias != nullptr) acc += bias[o];
          top[((b * g.out_c + o) * oh + y) * ow + x] = acc;
        }
      }
    }
  }
}

struct ConvCase {
  const char* name;
  core::ConvGeom g;
  bool bias;
  bool zero_weights;    ///< every third weight is +0 or -0
  bool negative_input;  ///< every input below zero
};

std::vector<ConvCase> conv_cases() {
  return {
      {"padded", geom(5, 4, 7, 3, 1, 1), true, false, false},
      {"strided", geom(3, 6, 9, 3, 2, 1), true, false, false},
      {"wide_pad_stride", geom(4, 3, 11, 5, 2, 2), false, false, false},
      {"conv1_like", geom(3, 4, 23, 11, 4, 0), true, false, false},
      {"grouped", geom(6, 4, 6, 3, 1, 1, 2), true, false, false},
      {"one_by_one", geom(7, 5, 5, 1, 1, 0), true, false, false},
      {"one_by_one_strided", geom(4, 9, 7, 1, 2, 0), false, false, false},
      {"zero_weights", geom(5, 4, 7, 3, 1, 1), true, true, false},
      {"negative_input", geom(5, 4, 7, 3, 1, 2), true, false, true},
      {"zero_weights_negative_input", geom(8, 8, 6, 3, 1, 1, 2), false, true,
       true},
  };
}

struct ConvData {
  std::vector<float> bottom, weight, bias;
};

ConvData conv_data(const ConvCase& cc, std::uint64_t seed) {
  base::Rng rng(seed);
  ConvData d;
  d.bottom.resize(cc.g.input_count());
  for (float& v : d.bottom) {
    v = cc.negative_input ? rng.uniform(-2, -0.01f) : rng.uniform(-1, 1);
  }
  d.weight.resize(cc.g.weight_count());
  for (std::size_t i = 0; i < d.weight.size(); ++i) {
    d.weight[i] = cc.zero_weights && i % 3 == 0 ? (i % 2 ? -0.0f : 0.0f)
                                                : rng.uniform(-1, 1);
  }
  if (cc.bias) {
    d.bias.resize(cc.g.out_c);
    for (float& v : d.bias) v = rng.uniform(-1, 1);
  }
  return d;
}

using ConvForward = void (*)(const core::ConvGeom&, const float*,
                             const float*, const float*, float*);

std::vector<float> run_conv(ConvForward f, const ConvCase& cc,
                            const ConvData& d) {
  std::vector<float> top(cc.g.output_count(), -1.0f);
  f(cc.g, d.bottom.data(), d.weight.data(),
    d.bias.empty() ? nullptr : d.bias.data(), top.data());
  return top;
}

void explicit_forward(const core::ConvGeom& g, const float* bottom,
                      const float* weight, const float* bias, float* top) {
  dnn::conv_forward_explicit(g, bottom, weight, bias, top);
}

TEST(HostConvContract, ExplicitForwardEqualsImplicitBitwise) {
  for (const ConvCase& cc : conv_cases()) {
    const ConvData d = conv_data(cc, 2310);
    EXPECT_TRUE(same_bits(run_conv(dnn::conv_forward_implicit, cc, d),
                          run_conv(explicit_forward, cc, d)))
        << cc.name;
  }
}

TEST(HostConvContract, ReversedWindowTwinIsCaught) {
  int caught = 0;
  for (const ConvCase& cc : conv_cases()) {
    if (cc.g.kernel == 1) continue;  // a 1-wide window has one order
    const ConvData d = conv_data(cc, 2310);
    caught += !same_bits(run_conv(dnn::conv_forward_implicit, cc, d),
                         run_conv(reversed_window_forward, cc, d));
  }
  EXPECT_GT(caught, 0);
}

/// Top of a one-conv net whose layer takes `strategy`; `weights` receives
/// the drawn weights and bias.
std::vector<float> layer_top(core::ConvStrategy strategy, int group,
                             ConvData& weights, bool& implicit_plan) {
  core::NetSpec spec;
  spec.inputs.push_back({"x", {2, 16, 7, 7}});
  core::LayerSpec c = core::conv_spec("c", "x", "y", 8, 3, 1, 1);
  c.strategy = strategy;
  c.group = group;
  spec.layers.push_back(c);
  core::Net net(spec, 2320);
  base::Rng rng(2321);
  for (float& v : net.blob("x")->data()) v = rng.uniform(-1, 1);
  net.forward();
  auto* conv = dynamic_cast<core::ConvLayer*>(net.layer("c"));
  implicit_plan = conv->uses_implicit_forward();
  const auto w = conv->params()[0]->data();
  const auto b = conv->params()[1]->data();
  weights.bottom.assign(net.blob("x")->data().begin(),
                        net.blob("x")->data().end());
  weights.weight.assign(w.begin(), w.end());
  weights.bias.assign(b.begin(), b.end());
  const auto y = net.blob("y")->data();
  return {y.begin(), y.end()};
}

TEST(HostConvContract, ImplicitAndExplicitPlanLayersGiveTheDirectLoopsBits) {
  for (int group : {1, 2}) {
    ConvData d;
    bool implicit_plan = false;
    const std::vector<float> imp =
        layer_top(core::ConvStrategy::kImplicit, group, d, implicit_plan);
    EXPECT_TRUE(implicit_plan) << "the layer reports the plan it was given";
    ConvData d_exp;
    const std::vector<float> exp =
        layer_top(core::ConvStrategy::kExplicit, group, d_exp, implicit_plan);
    EXPECT_FALSE(implicit_plan);
    ASSERT_TRUE(same_bits(d.weight, d_exp.weight));
    EXPECT_TRUE(same_bits(imp, exp)) << "group " << group;

    const ConvCase cc{"layer", geom(16, 8, 7, 3, 1, 1, group), true, false,
                      false};
    EXPECT_TRUE(same_bits(imp, run_conv(dnn::conv_forward_implicit, cc, d)))
        << "group " << group;
    EXPECT_FALSE(same_bits(imp, run_conv(reversed_window_forward, cc, d)))
        << "group " << group << ": the reversed-window twin must differ";
  }
}

}  // namespace
}  // namespace swcaffe
