// Per-layer functional tests: forward semantics plus finite-difference
// gradient checks through single-layer nets.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "base/log.h"
#include "base/rng.h"
#include "core/layers.h"
#include "core/net.h"
#include "swdnn/conv_func.h"

namespace swcaffe::core {
namespace {

/// Builds a probe net: input "x" -> layer under test -> linear head ->
/// softmax loss, so every layer's gradients flow through a scalar loss.
NetSpec probe_net(LayerSpec layer, std::vector<int> in_shape, int classes) {
  NetSpec net;
  net.name = "probe";
  net.inputs.push_back({"x", in_shape});
  net.inputs.push_back({"label", {in_shape[0]}});
  layer.bottoms = {"x"};
  layer.tops = {"y"};
  net.layers.push_back(layer);
  net.layers.push_back(ip_spec("head", "y", "scores", classes));
  net.layers.push_back(softmax_loss_spec("loss", "scores", "label", "loss"));
  return net;
}

void randomize(tensor::Tensor& t, base::Rng& rng, float scale = 1.0f) {
  for (auto& v : t.data()) v = rng.uniform(-scale, scale);
}

/// Central-difference check of d(loss)/d(blob) on a sample of coordinates.
void gradient_check(Net& net, tensor::Tensor& blob, double tol = 2e-2,
                    float eps = 1e-2f) {
  net.forward_backward();
  std::vector<float> analytic(blob.diff().begin(), blob.diff().end());
  auto data = blob.data();
  const std::size_t n = blob.count();
  const std::size_t stride = std::max<std::size_t>(1, n / 7);
  for (std::size_t i = 0; i < n; i += stride) {
    const float orig = data[i];
    data[i] = orig + eps;
    const double lp = net.forward();
    data[i] = orig - eps;
    const double lm = net.forward();
    data[i] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol) << "coordinate " << i;
  }
}

void fill_labels(Net& net, int classes, base::Rng& rng) {
  for (auto& v : net.blob("label")->data()) {
    v = static_cast<float>(rng.uniform_int(0, classes - 1));
  }
}

struct ProbeCase {
  const char* name;
  LayerSpec layer;
  std::vector<int> in_shape;
};

class LayerGradientTest : public ::testing::TestWithParam<ProbeCase> {};

TEST_P(LayerGradientTest, InputGradientMatchesFiniteDifference) {
  const ProbeCase& pc = GetParam();
  NetSpec spec = probe_net(pc.layer, pc.in_shape, 3);
  Net net(spec, 77);
  net.set_phase(Phase::kTest);  // freeze dropout masks; BN uses stored stats
  if (pc.layer.kind == LayerKind::kBatchNorm) {
    net.set_phase(Phase::kTrain);  // BN gradient is defined w.r.t batch stats
  }
  base::Rng rng(99);
  randomize(*net.blob("x"), rng);
  fill_labels(net, 3, rng);
  gradient_check(net, *net.blob("x"));
}

TEST_P(LayerGradientTest, ParamGradientsMatchFiniteDifference) {
  const ProbeCase& pc = GetParam();
  NetSpec spec = probe_net(pc.layer, pc.in_shape, 3);
  Net net(spec, 78);
  net.set_phase(pc.layer.kind == LayerKind::kBatchNorm ? Phase::kTrain
                                                       : Phase::kTest);
  base::Rng rng(100);
  randomize(*net.blob("x"), rng);
  fill_labels(net, 3, rng);
  for (auto* p : net.learnable_params()) gradient_check(net, *p);
}

LayerSpec small_conv() { return conv_spec("c", "", "", 4, 3, 1, 1); }

LayerSpec small_implicit_conv() {
  LayerSpec s = conv_spec("ci", "", "", 4, 3, 2, 1);
  s.strategy = ConvStrategy::kImplicit;
  return s;
}

LayerSpec plain_softmax() {
  LayerSpec s;
  s.name = "sm";
  s.kind = LayerKind::kSoftmax;
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    AllLayers, LayerGradientTest,
    ::testing::Values(
        ProbeCase{"conv", small_conv(), {2, 3, 6, 6}},
        ProbeCase{"conv_implicit", small_implicit_conv(), {2, 8, 6, 6}},
        ProbeCase{"ip", ip_spec("fc", "", "", 5), {3, 4, 2, 2}},
        ProbeCase{"relu", relu_spec("r", "", ""), {2, 3, 4, 4}},
        ProbeCase{"sigmoid", sigmoid_spec("s", "", ""), {2, 3, 4, 4}},
        ProbeCase{"tanh", tanh_spec("t", "", ""), {2, 3, 4, 4}},
        ProbeCase{"pool_max", pool_spec("p", "", "", PoolMethod::kMax, 2, 2),
                  {2, 2, 6, 6}},
        ProbeCase{"pool_ave", pool_spec("p", "", "", PoolMethod::kAve, 3, 2),
                  {2, 2, 7, 7}},
        ProbeCase{"pool_pad",
                  pool_spec("p", "", "", PoolMethod::kMax, 3, 1, 1),
                  {1, 2, 5, 5}},
        ProbeCase{"bn", bn_spec("b", "", ""), {4, 3, 3, 3}},
        ProbeCase{"lrn", lrn_spec("l", "", "", 3), {2, 6, 3, 3}},
        ProbeCase{"softmax", plain_softmax(), {3, 5}}),
    [](const ::testing::TestParamInfo<ProbeCase>& info) {
      return info.param.name;
    });

TEST(ReluLayerTest, ForwardClampsNegatives) {
  NetSpec spec;
  spec.inputs.push_back({"x", {1, 1, 1, 4}});
  spec.layers.push_back(relu_spec("r", "x", "y"));
  Net net(spec, 1);
  auto x = net.blob("x")->data();
  x[0] = -1.0f;
  x[1] = 0.0f;
  x[2] = 2.5f;
  x[3] = -0.1f;
  net.forward();
  auto y = net.blob("y")->data();
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.5f);
  EXPECT_EQ(y[3], 0.0f);
}

TEST(PoolLayerTest, MaxPoolPicksWindowMax) {
  NetSpec spec;
  spec.inputs.push_back({"x", {1, 1, 2, 2}});
  spec.layers.push_back(pool_spec("p", "x", "y", PoolMethod::kMax, 2, 2));
  Net net(spec, 1);
  auto x = net.blob("x")->data();
  x[0] = 1;
  x[1] = 5;
  x[2] = 3;
  x[3] = 2;
  net.forward();
  EXPECT_EQ(net.blob("y")->data()[0], 5.0f);
}

TEST(PoolLayerTest, GlobalAveragePool) {
  NetSpec spec;
  spec.inputs.push_back({"x", {1, 2, 3, 3}});
  spec.layers.push_back(
      pool_spec("p", "x", "y", PoolMethod::kAve, 3, 1, 0, true));
  Net net(spec, 1);
  auto x = net.blob("x")->data();
  for (int i = 0; i < 9; ++i) x[i] = 1.0f;                        // mean 1
  for (int i = 9; i < 18; ++i) x[i] = static_cast<float>(i);      // mean 13
  net.forward();
  EXPECT_EQ(net.blob("y")->shape(), (std::vector<int>{1, 2, 1, 1}));
  EXPECT_FLOAT_EQ(net.blob("y")->data()[0], 1.0f);
  EXPECT_FLOAT_EQ(net.blob("y")->data()[1], 13.0f);
}

TEST(PoolLayerTest, CaffeCeilModeSizing) {
  // 55x55 input, k=3, s=2 -> 27 (AlexNet pool1).
  EXPECT_EQ(PoolGeom::pooled(55, 3, 2, 0), 27);
  // 112 -> 56 with k=2 s=2 (VGG).
  EXPECT_EQ(PoolGeom::pooled(112, 2, 2, 0), 56);
  // 28 with k=3 s=1 pad=1 stays 28 (inception pool branch).
  EXPECT_EQ(PoolGeom::pooled(28, 3, 1, 1), 28);
  // 13 -> 6 with k=3 s=2 (AlexNet pool5).
  EXPECT_EQ(PoolGeom::pooled(13, 3, 2, 0), 6);
}

TEST(BatchNormLayerTest, NormalizesPerChannelInTraining) {
  NetSpec spec;
  spec.inputs.push_back({"x", {4, 2, 2, 2}});
  spec.layers.push_back(bn_spec("b", "x", "y"));
  Net net(spec, 3);
  base::Rng rng(5);
  for (auto& v : net.blob("x")->data()) v = rng.gaussian(3.0f, 2.0f);
  net.forward();
  const tensor::Tensor& y = *net.blob("y");
  for (int c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    int n = 0;
    for (int b = 0; b < 4; ++b) {
      for (int i = 0; i < 4; ++i) {
        const float v = y.data()[y.offset(b, c, i / 2, i % 2)];
        sum += v;
        sq += static_cast<double>(v) * v;
        ++n;
      }
    }
    EXPECT_NEAR(sum / n, 0.0, 1e-4);
    EXPECT_NEAR(sq / n, 1.0, 1e-2);
  }
}

TEST(BatchNormLayerTest, TestPhaseUsesRunningStats) {
  NetSpec spec;
  spec.inputs.push_back({"x", {8, 1, 2, 2}});
  spec.layers.push_back(bn_spec("b", "x", "y"));
  Net net(spec, 4);
  base::Rng rng(6);
  for (int it = 0; it < 30; ++it) {
    for (auto& v : net.blob("x")->data()) v = rng.gaussian(2.0f, 1.0f);
    net.forward();
  }
  net.set_phase(Phase::kTest);
  for (auto& v : net.blob("x")->data()) v = 2.0f;  // == the running mean
  net.forward();
  for (float v : net.blob("y")->data()) EXPECT_NEAR(v, 0.0f, 0.3f);
}

TEST(DropoutLayerTest, TrainMasksAndRescales) {
  NetSpec spec;
  spec.inputs.push_back({"x", {1, 1, 40, 40}});
  spec.layers.push_back(dropout_spec("d", "x", "y", 0.5f));
  Net net(spec, 5);
  for (auto& v : net.blob("x")->data()) v = 1.0f;
  net.forward();
  int zeros = 0, doubled = 0;
  for (float v : net.blob("y")->data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // inverted dropout: scale = 1/(1-0.5)
      ++doubled;
    }
  }
  EXPECT_NEAR(zeros / 1600.0, 0.5, 0.08);
  EXPECT_GT(doubled, 0);
}

TEST(DropoutLayerTest, TestPhaseIsIdentity) {
  NetSpec spec;
  spec.inputs.push_back({"x", {1, 1, 2, 2}});
  spec.layers.push_back(dropout_spec("d", "x", "y", 0.5f));
  Net net(spec, 6);
  net.set_phase(Phase::kTest);
  auto x = net.blob("x")->data();
  for (std::size_t i = 0; i < 4; ++i) x[i] = static_cast<float>(i + 1);
  net.forward();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(net.blob("y")->data()[i], x[i]);
  }
}

TEST(SoftmaxLossTest, UniformScoresGiveLogClasses) {
  NetSpec spec;
  spec.inputs.push_back({"x", {2, 10}});
  spec.inputs.push_back({"label", {2}});
  spec.layers.push_back(softmax_loss_spec("loss", "x", "label", "loss"));
  Net net(spec, 7);
  net.blob("label")->data()[0] = 3;
  net.blob("label")->data()[1] = 9;
  EXPECT_NEAR(net.forward(), std::log(10.0), 1e-5);
}

TEST(SoftmaxLossTest, GradientIsProbMinusOneHotOverBatch) {
  NetSpec spec;
  spec.inputs.push_back({"x", {1, 3}});
  spec.inputs.push_back({"label", {1}});
  spec.layers.push_back(softmax_loss_spec("loss", "x", "label", "loss"));
  Net net(spec, 8);
  net.blob("label")->data()[0] = 1;
  net.forward_backward();
  auto d = net.blob("x")->diff();
  EXPECT_NEAR(d[0], 1.0f / 3, 1e-5);
  EXPECT_NEAR(d[1], 1.0f / 3 - 1.0f, 1e-5);
  EXPECT_NEAR(d[2], 1.0f / 3, 1e-5);
}

TEST(SoftmaxLossTest, OutOfRangeLabelThrows) {
  NetSpec spec;
  spec.inputs.push_back({"x", {1, 3}});
  spec.inputs.push_back({"label", {1}});
  spec.layers.push_back(softmax_loss_spec("loss", "x", "label", "loss"));
  Net net(spec, 8);
  net.blob("label")->data()[0] = 3;  // classes are 0..2
  EXPECT_THROW(net.forward(), base::CheckError);
}

TEST(AccuracyLayerTest, CountsArgmaxHits) {
  NetSpec spec;
  spec.inputs.push_back({"x", {2, 3}});
  spec.inputs.push_back({"label", {2}});
  spec.layers.push_back(accuracy_spec("acc", "x", "label", "acc"));
  Net net(spec, 9);
  auto x = net.blob("x")->data();
  x[0] = 0.9f;  // sample 0 argmax = 0
  x[4] = 2.0f;  // sample 1 argmax = 1
  net.blob("label")->data()[0] = 0;
  net.blob("label")->data()[1] = 2;
  net.forward();
  EXPECT_FLOAT_EQ(net.blob("acc")->data()[0], 0.5f);
}

TEST(AccuracyLayerTest, TopKCountsNearMisses) {
  NetSpec spec;
  spec.inputs.push_back({"x", {1, 5}});
  spec.inputs.push_back({"label", {1}});
  LayerSpec acc = accuracy_spec("acc", "x", "label", "acc");
  acc.top_k = 3;
  spec.layers.push_back(acc);
  Net net(spec, 9);
  auto x = net.blob("x")->data();
  // Scores descending 5,4,3,2,1: label 2 ranks third -> top-3 hit.
  for (int c = 0; c < 5; ++c) x[c] = static_cast<float>(5 - c);
  net.blob("label")->data()[0] = 2;
  net.forward();
  EXPECT_FLOAT_EQ(net.blob("acc")->data()[0], 1.0f);
  // Label 4 ranks fifth -> top-3 miss.
  net.blob("label")->data()[0] = 4;
  net.forward();
  EXPECT_FLOAT_EQ(net.blob("acc")->data()[0], 0.0f);
}

TEST(EltwiseLayerTest, SumsAndFansGradientOut) {
  NetSpec spec;
  spec.inputs.push_back({"a", {1, 4}});
  spec.inputs.push_back({"b", {1, 4}});
  spec.inputs.push_back({"label", {1}});
  spec.layers.push_back(eltwise_sum_spec("e", "a", "b", "y"));
  spec.layers.push_back(ip_spec("head", "y", "s", 2));
  spec.layers.push_back(softmax_loss_spec("loss", "s", "label", "loss"));
  Net net(spec, 10);
  base::Rng rng(11);
  randomize(*net.blob("a"), rng);
  randomize(*net.blob("b"), rng);
  net.forward_backward();
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(net.blob("y")->data()[i],
                    net.blob("a")->data()[i] + net.blob("b")->data()[i]);
    EXPECT_FLOAT_EQ(net.blob("a")->diff()[i], net.blob("b")->diff()[i]);
  }
}

TEST(EltwiseLayerTest, MaxRoutesGradientToWinner) {
  NetSpec spec;
  spec.inputs.push_back({"a", {1, 3}});
  spec.inputs.push_back({"b", {1, 3}});
  spec.inputs.push_back({"label", {1}});
  LayerSpec e = eltwise_sum_spec("e", "a", "b", "y");
  e.eltwise_max = true;
  spec.layers.push_back(e);
  spec.layers.push_back(softmax_loss_spec("loss", "y", "label", "loss"));
  Net net(spec, 30);
  auto a = net.blob("a")->data();
  auto b = net.blob("b")->data();
  a[0] = 3.0f; b[0] = 1.0f;  // a wins
  a[1] = 0.0f; b[1] = 2.0f;  // b wins
  a[2] = -1.0f; b[2] = -2.0f;  // a wins
  net.blob("label")->data()[0] = 0;
  net.forward_backward();
  auto y = net.blob("y")->data();
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  EXPECT_FLOAT_EQ(y[2], -1.0f);
  // Losers receive no gradient, winners take all of it.
  EXPECT_NE(net.blob("a")->diff()[0], 0.0f);
  EXPECT_EQ(net.blob("b")->diff()[0], 0.0f);
  EXPECT_EQ(net.blob("a")->diff()[1], 0.0f);
  EXPECT_NE(net.blob("b")->diff()[1], 0.0f);
}

TEST(EltwiseLayerTest, CoefficientsScaleSumAndGradient) {
  NetSpec spec;
  spec.inputs.push_back({"a", {1, 2}});
  spec.inputs.push_back({"b", {1, 2}});
  spec.inputs.push_back({"label", {1}});
  LayerSpec e = eltwise_sum_spec("e", "a", "b", "y");
  e.eltwise_coeffs = {2.0f, -1.0f};
  spec.layers.push_back(e);
  spec.layers.push_back(softmax_loss_spec("loss", "y", "label", "loss"));
  Net net(spec, 31);
  auto a = net.blob("a")->data();
  auto b = net.blob("b")->data();
  a[0] = 1.0f; a[1] = 0.5f;
  b[0] = 3.0f; b[1] = -1.0f;
  net.blob("label")->data()[0] = 1;
  net.forward_backward();
  EXPECT_FLOAT_EQ(net.blob("y")->data()[0], 2.0f * 1.0f - 3.0f);
  EXPECT_FLOAT_EQ(net.blob("y")->data()[1], 2.0f * 0.5f + 1.0f);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FLOAT_EQ(net.blob("a")->diff()[i],
                    -2.0f * net.blob("b")->diff()[i]);
  }
}

TEST(EltwiseLayerTest, MaxRejectsCoefficients) {
  NetSpec spec;
  spec.inputs.push_back({"a", {1, 2}});
  spec.inputs.push_back({"b", {1, 2}});
  LayerSpec e = eltwise_sum_spec("e", "a", "b", "y");
  e.eltwise_max = true;
  e.eltwise_coeffs = {1.0f, 1.0f};
  spec.layers.push_back(e);
  EXPECT_THROW(Net(spec, 32), base::CheckError);
}

TEST(ConcatLayerTest, StacksChannelsPerSample) {
  NetSpec spec;
  spec.inputs.push_back({"a", {2, 1, 2, 2}});
  spec.inputs.push_back({"b", {2, 2, 2, 2}});
  spec.layers.push_back(concat_spec("c", {"a", "b"}, "y"));
  Net net(spec, 12);
  auto a = net.blob("a")->data();
  auto b = net.blob("b")->data();
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = 100.0f + i;
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 200.0f + i;
  net.forward();
  const tensor::Tensor& y = *net.blob("y");
  EXPECT_EQ(y.shape(), (std::vector<int>{2, 3, 2, 2}));
  EXPECT_FLOAT_EQ(y.data()[y.offset(0, 0, 0, 0)], 100.0f);
  EXPECT_FLOAT_EQ(y.data()[y.offset(0, 1, 0, 0)], 200.0f);
  EXPECT_FLOAT_EQ(y.data()[y.offset(1, 0, 0, 0)], 104.0f);
  EXPECT_FLOAT_EQ(y.data()[y.offset(1, 1, 0, 0)], 208.0f);  // b, sample 1

}

TEST(TransformLayerTest, RoundTripThroughRcnb) {
  NetSpec spec;
  spec.inputs.push_back({"x", {2, 3, 4, 5}});
  LayerSpec to;
  to.name = "to_rcnb";
  to.kind = LayerKind::kTransform;
  to.stride = 0;
  to.bottoms = {"x"};
  to.tops = {"t"};
  spec.layers.push_back(to);
  LayerSpec back;
  back.name = "to_bnrc";
  back.kind = LayerKind::kTransform;
  back.stride = 1;
  back.bottoms = {"t"};
  back.tops = {"y"};
  spec.layers.push_back(back);
  Net net(spec, 13);
  base::Rng rng(14);
  randomize(*net.blob("x"), rng);
  net.forward();
  EXPECT_EQ(net.blob("t")->shape(), (std::vector<int>{4, 5, 3, 2}));
  EXPECT_EQ(net.blob("y")->shape(), net.blob("x")->shape());
  for (std::size_t i = 0; i < net.blob("x")->count(); ++i) {
    EXPECT_EQ(net.blob("y")->data()[i], net.blob("x")->data()[i]);
  }
}

TEST(SyntheticDataLayerTest, ProducesLabelsInRange) {
  NetSpec spec;
  spec.layers.push_back(data_spec("data", "x", "label", {8, 1, 4, 4}, 5));
  Net net(spec, 15);
  net.forward();
  for (float v : net.blob("label")->data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 5.0f);
    EXPECT_EQ(v, std::floor(v));
  }
  EXPECT_GT(net.blob("x")->sumsq_data(), 0.0);
}

TEST(ConvLayerTest, AutoStrategyLocksPlanAtSetup) {
  NetSpec spec;
  spec.inputs.push_back({"x", {1, 64, 28, 28}});
  spec.layers.push_back(conv_spec("c", "x", "y", 64, 3, 1, 1));
  Net net(spec, 16);
  auto* conv = dynamic_cast<ConvLayer*>(net.layer("c"));
  ASSERT_NE(conv, nullptr);
  // 64-channel conv: implicit backward is unsupported (Table II), so the
  // auto-tuner must not select it.
  EXPECT_FALSE(conv->uses_implicit_backward());
}

TEST(ConvLayerTest, ExplicitImplicitStrategiesAgreeInNet) {
  // Both plans run one host kernel, so comparing their tops with each other
  // could not fail. Each top must instead carry exactly the bits of the
  // direct loops (dnn::conv_forward_implicit) over the layer's own input,
  // weights and bias.
  ConvGeom g;
  g.batch = 2;
  g.in_c = 8;
  g.out_c = 6;
  g.in_h = g.in_w = 7;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  for (ConvStrategy strategy :
       {ConvStrategy::kExplicit, ConvStrategy::kImplicit}) {
    NetSpec spec;
    spec.inputs.push_back({"x", {2, 8, 7, 7}});
    LayerSpec c = conv_spec("c", "x", "y", 6, 3, 1, 1);
    c.strategy = strategy;
    spec.layers.push_back(c);
    Net net(spec, 19);
    base::Rng data_rng(20);
    randomize(*net.blob("x"), data_rng);
    net.forward();
    auto* conv = dynamic_cast<ConvLayer*>(net.layer("c"));
    ASSERT_NE(conv, nullptr);
    EXPECT_EQ(conv->uses_implicit_forward(),
              strategy == ConvStrategy::kImplicit);
    std::vector<float> want(net.blob("y")->count());
    dnn::conv_forward_implicit(g, net.blob("x")->data().data(),
                               conv->params()[0]->data().data(),
                               conv->params()[1]->data().data(), want.data());
    const auto y = net.blob("y")->data();
    ASSERT_EQ(y.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(y[i]),
                std::bit_cast<std::uint32_t>(want[i]))
          << (strategy == ConvStrategy::kImplicit ? "implicit" : "explicit")
          << " plan, element " << i;
    }
  }
}

TEST(ConvLayerTest, ImplicitStrategyRejectsNarrowChannels) {
  NetSpec spec;
  spec.inputs.push_back({"x", {1, 3, 8, 8}});
  LayerSpec c = conv_spec("c", "x", "y", 8, 3, 1, 1);
  c.strategy = ConvStrategy::kImplicit;
  spec.layers.push_back(c);
  EXPECT_THROW(Net(spec, 21), base::CheckError);
}

}  // namespace
}  // namespace swcaffe::core
