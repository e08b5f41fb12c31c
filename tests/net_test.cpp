// Net-level behaviour: graph wiring, multi-consumer gradient accumulation,
// parameter packing, and end-to-end training on separable synthetic data.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "base/log.h"
#include "base/rng.h"
#include "core/net.h"
#include "core/spec.h"
#include "fixtures.h"

namespace swcaffe::core {
namespace {

using fixtures::packed_bits;

NetSpec tiny_mlp(int batch, int in_dim, int hidden, int classes) {
  NetSpec net;
  net.name = "tiny-mlp";
  net.inputs.push_back({"data", {batch, in_dim}});
  net.inputs.push_back({"label", {batch}});
  net.layers.push_back(ip_spec("fc1", "data", "h", hidden));
  net.layers.push_back(relu_spec("relu1", "h", "h_out"));
  net.layers.push_back(ip_spec("fc2", "h_out", "scores", classes));
  net.layers.push_back(softmax_loss_spec("loss", "scores", "label", "loss"));
  return net;
}

/// A biased conv, an inner product and an LSTM side by side, every bias
/// drawn from the Rng (the default constant bias filler draws nothing), so
/// the weights depend on each filler's draw order.
NetSpec drawn_mix() {
  NetSpec net;
  net.name = "drawn-mix";
  net.inputs.push_back({"img", {2, 3, 5, 5}});
  net.inputs.push_back({"seq", {3, 2, 4}});
  LayerSpec conv = conv_spec("conv", "img", "c", 4, 3, 1, 1);
  conv.bias_filler = tensor::FillerSpec::gaussian(0.0f, 0.1f);
  net.layers.push_back(conv);
  LayerSpec fc = ip_spec("fc", "c", "f", 6);
  fc.weight_filler = tensor::FillerSpec::xavier();
  fc.bias_filler = tensor::FillerSpec::uniform(-0.1f, 0.1f);
  net.layers.push_back(fc);
  LayerSpec lstm = lstm_spec("lstm", "seq", "h", 5);
  lstm.bias_filler = tensor::FillerSpec::gaussian(0.0f, 0.1f);
  net.layers.push_back(lstm);
  return net;
}

/// 64-bit FNV-1a over 32-bit words, low byte first.
std::uint64_t fnv1a(const std::vector<std::uint32_t>& words) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint32_t bits : words) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Two-class linearly separable points on a hypercube diagonal.
void fill_separable(Net& net, base::Rng& rng) {
  tensor::Tensor& data = *net.blob("data");
  tensor::Tensor& label = *net.blob("label");
  const int batch = data.dim(0);
  const int dim = static_cast<int>(data.count()) / batch;
  for (int b = 0; b < batch; ++b) {
    const int cls = rng.bernoulli(0.5) ? 1 : 0;
    label.data()[b] = static_cast<float>(cls);
    for (int i = 0; i < dim; ++i) {
      const float mean = cls == 0 ? -0.5f : 0.5f;
      data.data()[b * dim + i] = mean + rng.gaussian(0.0f, 0.3f);
    }
  }
}

TEST(NetTest, UndefinedBottomBlobThrows) {
  NetSpec spec;
  spec.inputs.push_back({"data", {1, 4}});
  spec.layers.push_back(ip_spec("fc", "nonexistent", "y", 2));
  EXPECT_THROW(Net(spec, 1), base::CheckError);
}

TEST(NetTest, DuplicateTopBlobThrows) {
  NetSpec spec;
  spec.inputs.push_back({"data", {1, 4}});
  spec.layers.push_back(ip_spec("fc1", "data", "y", 2));
  spec.layers.push_back(ip_spec("fc2", "data", "y", 2));
  EXPECT_THROW(Net(spec, 1), base::CheckError);
}

TEST(NetTest, SameSeedGivesIdenticalInitialization) {
  NetSpec spec = tiny_mlp(2, 4, 8, 2);
  Net a(spec, 42), b(spec, 42);
  auto pa = a.learnable_params(), pb = b.learnable_params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t j = 0; j < pa[i]->count(); ++j) {
      EXPECT_EQ(pa[i]->data()[j], pb[i]->data()[j]);
    }
  }
}

TEST(NetTest, SeededWeightsUnchanged) {
  // Pins every initial weight at seed 7: element e of parameter p of layer
  // l is drawn from the key (7, fill, l, p) at index e. Any change of the
  // key layout or of a transform changes the hash.
  const Net net(drawn_mix(), 7);
  EXPECT_EQ(net.param_count(), 4u * 3 * 9 + 4 + 6 * 100 + 6 + 20 * 9 + 20);
  EXPECT_EQ(fnv1a(packed_bits(net)), 0x80f8a387823bfde5ull);
}

TEST(NetTest, UndrawnNetMatchesAfterCopy) {
  const NetSpec spec = drawn_mix();
  const Net drawn(spec, 7);
  Net undrawn(spec, std::nullopt);
  EXPECT_EQ(undrawn.param_count(), drawn.param_count());
  EXPECT_EQ(undrawn.describe(), drawn.describe());
  for (std::uint32_t bits : packed_bits(undrawn)) ASSERT_EQ(bits, 0u);

  undrawn.copy_params_from(drawn);
  EXPECT_EQ(packed_bits(undrawn), packed_bits(drawn));
}

TEST(NetTest, MultiConsumerBlobAccumulatesGradients) {
  // ResNet-style fan-out: x feeds an identity-ish branch AND a shortcut into
  // one eltwise sum. With fc_a == identity and fc_b == identity, the scores
  // equal 2x and d(loss)/d(x) must be exactly twice the single-branch
  // gradient — only true if both consumers ACCUMULATE into x's diff.
  auto build = [](bool two_branches) {
    NetSpec spec;
    spec.inputs.push_back({"x", {1, 2}});
    spec.inputs.push_back({"label", {1}});
    spec.layers.push_back(ip_spec("fc_a", "x", "a", 2));
    spec.layers.back().bias = false;
    if (two_branches) {
      spec.layers.push_back(ip_spec("fc_b", "x", "b", 2));
      spec.layers.back().bias = false;
      spec.layers.push_back(eltwise_sum_spec("sum", "a", "b", "scores"));
    } else {
      spec.layers.push_back(relu_spec("passthrough", "a", "scores"));
    }
    spec.layers.push_back(softmax_loss_spec("loss", "scores", "label", "loss"));
    return spec;
  };
  auto set_identity = [](Net& net, const char* layer) {
    auto& w = *net.layer(layer)->params()[0];
    w.zero_data();
    w.data()[0] = 1.0f;  // 2x2 identity
    w.data()[3] = 1.0f;
  };

  Net diamond(build(true), 7);
  set_identity(diamond, "fc_a");
  set_identity(diamond, "fc_b");
  diamond.blob("x")->data()[0] = 0.4f;
  diamond.blob("x")->data()[1] = 0.9f;  // positive so ReLU passthrough is id
  diamond.blob("label")->data()[0] = 1;

  Net single(build(false), 7);
  set_identity(single, "fc_a");
  single.blob("x")->data()[0] = 0.8f;  // 2 * x of the diamond
  single.blob("x")->data()[1] = 1.8f;
  single.blob("label")->data()[0] = 1;

  EXPECT_NEAR(diamond.forward_backward(), single.forward_backward(), 1e-6);
  for (int i = 0; i < 2; ++i) {
    // Same softmax gradient flows back; diamond x receives it twice.
    EXPECT_NEAR(diamond.blob("x")->diff()[i],
                2.0f * single.blob("x")->diff()[i], 1e-6)
        << i;
  }
}

TEST(NetTest, BackwardMatchesFiniteDifferenceThroughDiamond) {
  // The conclusive multi-consumer test: numeric gradient of the loss w.r.t.
  // the shared input must match the accumulated analytic gradient.
  NetSpec spec;
  spec.inputs.push_back({"x", {1, 3}});
  spec.inputs.push_back({"label", {1}});
  spec.layers.push_back(ip_spec("fc_a", "x", "a", 3));
  spec.layers.push_back(ip_spec("fc_b", "x", "b", 3));
  spec.layers.push_back(eltwise_sum_spec("sum", "a", "b", "scores"));
  spec.layers.push_back(softmax_loss_spec("loss", "scores", "label", "loss"));
  Net net(spec, 9);
  base::Rng rng(10);
  for (auto& v : net.blob("x")->data()) v = rng.uniform(-1, 1);
  net.blob("label")->data()[0] = 1;
  net.forward_backward();
  std::vector<float> analytic(net.blob("x")->diff().begin(),
                              net.blob("x")->diff().end());
  const float eps = 1e-2f;
  for (int i = 0; i < 3; ++i) {
    auto x = net.blob("x")->data();
    const float orig = x[i];
    x[i] = orig + eps;
    const double lp = net.forward();
    x[i] = orig - eps;
    const double lm = net.forward();
    x[i] = orig;
    EXPECT_NEAR(analytic[i], (lp - lm) / (2 * eps), 2e-2) << i;
  }
}

TEST(NetTest, PackUnpackRoundTrip) {
  NetSpec spec = tiny_mlp(2, 4, 8, 2);
  Net net(spec, 11);
  base::Rng rng(12);
  fill_separable(net, rng);
  net.forward_backward();
  const std::size_t n = net.param_count();
  EXPECT_EQ(n, 4u * 8 + 8 + 8 * 2 + 2);
  std::vector<float> packed(n);
  net.pack_param_diffs(packed);
  double sq = 0.0;
  for (float v : packed) sq += static_cast<double>(v) * v;
  EXPECT_GT(sq, 0.0);
  // Scale and restore.
  for (auto& v : packed) v *= 0.5f;
  net.unpack_param_diffs(packed);
  std::vector<float> repacked(n);
  net.pack_param_diffs(repacked);
  for (std::size_t i = 0; i < n; ++i) EXPECT_FLOAT_EQ(repacked[i], packed[i]);
}

TEST(NetTest, PackParamsRoundTrip) {
  NetSpec spec = tiny_mlp(2, 4, 8, 2);
  Net a(spec, 13), b(spec, 14);
  std::vector<float> w(a.param_count());
  a.pack_params(w);
  b.unpack_params(w);
  auto pa = a.learnable_params(), pb = b.learnable_params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::size_t j = 0; j < pa[i]->count(); ++j) {
      EXPECT_EQ(pa[i]->data()[j], pb[i]->data()[j]);
    }
  }
}

TEST(NetTest, CopyParamsFromMakesReplica) {
  NetSpec spec = tiny_mlp(2, 4, 8, 2);
  Net a(spec, 15), b(spec, 16);
  b.copy_params_from(a);
  base::Rng rng(17);
  fill_separable(a, rng);
  b.blob("data")->copy_from(*a.blob("data"));
  b.blob("label")->copy_from(*a.blob("label"));
  EXPECT_DOUBLE_EQ(a.forward(), b.forward());
}

TEST(NetTest, DescribeMatchesSpecInference) {
  NetSpec spec = tiny_mlp(4, 6, 10, 3);
  Net net(spec, 18);
  const auto live = net.describe();
  ASSERT_EQ(live.size(), spec.layers.size());
  EXPECT_EQ(live[0].kind, LayerKind::kInnerProduct);
  EXPECT_EQ(live[0].fc.m, 4);
  EXPECT_EQ(live[0].fc.n, 10);
  EXPECT_EQ(live[0].fc.k, 6);
  EXPECT_EQ(live[0].param_count, 6 * 10 + 10);
}

TEST(NetTest, TrainingReducesLossOnSeparableData) {
  NetSpec spec = tiny_mlp(16, 8, 16, 2);
  Net net(spec, 19);
  base::Rng rng(20);
  // Plain SGD loop (the solver has its own tests).
  double first_loss = 0.0, last_loss = 0.0;
  for (int it = 0; it < 60; ++it) {
    fill_separable(net, rng);
    const double loss = net.forward_backward();
    if (it == 0) first_loss = loss;
    last_loss = loss;
    for (auto* p : net.learnable_params()) p->axpy_from_diff(-0.1f);
  }
  EXPECT_LT(last_loss, 0.5 * first_loss);
  EXPECT_LT(last_loss, 0.3);
}

TEST(NetTest, MemoryAccountingCountsBlobsAndParams) {
  NetSpec spec = tiny_mlp(2, 4, 8, 2);
  Net net(spec, 23);
  // Blobs: data 2x4, label 2, h 2x8, h_out 2x8, scores 2x2, loss 1.
  const std::size_t expected_acts = (8 + 2 + 16 + 16 + 4 + 1) * sizeof(float);
  EXPECT_EQ(net.activation_bytes(), expected_acts);
  EXPECT_EQ(net.param_bytes(), net.param_count() * sizeof(float));
  EXPECT_GT(net.param_bytes(), 0u);
}

TEST(NetTest, LossGradientSkipsLabelInput) {
  NetSpec spec = tiny_mlp(2, 4, 8, 2);
  Net net(spec, 21);
  base::Rng rng(22);
  fill_separable(net, rng);
  net.forward_backward();
  // Labels must never receive gradient.
  for (float v : net.blob("label")->diff()) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace swcaffe::core
