// Statistical oracles for the counter-based generator (base/rng.h) and the
// purity of the fills built on it. Every oracle is run twice: on the
// generator's draws, which it must accept, and on a seeded perturbation of
// the same draws, which it must reject — an oracle that cannot tell the two
// apart checks nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "base/rng.h"
#include "core/layers.h"
#include "core/models.h"
#include "core/net.h"
#include "core/spec.h"
#include "sim/thread_pool.h"
#include "tensor/filler.h"
#include "tensor/tensor.h"

namespace swcaffe::base {
namespace {

constexpr std::uint64_t kSeed = 2024;

/// Upper alpha = 0.001 critical value of chi-square with `df` degrees of
/// freedom (Wilson–Hilferty; z = 3.0902).
double chi2_critical(int df) {
  const double k = df;
  const double a = 2.0 / (9.0 * k);
  const double c = 1.0 - a + 3.0902 * std::sqrt(a);
  return k * c * c * c;
}

/// Pearson's statistic of observed counts against equal expected counts.
double chi2_equal(const std::vector<std::int64_t>& counts) {
  std::int64_t n = 0;
  for (std::int64_t c : counts) n += c;
  const double expected = static_cast<double>(n) / counts.size();
  double chi2 = 0.0;
  for (std::int64_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

bool chi2_accepts(const std::vector<std::int64_t>& counts) {
  return chi2_equal(counts) <
         chi2_critical(static_cast<int>(counts.size()) - 1);
}

// --- Normal: moments and Kolmogorov–Smirnov -------------------------------------

constexpr std::size_t kNormals = std::size_t{1} << 22;

std::vector<float> standard_normals() {
  std::vector<float> z(kNormals);
  fill_normal(Key(kSeed, Site::kFiller), 0, z, 0.0f, 1.0f);
  return z;
}

/// Sample mean and variance within 5 standard errors of N(0, 1)'s.
bool moments_accept(const std::vector<float>& z) {
  double sum = 0.0, sq = 0.0;
  for (float v : z) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(z.size());
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  return std::fabs(mean) < 5.0 / std::sqrt(n) &&
         std::fabs(var - 1.0) < 5.0 * std::sqrt(2.0 / n);
}

/// Kolmogorov–Smirnov distance to Phi(x) = (1 + erf(x / sqrt 2)) / 2.
double ks_distance(std::vector<float> z) {
  std::sort(z.begin(), z.end());
  const double n = static_cast<double>(z.size());
  double d = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double cdf = 0.5 * (1.0 + std::erf(z[i] / std::sqrt(2.0)));
    d = std::max({d, (i + 1) / n - cdf, cdf - i / n});
  }
  return d;
}

/// Accepts below the alpha = 0.001 critical distance 1.95 / sqrt(n).
bool ks_accepts(const std::vector<float>& z) {
  return ks_distance(z) < 1.95 / std::sqrt(static_cast<double>(z.size()));
}

TEST(NormalOracle, MomentsAcceptTheDrawsAndRejectAWiderTwin) {
  const std::vector<float> z = standard_normals();
  EXPECT_TRUE(moments_accept(z));
  std::vector<float> twin = z;
  for (float& v : twin) v *= 1.01f;
  EXPECT_FALSE(moments_accept(twin));
}

TEST(NormalOracle, KolmogorovSmirnovAcceptsTheDrawsAndRejectsAWiderTwin) {
  const std::vector<float> z = standard_normals();
  EXPECT_TRUE(ks_accepts(z));
  std::vector<float> twin = z;
  for (float& v : twin) v *= 1.01f;
  EXPECT_FALSE(ks_accepts(twin));
}

TEST(NormalOracle, TheCursorDrawsFromTheSameTransform) {
  Rng rng(kSeed);
  std::vector<float> z(1 << 20);
  for (float& v : z) v = rng.gaussian(0.0f, 1.0f);
  EXPECT_TRUE(moments_accept(z));
  EXPECT_TRUE(ks_accepts(z));
}

// --- Uniform bins, uniform_int and Bernoulli: chi-square ------------------------

constexpr std::int64_t kDraws = std::int64_t{1} << 20;

/// Moves every 200th draw into bin 0 (a 0.5 % bias of one bin).
bool biased(std::uint64_t bits) { return bits % 200 == 0; }

std::vector<std::int64_t> uniform_bins(bool twin) {
  constexpr int kBins = 64;
  std::vector<std::int64_t> counts(kBins, 0);
  const Key key(kSeed, Site::kCursor);
  for (std::int64_t i = 0; i < kDraws; ++i) {
    const std::uint64_t bits = key.bits(static_cast<std::uint64_t>(i));
    const float u =
        twin && biased(bits) ? 0.0f : uniform_float(bits, 0.0f, 1.0f);
    EXPECT_TRUE(u >= 0.0f && u < 1.0f) << u;
    counts[static_cast<std::size_t>(u * kBins)] += 1;
  }
  return counts;
}

TEST(UniformOracle, BinsAcceptTheDrawsAndRejectABiasedBin) {
  EXPECT_TRUE(chi2_accepts(uniform_bins(false)));
  EXPECT_FALSE(chi2_accepts(uniform_bins(true)));
}

std::vector<std::int64_t> int_counts(bool twin) {
  constexpr std::int64_t kLo = -3, kHi = 3;  // 7 values: not a power of two
  std::vector<std::int64_t> counts(kHi - kLo + 1, 0);
  const Key key(kSeed, Site::kSampler);
  for (std::int64_t i = 0; i < kDraws; ++i) {
    const std::uint64_t bits = key.bits(static_cast<std::uint64_t>(i));
    const std::int64_t v =
        twin && biased(bits) ? kLo : uniform_int(bits, kLo, kHi);
    EXPECT_TRUE(v >= kLo && v <= kHi) << v;
    counts[static_cast<std::size_t>(v - kLo)] += 1;
  }
  return counts;
}

TEST(UniformIntOracle, CountsAcceptTheDrawsAndRejectABiasedValue) {
  EXPECT_TRUE(chi2_accepts(int_counts(false)));
  EXPECT_FALSE(chi2_accepts(int_counts(true)));
}

/// Pearson's statistic of Bernoulli(p) hits against the expected split.
double bernoulli_chi2(double p, double drawn_p) {
  const Key key(kSeed, Site::kDropout);
  std::int64_t hits = 0;
  for (std::int64_t i = 0; i < kDraws; ++i) {
    hits += bernoulli(key.bits(static_cast<std::uint64_t>(i)), drawn_p);
  }
  const double n = static_cast<double>(kDraws);
  const double e1 = n * p, e0 = n * (1.0 - p);
  const double d = static_cast<double>(hits) - e1;
  return d * d / e1 + d * d / e0;
}

TEST(BernoulliOracle, HitsAcceptTheDrawsAndRejectAShiftedP) {
  for (const double p : {0.1, 0.3, 0.5}) {
    EXPECT_LT(bernoulli_chi2(p, p), chi2_critical(1)) << "p = " << p;
    EXPECT_GT(bernoulli_chi2(p, p + 0.01), chi2_critical(1)) << "p = " << p;
  }
}

// --- The chain and the transforms ------------------------------------------------

TEST(KeyTest, TheChainIsSplitmix64OfEachCoordinate) {
  // fault::FaultInjector, serve arrivals and the sched workload generator
  // hashed exactly this before they shared the generator.
  const std::uint64_t seed = 0x1234, site = 0x6e657444;
  const std::uint64_t expected =
      splitmix64(splitmix64(splitmix64(seed ^ site) ^ 5) ^ 7);
  EXPECT_EQ(Key(seed, site).then(5).bits(7), expected);
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);  // the published first output
}

TEST(KeyTest, UniformIntCoversTheFullRange) {
  using Limits = std::numeric_limits<std::int64_t>;
  const std::uint64_t bits = 0xfedcba9876543210ULL;
  EXPECT_EQ(uniform_int(bits, Limits::min(), Limits::max()),
            static_cast<std::int64_t>(
                bits + static_cast<std::uint64_t>(Limits::min())));
  EXPECT_EQ(uniform_int(bits, 5, 5), 5);
  EXPECT_EQ(uniform_int(bits, 0, 9), static_cast<std::int64_t>(bits % 10));
}

TEST(KeyTest, UniformFloatStaysHalfOpen) {
  // The largest 24-bit fraction rounds lo + (hi - lo) * u up to hi here.
  const std::uint64_t top = ~std::uint64_t{0};
  EXPECT_LT(uniform_float(top, 1.0f, 1.0000001f), 1.0000001f);
  EXPECT_EQ(uniform_float(top, 2.0f, 2.0f), 2.0f);
  EXPECT_EQ(uniform_float(0, -1.0f, 1.0f), -1.0f);
}

TEST(FillTest, BlockedNormalsEqualTheScalarTransform) {
  // fill_normal runs its transform in vectorized blocks; every element must
  // equal the scalar normal_pair of its draw.
  const Key key(kSeed, Site::kData);
  std::vector<float> z(4099);
  fill_normal(key, 0, z, 0.0f, 1.0f);
  for (std::size_t e = 0; e < z.size(); ++e) {
    const NormalPair pair = normal_pair(key.bits(e / 2));
    ASSERT_EQ(z[e], e % 2 == 0 ? pair.first : pair.second) << "element " << e;
  }
}

// --- Fills: subranges and thread counts ------------------------------------------

TEST(FillTest, ASubrangeDrawnAloneEqualsTheSliceOfAFullDraw) {
  const std::vector<int> shape = {37, 29, 3};  // 3219 elements
  const std::size_t count = 37 * 29 * 3;
  const Key key = Key(kSeed, Site::kFiller).then(3).then(1);
  for (const tensor::FillerSpec& spec :
       {tensor::FillerSpec::gaussian(0.5f, 2.0f), tensor::FillerSpec::msra(),
        tensor::FillerSpec::uniform(-0.25f, 0.75f),
        tensor::FillerSpec::xavier(), tensor::FillerSpec::constant(3.0f)}) {
    std::vector<float> full(count);
    tensor::fill_range(spec, shape, key, 0, full);
    // Odd and even starts and lengths, inside and across transform blocks.
    for (const auto& [first, len] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {0, 1}, {1, 1}, {1, 2}, {7, 600}, {511, 514}, {2000, 1219},
             {3218, 1}}) {
      std::vector<float> part(len);
      tensor::fill_range(spec, shape, key, first, part);
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(part[i], full[first + i])
            << "filler " << static_cast<int>(spec.type) << " element "
            << first + i;
      }
    }
  }
}

/// A net whose fully connected weight spans several draw chunks.
core::NetSpec wide_net() {
  core::NetSpec net;
  net.name = "wide";
  net.inputs.push_back({"x", {2, 3, 8, 8}});
  core::LayerSpec conv = core::conv_spec("conv", "x", "c", 6, 3, 1, 1);
  conv.bias_filler = tensor::FillerSpec::gaussian(0.0f, 0.1f);
  net.layers.push_back(conv);
  core::LayerSpec fc = core::ip_spec("fc", "c", "f", 700);  // 268,800 weights
  fc.weight_filler = tensor::FillerSpec::xavier();
  net.layers.push_back(fc);
  net.layers.push_back(core::ip_spec("head", "f", "y", 97));  // 67,900
  return net;
}

std::vector<float> packed(const core::Net& net) {
  std::vector<float> out(net.param_count());
  net.pack_params(out);
  return out;
}

TEST(FillTest, DrawnWeightsAreBitIdenticalAtOneTwoAndFourWorkers) {
  const core::NetSpec spec = wide_net();
  const core::Net serial(spec, 5);
  const std::vector<float> expected = packed(serial);
  for (const int workers : {1, 2, 4}) {
    sim::ThreadPool pool(workers);
    core::Net net(spec, std::nullopt);
    net.draw_params(5, &pool);
    const std::vector<float> got = packed(net);
    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(0, std::memcmp(got.data(), expected.data(),
                             got.size() * sizeof(float)))
        << workers << " workers";
  }
  // A different seed draws different weights.
  const core::Net other(spec, 6);
  EXPECT_NE(packed(other), expected);
}

// --- Dropout masks ----------------------------------------------------------------

TEST(DropoutMaskTest, KeyedByIterationAndReplica) {
  core::NetSpec spec;
  spec.inputs.push_back({"x", {1, 1, 40, 40}});
  spec.layers.push_back(core::dropout_spec("d", "x", "y", 0.5f));
  core::Net net(spec, 5);
  const auto& layer =
      dynamic_cast<const core::DropoutLayer&>(*net.layer("d"));
  net.forward();
  const std::vector<float> first = layer.mask();
  net.forward();
  EXPECT_EQ(layer.mask(), first) << "the same iteration redraws its mask";
  net.set_iteration(1);
  net.forward();
  EXPECT_NE(layer.mask(), first) << "the next iteration draws another";
  net.set_iteration(0);
  net.forward();
  EXPECT_EQ(layer.mask(), first) << "replaying iteration 0";
  net.set_stream(5, 1);
  net.forward();
  EXPECT_NE(layer.mask(), first) << "replica 1 draws its own";
}

TEST(DropoutMaskTest, EqualWidthLayersDrawDifferentMasks) {
  // AlexNet-BN's drop6 and drop7 are both 4096 wide. Each layer keys its own
  // masks, so at ratio 0.5 about half their units disagree.
  core::Net net(core::alexnet_bn(1, 10, 67), 1);
  Rng rng(3);
  for (auto& v : net.blob("data")->data()) v = rng.uniform(-1.0f, 1.0f);
  net.blob("label")->data()[0] = 4.0f;
  net.forward();
  auto mask = [&](const char* name) {
    return dynamic_cast<const core::DropoutLayer&>(*net.layer(name)).mask();
  };
  const std::vector<float>& m6 = mask("drop6");
  const std::vector<float>& m7 = mask("drop7");
  ASSERT_EQ(m6.size(), 4096u);
  ASSERT_EQ(m7.size(), m6.size());
  int differ = 0;
  for (std::size_t i = 0; i < m6.size(); ++i) differ += m6[i] != m7[i];
  EXPECT_NEAR(differ / 4096.0, 0.5, 0.05);
}

}  // namespace
}  // namespace swcaffe::base
