// Property tests for the gradient codecs (topo/compress): quantization
// error bounds, error-feedback telescoping, and bitwise determinism. These
// are the invariants the compressed all-reduce path leans on — a codec
// whose error is unbounded or whose output depends on anything but its
// inputs would silently break the trainer's reproducibility contract.
#include "topo/compress.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "proptest.h"
#include "topo/hierarchical.h"
#include "topo/network_model.h"

namespace swcaffe::topo {
namespace {

using proptest::Rng;
using proptest::for_all;

// --- fp16 scalar conversion ------------------------------------------------

TEST(Fp16Test, ExactValuesRoundTrip) {
  // Everything representable in binary16 comes back bit-exact.
  for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, 65504.0f,
                  -65504.0f, 0.25f, 6.103515625e-05f /* min normal half */}) {
    EXPECT_EQ(half_to_float(float_to_half(v)), v) << v;
  }
}

TEST(Fp16Test, FiniteOverflowClampsInsteadOfInf) {
  EXPECT_EQ(half_to_float(float_to_half(65505.0f)), 65504.0f);
  EXPECT_EQ(half_to_float(float_to_half(1e30f)), 65504.0f);
  EXPECT_EQ(half_to_float(float_to_half(-7e4f)), -65504.0f);
  // Real infinities and NaNs still pass through.
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(half_to_float(float_to_half(inf)), inf);
  EXPECT_EQ(half_to_float(float_to_half(-inf)), -inf);
  EXPECT_TRUE(std::isnan(half_to_float(float_to_half(
      std::numeric_limits<float>::quiet_NaN()))));
}

TEST(Fp16Test, TinyValuesRoundToZero) {
  EXPECT_EQ(half_to_float(float_to_half(1e-10f)), 0.0f);
  EXPECT_EQ(half_to_float(float_to_half(-1e-10f)), -0.0f);
}

TEST(Fp16Test, RoundTripErrorBounded) {
  // Normal half range: relative error <= 2^-11 (10 fraction bits, RNE).
  // Below the normal range the error is absolute, <= 2^-25 (half the
  // subnormal ulp 2^-24).
  for_all(0xF16F16ULL, 2000, [](Rng& rng, int) {
    // Log-uniform magnitude across the whole half range and beyond zero.
    const float exp = rng.next_float(-30.0f, 15.0f);
    const float mag = std::pow(2.0f, exp);
    const float v = rng.next_below(2) ? mag : -mag;
    const float rt = half_to_float(float_to_half(v));
    const float err = std::abs(rt - v);
    if (std::abs(v) >= 6.103515625e-05f) {
      EXPECT_LE(err, std::abs(v) * (1.0f / 2048.0f) * 1.0001f) << v;
    } else {
      EXPECT_LE(err, 0x1.0p-25f * 1.0001f) << v;
    }
  });
}

TEST(Fp16Test, RoundTripIsIdempotent) {
  // decode(encode(x)) is a fixed point: encoding it again is lossless.
  for_all(0x1DE9ULL, 500, [](Rng& rng, int) {
    const float v = rng.next_float(-1e5f, 1e5f);
    const float once = half_to_float(float_to_half(v));
    const float twice = half_to_float(float_to_half(once));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(once),
              std::bit_cast<std::uint32_t>(twice));
  });
}

// --- int8 quantization -----------------------------------------------------

TEST(Int8Test, RoundTripErrorBoundedByHalfScale) {
  for_all(0x1278ULL, 500, [](Rng& rng, int) {
    const std::size_t n = 1 + rng.next_below(256);
    std::vector<float> v(n);
    float max_abs = 0.0f;
    for (auto& x : v) {
      x = rng.next_float(-10.0f, 10.0f);
      max_abs = std::max(max_abs, std::abs(x));
    }
    std::vector<float> rt = v;
    codec_round_trip(Compression::kInt8, rt);
    const float scale = max_abs / 127.0f;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(std::abs(rt[i] - v[i]), scale * 0.5f + scale * 1e-5f)
          << "element " << i;
    }
  });
}

TEST(Int8Test, AllZerosStayZero) {
  std::vector<float> v(64, 0.0f);
  codec_round_trip(Compression::kInt8, v);
  for (float x : v) EXPECT_EQ(x, 0.0f);
}

TEST(NoneTest, RoundTripIsIdentity) {
  for_all(0x9999ULL, 100, [](Rng& rng, int) {
    std::vector<float> v(32);
    for (auto& x : v) x = rng.next_float(-1e3f, 1e3f);
    std::vector<float> rt = v;
    codec_round_trip(Compression::kNone, rt);
    EXPECT_EQ(rt, v);
  });
}

// --- error feedback --------------------------------------------------------

// After T ef_encode steps the sum of decoded gradients differs from the sum
// of raw gradients by exactly the final residual (modulo float rounding of
// the additions): per-step quantization errors telescope instead of
// accumulating, so the drift after T steps is one quantization step, not T.
void CheckTelescoping(Compression c, float tol_per_unit) {
  const std::uint64_t seed = c == Compression::kFp16 ? 0xEF16ULL : 0xEF08ULL;
  for_all(seed, 100, [=](Rng& rng, int) {
    const std::size_t n = 1 + rng.next_below(64);
    const int steps = 1 + static_cast<int>(rng.next_below(20));
    std::vector<float> residual(n, 0.0f);
    std::vector<double> sum_raw(n, 0.0), sum_decoded(n, 0.0);
    double max_mag = 0.0;
    for (int t = 0; t < steps; ++t) {
      std::vector<float> grad(n);
      for (auto& g : grad) g = rng.next_float(-2.0f, 2.0f);
      for (std::size_t i = 0; i < n; ++i) {
        sum_raw[i] += grad[i];
        max_mag = std::max(max_mag, std::abs(static_cast<double>(grad[i])));
      }
      ef_encode(c, grad, residual);  // grad now holds the decoded values
      for (std::size_t i = 0; i < n; ++i) sum_decoded[i] += grad[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double drift = std::abs(sum_decoded[i] + residual[i] - sum_raw[i]);
      // The bound is per-step float rounding, NOT per-step quantization
      // error: tol_per_unit * max|g| * steps is orders of magnitude below
      // steps * (quantization step), which is what a non-EF codec would
      // accumulate.
      EXPECT_LE(drift, tol_per_unit * (max_mag + 1.0) * steps)
          << "element " << i << " after " << steps << " steps";
    }
  });
}

TEST(ErrorFeedbackTest, Fp16DriftTelescopes) {
  CheckTelescoping(Compression::kFp16, 1e-6f);
}

TEST(ErrorFeedbackTest, Int8DriftTelescopes) {
  CheckTelescoping(Compression::kInt8, 1e-5f);
}

TEST(ErrorFeedbackTest, SingleStepExactDecomposition) {
  // One step: decoded + residual must equal grad + old residual bitwise-ish
  // (exact up to the float add that forms grad + residual).
  for_all(0x51E9ULL, 200, [](Rng& rng, int) {
    const std::size_t n = 1 + rng.next_below(32);
    std::vector<float> grad(n), residual(n);
    for (auto& g : grad) g = rng.next_float(-3.0f, 3.0f);
    for (auto& r : residual) r = rng.next_float(-0.01f, 0.01f);
    std::vector<float> carried(n);
    for (std::size_t i = 0; i < n; ++i) carried[i] = grad[i] + residual[i];
    ef_encode(Compression::kInt8, grad, residual);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_FLOAT_EQ(grad[i] + residual[i], carried[i]) << i;
    }
  });
}

TEST(ErrorFeedbackTest, BitIdenticalAcrossReruns) {
  // The whole multi-step EF trajectory is a pure function of its inputs:
  // replaying it produces bit-identical gradients AND residuals.
  for (Compression c : {Compression::kFp16, Compression::kInt8}) {
    Rng gen(0xB17B17ULL);
    const std::size_t n = 96;
    const int steps = 8;
    std::vector<std::vector<float>> grads(steps, std::vector<float>(n));
    for (auto& g : grads) {
      for (auto& x : g) x = gen.next_float(-1.0f, 1.0f);
    }
    auto run = [&](std::vector<std::vector<float>>& out_g,
                   std::vector<float>& out_r) {
      out_g = grads;
      out_r.assign(n, 0.0f);
      for (auto& g : out_g) ef_encode(c, g, out_r);
    };
    std::vector<std::vector<float>> g1, g2;
    std::vector<float> r1, r2;
    run(g1, r1);
    run(g2, r2);
    for (int t = 0; t < steps; ++t) {
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(g1[t][i]),
                  std::bit_cast<std::uint32_t>(g2[t][i]));
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(r1[i]),
                std::bit_cast<std::uint32_t>(r2[i]));
    }
  }
}

// --- wire model ------------------------------------------------------------

TEST(WireBytesTest, CodecRatios) {
  EXPECT_EQ(wire_bytes(Compression::kNone, 1000), 1000);
  EXPECT_EQ(wire_bytes(Compression::kFp16, 1000), 500);
  EXPECT_EQ(wire_bytes(Compression::kInt8, 1000), 250 + kInt8ScaleBytes);
}

TEST(WireBytesTest, CodecSecondsZeroOnlyForNone) {
  const NetParams net = sunway_network();
  EXPECT_EQ(codec_seconds(Compression::kNone, 1 << 20, net), 0.0);
  EXPECT_GT(codec_seconds(Compression::kFp16, 1 << 20, net), 0.0);
  EXPECT_GT(codec_seconds(Compression::kInt8, 1 << 20, net), 0.0);
}

TEST(WireBytesTest, CostCompressedIdentityForNone) {
  const NetParams net = sunway_network();
  const auto fn = [](std::int64_t b) {
    CostBreakdown c;
    c.seconds = static_cast<double>(b) * 1e-9;
    return c;
  };
  EXPECT_EQ(cost_compressed(Compression::kNone, 4096, net, fn).seconds,
            fn(4096).seconds);
  EXPECT_GT(cost_compressed(Compression::kInt8, 4096, net, fn).seconds, 0.0);
  EXPECT_LT(cost_compressed(Compression::kFp16, 1 << 26, net, fn).seconds,
            fn(1 << 26).seconds);  // wire saving beats codec passes at size
}

TEST(AllreduceCostTest, PricesEachAlgorithmAtItsPlacementBehindTheCodec) {
  // allreduce_cost is the single pricing entry point; pin its dispatch:
  // which analytic collective, at which placement, with which server count.
  const NetParams net = sunway_network();
  Topology topo;
  topo.num_nodes = 1024;
  const std::int64_t raw = 232'600'000;
  for (Compression c :
       {Compression::kNone, Compression::kFp16, Compression::kInt8}) {
    const std::int64_t wire = wire_bytes(c, raw);
    const double codec = codec_seconds(c, raw, net);
    const auto expect_price = [&](AllreduceAlgo algo, int servers,
                                  const CostBreakdown& raw_cost) {
      const CostBreakdown got =
          allreduce_cost(algo, c, raw, topo, net, servers);
      EXPECT_EQ(got.seconds, raw_cost.seconds + codec)
          << allreduce_algo_name(algo) << " " << compression_name(c);
      EXPECT_EQ(got.alpha_terms, raw_cost.alpha_terms);
      EXPECT_EQ(got.beta2_bytes, raw_cost.beta2_bytes);
    };
    expect_price(AllreduceAlgo::kRhdAdjacent, 1,
                 cost_rhd(wire, topo, net, Placement::kAdjacent));
    expect_price(AllreduceAlgo::kRhdRoundRobin, 1,
                 cost_rhd(wire, topo, net, Placement::kRoundRobin));
    expect_price(AllreduceAlgo::kRing, 1,
                 cost_ring(wire, topo, net, Placement::kAdjacent));
    expect_price(AllreduceAlgo::kParamServer, 4,
                 cost_param_server(wire, topo, net, 4));
    expect_price(AllreduceAlgo::kHierarchical, 1,
                 cost_hierarchical(wire, topo, net));
  }
}

TEST(NamesTest, RoundTrip) {
  for (Compression c :
       {Compression::kNone, Compression::kFp16, Compression::kInt8}) {
    Compression back = Compression::kNone;
    EXPECT_TRUE(compression_from_name(compression_name(c), &back));
    EXPECT_EQ(back, c);
  }
  Compression out = Compression::kNone;
  EXPECT_FALSE(compression_from_name("gzip", &out));
  EXPECT_FALSE(compression_from_name(nullptr, &out));
}

}  // namespace
}  // namespace swcaffe::topo
