#include "topo/compress.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string_view>

#include "base/log.h"
#include "topo/collective.h"
#include "topo/hierarchical.h"

namespace swcaffe::topo {

const char* compression_name(Compression c) {
  switch (c) {
    case Compression::kNone:
      return "none";
    case Compression::kFp16:
      return "fp16";
    case Compression::kInt8:
      return "int8";
  }
  return "?";
}

bool compression_from_name(const char* name, Compression* out) {
  const std::string_view n = name ? name : "";
  if (n == "none") {
    *out = Compression::kNone;
  } else if (n == "fp16") {
    *out = Compression::kFp16;
  } else if (n == "int8") {
    *out = Compression::kInt8;
  } else {
    return false;
  }
  return true;
}

std::uint16_t float_to_half(float f) {
  const std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint16_t sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  const std::uint32_t abs = x & 0x7fffffffu;
  if (abs >= 0x7f800000u) {  // inf / NaN pass through
    return sign | (abs > 0x7f800000u ? 0x7e00u : 0x7c00u);
  }
  if (abs < 0x33000000u) return sign;  // < 2^-25: rounds to zero (ties even)
  std::uint32_t bits;
  if (abs < 0x38800000u) {
    // Subnormal half: value = mant * 2^(exp - 150), half unit = 2^-24.
    const std::uint32_t exp = abs >> 23;  // 102..112
    const std::uint32_t mant = (abs & 0x7fffffu) | 0x800000u;
    const int shift = static_cast<int>(126 - exp);  // 14..24
    bits = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1);
    const std::uint32_t half = 1u << (shift - 1);
    if (rem > half || (rem == half && (bits & 1))) ++bits;
  } else {
    const std::uint32_t mant = abs & 0x7fffffu;
    const std::uint32_t exp = abs >> 23;  // 113..142
    bits = ((exp - 112) << 10) | (mant >> 13);
    const std::uint32_t rem = mant & 0x1fffu;
    if (rem > 0x1000u || (rem == 0x1000u && (bits & 1))) ++bits;
    // Rounding may carry into the exponent; a gradient codec clamps finite
    // overflow to the largest finite half instead of minting an infinity.
    if (bits >= 0x7c00u) bits = 0x7bffu;
  }
  return sign | static_cast<std::uint16_t>(bits);
}

float half_to_float(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  std::uint32_t mant = h & 0x3ffu;
  std::uint32_t x;
  if (exp == 0) {
    if (mant == 0) {
      x = sign;
    } else {
      // Subnormal: value = mant * 2^-24. Normalize the leading bit.
      int b = 9;
      while (!(mant & (1u << b))) --b;
      const std::uint32_t frac = (mant << (10 - b)) & 0x3ffu;
      x = sign | (static_cast<std::uint32_t>(b + 103) << 23) | (frac << 13);
    }
  } else if (exp == 31) {
    x = sign | 0x7f800000u | (mant << 13);
  } else {
    x = sign | ((exp + 112) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(x);
}

namespace {

/// Per-message int8 scale: max|v| / 127, computed in the span's order (a
/// max is order-independent anyway, so reruns are trivially bit-identical).
float int8_scale(std::span<const float> values) {
  float max_abs = 0.0f;
  for (float v : values) {
    const float a = std::fabs(v);
    if (a > max_abs) max_abs = a;
  }
  return max_abs / 127.0f;
}

/// Quantize one value at `scale`: nearest signed step, half-way cases
/// rounded up, floor(t + 0.5) in double with t = v / scale, clamped to
/// +-127. The floor is exact without libm: for |u| < 2^51, u + 1.5 * 2^52
/// has unit spacing, so subtracting the constant again leaves u rounded to
/// an integer, which is one too high exactly when it exceeds u. Larger |u|
/// (and +-inf) stay beyond +-127 and clamp as before; a NaN passes through
/// every step as the NaN floor would return. Branch-free, so the passes
/// vectorize.
float int8_round_trip(float v, float scale) {
  if (scale <= 0.0f) return 0.0f;
  constexpr double kRound = 6755399441055744.0;  // 1.5 * 2^52
  const double u = static_cast<double>(v) / static_cast<double>(scale) + 0.5;
  const double r = (u + kRound) - kRound;
  const double q = r - (r > u ? 1.0 : 0.0);
  return static_cast<float>(std::min(std::max(q, -127.0), 127.0)) * scale;
}

/// The tasks of a multi-rank codec pass: kCollectiveBlock-float blocks of
/// every rank's slice, rank-major.
struct CodecBlock {
  int rank = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
};

}  // namespace

void codec_round_trip(Compression c, std::span<float> values) {
  switch (c) {
    case Compression::kNone:
      return;
    case Compression::kFp16:
      for (float& v : values) v = half_to_float(float_to_half(v));
      return;
    case Compression::kInt8: {
      const float scale = int8_scale(values);
      for (float& v : values) v = int8_round_trip(v, scale);
      return;
    }
  }
}

void ef_encode(Compression c, std::span<float> grad,
               std::span<float> residual) {
  ef_encode(c, std::vector<std::span<float>>{grad},
            std::vector<std::span<float>>{residual});
}

void ef_encode(Compression c, const std::vector<std::span<float>>& grads,
               const std::vector<std::span<float>>& residuals,
               sim::ThreadPool* pool) {
  SWC_CHECK_EQ(grads.size(), residuals.size());
  for (std::size_t r = 0; r < grads.size(); ++r) {
    SWC_CHECK_EQ(grads[r].size(), residuals[r].size());
  }
  if (c == Compression::kNone) return;
  std::vector<CodecBlock> blocks;
  for (std::size_t r = 0; r < grads.size(); ++r) {
    for (std::size_t lo = 0; lo < grads[r].size(); lo += kCollectiveBlock) {
      blocks.push_back({static_cast<int>(r), lo,
                        std::min(grads[r].size(), lo + kCollectiveBlock)});
    }
  }
  if (blocks.empty()) return;
  SWC_CHECK_LE(blocks.size(), static_cast<std::size_t>(INT32_MAX));
  const auto run = [&](const std::function<void(int)>& pass) {
    if (pool) {
      pool->parallel_for(0, static_cast<int>(blocks.size()), pass);
    } else {
      for (std::size_t t = 0; t < blocks.size(); ++t) {
        pass(static_cast<int>(t));
      }
    }
  };
  // Per element: v = grad + residual; grad := decode(encode(v));
  // residual := v - grad — the float operations of encoding each slice with
  // codec_round_trip, fused into passes over cache-sized blocks.
  if (c == Compression::kFp16) {
    run([&](int t) {
      const CodecBlock& b = blocks[t];
      float* g = grads[b.rank].data();
      float* res = residuals[b.rank].data();
      for (std::size_t i = b.lo; i < b.hi; ++i) {
        const float v = g[i] + res[i];
        const float q = half_to_float(float_to_half(v));
        res[i] = v - q;
        g[i] = q;
      }
    });
    return;
  }
  // int8 needs the slice's max|v| before any element is encoded: pass 1
  // stores v and each block's max, pass 2 encodes at the rank's scale. A
  // max does not depend on the order its inputs are combined in.
  std::vector<float> block_max(blocks.size(), 0.0f);
  run([&](int t) {
    const CodecBlock& b = blocks[t];
    float* g = grads[b.rank].data();
    const float* res = residuals[b.rank].data();
    // max|v| over the bits: a non-NaN |v| orders like its bit pattern read
    // as an integer (an integer max vectorizes where a float max does not),
    // and a NaN counts as 0 — in float it never compares greater either.
    std::int32_t max_bits = 0;
    for (std::size_t i = b.lo; i < b.hi; ++i) {
      const float v = g[i] + res[i];
      g[i] = v;
      const std::int32_t a = std::bit_cast<std::int32_t>(v) & 0x7fffffff;
      max_bits = std::max(max_bits, a > 0x7f800000 ? 0 : a);
    }
    block_max[t] = std::bit_cast<float>(max_bits);
  });
  std::vector<float> scale(grads.size(), 0.0f);
  for (std::size_t t = 0; t < blocks.size(); ++t) {
    float& m = scale[blocks[t].rank];
    if (block_max[t] > m) m = block_max[t];
  }
  for (float& s : scale) s /= 127.0f;
  run([&](int t) {
    const CodecBlock& b = blocks[t];
    const float s = scale[b.rank];
    float* g = grads[b.rank].data();
    float* res = residuals[b.rank].data();
    for (std::size_t i = b.lo; i < b.hi; ++i) {
      const float v = g[i];
      const float q = int8_round_trip(v, s);
      res[i] = v - q;
      g[i] = q;
    }
  });
}

double codec_seconds(Compression c, std::int64_t raw_bytes,
                     const NetParams& net) {
  if (c == Compression::kNone) return 0.0;
  SWC_CHECK_GE(raw_bytes, 0);
  // Encode at the source + decode at the sink: two streaming passes over
  // the raw floats on the CPE clusters (same engine the gamma term uses).
  return 2.0 * static_cast<double>(raw_bytes) / net.reduce_bw;
}

CostBreakdown allreduce_cost(AllreduceAlgo algo, Compression c,
                             std::int64_t raw_bytes, const Topology& topo,
                             const NetParams& net, int param_servers) {
  return cost_compressed(c, raw_bytes, net, [&](std::int64_t wire) {
    switch (algo) {
      case AllreduceAlgo::kRhdAdjacent:
      case AllreduceAlgo::kRhdRoundRobin:
        return cost_rhd(wire, topo, net, placement_for(algo));
      case AllreduceAlgo::kRing:
        return cost_ring(wire, topo, net, placement_for(algo));
      case AllreduceAlgo::kParamServer:
        return cost_param_server(wire, topo, net, param_servers);
      case AllreduceAlgo::kHierarchical:
        return cost_hierarchical(wire, topo, net);
    }
    return CostBreakdown{};
  });
}

}  // namespace swcaffe::topo
