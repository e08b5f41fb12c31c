#include "topo/compress.h"

#include <bit>
#include <cmath>
#include <string_view>

#include "base/log.h"
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

/// Quantize one value at `scale`: nearest signed step, half-way cases away
/// from the implementation-defined FP rounding mode (floor(t + 0.5) in
/// double — fully deterministic, no fesetround dependence).
float int8_round_trip(float v, float scale) {
  if (scale <= 0.0f) return 0.0f;
  const double t = static_cast<double>(v) / static_cast<double>(scale);
  double q = std::floor(t + 0.5);
  if (q > 127.0) q = 127.0;
  if (q < -127.0) q = -127.0;
  return static_cast<float>(q) * scale;
}

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
  SWC_CHECK_EQ(grad.size(), residual.size());
  if (c == Compression::kNone) return;
  // v = grad + residual; grad := decode(encode(v)); residual := v - grad.
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] += residual[i];
  for (std::size_t i = 0; i < grad.size(); ++i) residual[i] = grad[i];
  codec_round_trip(c, grad);
  for (std::size_t i = 0; i < grad.size(); ++i) residual[i] -= grad[i];
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
