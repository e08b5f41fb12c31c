#include "base/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace swcaffe::base {

float uniform_float(std::uint64_t bits, float lo, float hi) {
  const float u = static_cast<float>(bits >> 40) * 0x1.0p-24f;  // [0, 1)
  const float v = lo + (hi - lo) * u;
  // Rounding can land on hi; keep the interval half-open.
  if (v < hi) return v;
  return lo < hi ? std::nextafter(hi, lo) : lo;
}

namespace {

/// Box–Muller on the two halves of one draw, with IEEE +, -, *, / and sqrt
/// only. The radius takes the top 24 bits of `hi`: u1 = (k + 1) / 2^24 in
/// (0, 1], decomposed as m * 2^e with m in [sqrt(1/2), sqrt(2)) and
/// ln m = 2 atanh(s), s = (m - 1) / (m + 1), |s| <= 0.172, summed to s^9
/// (truncation below 1e-9). The angle 2 pi lo / 2^32 is reduced exactly in
/// integers to a quadrant q and phi in [-pi/4, pi/4), whose sine and cosine
/// are Taylor sums truncated below 2e-9. Written without branches so that
/// fill_normal's block loop vectorizes.
inline NormalPair box_muller(std::uint32_t hi, std::uint32_t lo) {
  const float u1 =
      static_cast<float>(static_cast<std::int32_t>(hi >> 8)) * 0x1.0p-24f +
      0x1.0p-24f;
  const auto ub = std::bit_cast<std::uint32_t>(u1);
  auto e = static_cast<std::int32_t>(ub >> 23) - 126;
  // m in [0.5, 1); [0.5, sqrt(1/2)) moves up an octave.
  float m = std::bit_cast<float>((ub & 0x7fffffu) | 0x3f000000u);
  const std::int32_t low = m < 0.70710678f;
  m *= 1.0f + static_cast<float>(low);
  e -= low;
  const float s = (m - 1.0f) / (m + 1.0f);
  const float s2 = s * s;
  const float ln_m =
      2.0f * s *
      (1.0f + s2 * (1.0f / 3 + s2 * (1.0f / 5 + s2 * (1.0f / 7 +
                                                      s2 * (1.0f / 9)))));
  const float r =
      std::sqrt(-2.0f * (static_cast<float>(e) * 0.69314718f + ln_m));

  const std::uint32_t t = lo + (1u << 29);
  const auto q = static_cast<std::int32_t>(t >> 30);
  const float phi =
      static_cast<float>(static_cast<std::int32_t>(t & ((1u << 30) - 1)) -
                         (1 << 29)) *
      (1.5707963f / 0x1.0p30f);
  const float p2 = phi * phi;
  const float sin_phi =
      phi * (1.0f + p2 * (-1.0f / 6 + p2 * (1.0f / 120 + p2 * (-1.0f / 5040 +
                                                      p2 * (1.0f / 362880)))));
  const float cos_phi =
      1.0f +
      p2 * (-1.0f / 2 +
            p2 * (1.0f / 24 +
                  p2 * (-1.0f / 720 +
                        p2 * (1.0f / 40320 + p2 * (-1.0f / 3628800)))));
  // Rotate by q quarter turns, (cos, sin) -> (-sin, cos) per turn, through
  // exact multiplications by 0, 1 and -1.
  const auto odd = static_cast<float>(q & 1);
  const float c = (odd * sin_phi + (1.0f - odd) * cos_phi) *
                  (1.0f - 2.0f * static_cast<float>((q ^ (q >> 1)) & 1));
  const float sn = (odd * cos_phi + (1.0f - odd) * sin_phi) *
                   (1.0f - 2.0f * static_cast<float>(q >> 1));
  return {r * c, r * sn};
}

}  // namespace

NormalPair normal_pair(std::uint64_t bits) {
  return box_muller(static_cast<std::uint32_t>(bits >> 32),
                    static_cast<std::uint32_t>(bits));
}

float Rng::gaussian(float mean, float stddev) {
  return mean + stddev * normal_pair(next()).first;
}

void fill_uniform(Key key, std::uint64_t first, std::span<float> out,
                  float lo, float hi) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = uniform_float(key.bits(first + i), lo, hi);
  }
}

void fill_normal(Key key, std::uint64_t first, std::span<float> out,
                 float mean, float stddev) {
  std::size_t i = 0;
  std::uint64_t e = first;
  if (e % 2 == 1 && !out.empty()) {  // starts on a pair's second value
    out[i++] = mean + stddev * normal_pair(key.bits(e / 2)).second;
    ++e;
  }
  // Whole pairs in blocks: the draws need scalar 64-bit multiplies, the
  // transform loop vectorizes. Lanes and the scalar normal_pair compute the
  // same IEEE operations (no contraction, see CMakeLists.txt), so every
  // element is the same wherever a block starts.
  constexpr std::size_t kBlock = 256;
  std::uint32_t hi[kBlock], lo[kBlock];
  float z0[kBlock], z1[kBlock];
  while (out.size() - i >= 2) {
    const std::size_t pairs = std::min(kBlock, (out.size() - i) / 2);
    const std::uint64_t p0 = e / 2;
    for (std::size_t j = 0; j < pairs; ++j) {
      const std::uint64_t b = key.bits(p0 + j);
      hi[j] = static_cast<std::uint32_t>(b >> 32);
      lo[j] = static_cast<std::uint32_t>(b);
    }
    for (std::size_t j = 0; j < pairs; ++j) {
      const NormalPair z = box_muller(hi[j], lo[j]);
      z0[j] = z.first;
      z1[j] = z.second;
    }
    for (std::size_t j = 0; j < pairs; ++j) {
      out[i + 2 * j] = mean + stddev * z0[j];
      out[i + 2 * j + 1] = mean + stddev * z1[j];
    }
    i += 2 * pairs;
    e += 2 * pairs;
  }
  if (i < out.size()) {
    out[i] = mean + stddev * normal_pair(key.bits(e / 2)).first;
  }
}

}  // namespace swcaffe::base
