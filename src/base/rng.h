// Counter-based random numbers (Salmon et al., "Parallel random numbers: as
// easy as 1, 2, 3", SC'11).
//
// Every stochastic component in swCaffe (weight fillers, dropout masks,
// synthetic data, sampling, fault schedules, arrivals, cluster workloads)
// draws from ONE generator: a keyed splitmix64 chain. A Key starts at
// splitmix64(seed ^ site) and descends one coordinate per then(); draw i of
// a key is splitmix64(key ^ i). A draw is therefore a pure function of
// (seed, site, coordinates, index): there is no stream state to drift, any
// subrange can be drawn on its own and in any order, and any number of
// threads produce the same bits. The transforms below turn 64 draw bits into
// uniforms, normals (Box–Muller), Bernoulli trials and bounded integers;
// DESIGN.md "Randomness" lists the key layout of every site.
#pragma once

#include <cstdint>
#include <span>

namespace swcaffe::base {

/// The splitmix64 finaliser (Steele, Lea and Flood, OOPSLA'14).
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Site tags of the streams drawn through this header. fault::Site, the
/// serving arrivals and the sched workload keep their tags beside their
/// draws; DESIGN.md lists all of them.
enum class Site : std::uint64_t {
  kCursor = 0x63757273,   // 'curs': base::Rng cursors
  kFiller = 0x66696c6c,   // 'fill': initial weights
  kDropout = 0x64726f70,  // 'drop': dropout masks
  kData = 0x64617461,     // 'data': SyntheticDataLayer batches
  kImage = 0x696d6167,    // 'imag': io::SyntheticImageNet samples
  kSampler = 0x73616d70,  // 'samp': io::Sampler indices
  kAugment = 0x61756720,  // 'aug ': io::Prefetcher crops and flips
};

/// A node of the keyed chain: a stream of 64-bit draws indexed by a counter.
class Key {
 public:
  constexpr Key(std::uint64_t seed, std::uint64_t site)
      : h_(splitmix64(seed ^ site)) {}
  constexpr Key(std::uint64_t seed, Site site)
      : Key(seed, static_cast<std::uint64_t>(site)) {}

  /// The child key at coordinate `c` (layer, replica, iteration, ...).
  constexpr Key then(std::uint64_t c) const { return from_bits(bits(c)); }

  /// Draw `i` of this key's stream.
  constexpr std::uint64_t bits(std::uint64_t i) const {
    return splitmix64(h_ ^ i);
  }

  /// A key whose chain value is `h` (a draw of another stream).
  static constexpr Key from_bits(std::uint64_t h) {
    Key k(0, std::uint64_t{0});
    k.h_ = h;
    return k;
  }

 private:
  std::uint64_t h_;
};

// --- Transforms of one 64-bit draw -------------------------------------------

/// Uniform double in [0, 1) from the top 53 bits.
constexpr double unit_double(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Uniform float in [lo, hi) from the top 24 bits (lo when lo == hi).
float uniform_float(std::uint64_t bits, float lo, float hi);

/// Uniform integer in [lo, hi] inclusive: lo + bits mod (hi - lo + 1). The
/// modulo bias is below (hi - lo + 1) / 2^64.
constexpr std::int64_t uniform_int(std::uint64_t bits, std::int64_t lo,
                                   std::int64_t hi) {
  const std::uint64_t n =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  const std::uint64_t off = n == 0 ? bits : bits % n;  // n == 0: full range
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + off);
}

/// True with probability `p`.
constexpr bool bernoulli(std::uint64_t bits, double p) {
  return unit_double(bits) < p;
}

/// Box–Muller: the two standard normals of one draw. The top 24 bits give
/// the radius (|z| <= sqrt(-2 ln 2^-24) = 5.77), the low 32 bits the angle.
/// Normal element 2j of a stream is pair j's first value, 2j+1 its second.
/// Computed in float with IEEE +, -, *, / and sqrt only (no libm), so every
/// platform that rounds those the same way draws the same bits.
struct NormalPair {
  float first;
  float second;
};
NormalPair normal_pair(std::uint64_t bits);

// --- Stream fills ------------------------------------------------------------
// Element i of `out` is element first + i of the key's stream, so a fill of
// any subrange equals the same slice of a fill of the whole.

/// uniform_float(key.bits(e), lo, hi) for element e.
void fill_uniform(Key key, std::uint64_t first, std::span<float> out,
                  float lo, float hi);

/// mean + stddev * (normal element e) for element e.
void fill_normal(Key key, std::uint64_t first, std::span<float> out,
                 float mean, float stddev);

/// Sequential cursor over a key: draw n of Rng(seed) is
/// Key(seed, Site::kCursor).bits(n). For tests, examples and bench inputs
/// that draw one value after another; each call consumes one draw.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : key_(seed, Site::kCursor) {}

  /// The next raw 64-bit draw.
  std::uint64_t next() { return key_.bits(index_++); }

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) { return uniform_float(next(), lo, hi); }

  /// Gaussian float: the first normal of the next draw's pair.
  float gaussian(float mean, float stddev);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return base::uniform_int(next(), lo, hi);
  }

  /// Bernoulli trial with probability `p` of returning true.
  bool bernoulli(double p) { return base::bernoulli(next(), p); }

  /// A key for one pure fill, taken from the next draw.
  Key split() { return Key::from_bits(next()); }

 private:
  Key key_;
  std::uint64_t index_ = 0;
};

}  // namespace swcaffe::base
