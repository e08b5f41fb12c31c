#include "io/dataset.h"

#include <cmath>

#include "base/log.h"

namespace swcaffe::io {

int SyntheticImageNet::label_of(std::int64_t index) const {
  SWC_CHECK_GE(index, 0);
  SWC_CHECK_LT(index, spec_.num_samples);
  // Stable hash -> label so labels are balanced but not trivially periodic.
  std::uint64_t h = static_cast<std::uint64_t>(index) * 0x9E3779B97F4A7C15ull +
                    spec_.seed;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return static_cast<int>(h % spec_.classes);
}

void SyntheticImageNet::fill_image(std::int64_t index,
                                   std::vector<float>& out) const {
  const int label = label_of(index);
  const std::size_t n =
      static_cast<std::size_t>(spec_.channels) * spec_.height * spec_.width;
  out.resize(n);
  // Class-dependent low-frequency pattern plus noise: enough structure for a
  // model to fit, statistically ImageNet-like in mean/variance. The noise is
  // the normal stream of (seed, index).
  base::fill_normal(
      base::Key(spec_.seed, base::Site::kImage)
          .then(static_cast<std::uint64_t>(index)),
      0, out, 0.0f, 0.3f);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] +=
        0.5f * std::sin(0.01f * static_cast<float>(i) * ((label % 17) + 1));
  }
}

Sampler::Sampler(std::int64_t num_samples, std::uint64_t seed, int rank)
    : num_samples_(num_samples),
      key_(base::Key(seed, base::Site::kSampler)
               .then(static_cast<std::uint64_t>(rank))) {
  SWC_CHECK_GT(num_samples_, 0);
}

std::int64_t Sampler::next() {
  return base::uniform_int(key_.bits(draws_++), 0, num_samples_ - 1);
}

}  // namespace swcaffe::io
