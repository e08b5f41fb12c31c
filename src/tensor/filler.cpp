#include "tensor/filler.h"

#include <algorithm>
#include <cmath>

#include "base/log.h"

namespace swcaffe::tensor {

FillerSpec FillerSpec::constant(float v) {
  FillerSpec s;
  s.type = FillerType::kConstant;
  s.value = v;
  return s;
}

FillerSpec FillerSpec::gaussian(float mean, float stddev) {
  FillerSpec s;
  s.type = FillerType::kGaussian;
  s.mean = mean;
  s.stddev = stddev;
  return s;
}

FillerSpec FillerSpec::uniform(float lo, float hi) {
  FillerSpec s;
  s.type = FillerType::kUniform;
  s.min = lo;
  s.max = hi;
  return s;
}

FillerSpec FillerSpec::xavier() {
  FillerSpec s;
  s.type = FillerType::kXavier;
  return s;
}

FillerSpec FillerSpec::msra() {
  FillerSpec s;
  s.type = FillerType::kMsra;
  return s;
}

void fill_range(const FillerSpec& spec, const std::vector<int>& shape,
                base::Key key, std::uint64_t first, std::span<float> out) {
  std::size_t count = 1;
  for (const int d : shape) count *= static_cast<std::size_t>(d);
  SWC_CHECK_LE(first + out.size(), count);
  switch (spec.type) {
    case FillerType::kConstant:
      std::fill(out.begin(), out.end(), spec.value);
      break;
    case FillerType::kUniform:
      base::fill_uniform(key, first, out, spec.min, spec.max);
      break;
    case FillerType::kGaussian:
      base::fill_normal(key, first, out, spec.mean, spec.stddev);
      break;
    case FillerType::kXavier: {
      SWC_CHECK_GE(shape.size(), 2u);
      const double fan_in = static_cast<double>(count) / shape[0];
      const double fan_out = static_cast<double>(count) / shape[1];
      const float scale =
          static_cast<float>(std::sqrt(6.0 / (fan_in + fan_out)));
      base::fill_uniform(key, first, out, -scale, scale);
      break;
    }
    case FillerType::kMsra: {
      SWC_CHECK_GE(shape.size(), 2u);
      const double fan_in = static_cast<double>(count) / shape[0];
      const float stddev = static_cast<float>(std::sqrt(2.0 / fan_in));
      base::fill_normal(key, first, out, 0.0f, stddev);
      break;
    }
  }
}

void fill(Tensor& t, const FillerSpec& spec, base::Rng& rng) {
  fill_range(spec, t.shape(), rng.split(), 0, t.data());
}

}  // namespace swcaffe::tensor
