// Weight initializers matching the Caffe filler family the swCaffe model zoo
// needs (constant, uniform, gaussian, Xavier, MSRA).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/rng.h"
#include "tensor/tensor.h"

namespace swcaffe::tensor {

enum class FillerType { kConstant, kUniform, kGaussian, kXavier, kMsra };

struct FillerSpec {
  FillerType type = FillerType::kXavier;
  float value = 0.0f;   ///< constant
  float min = -1.0f;    ///< uniform
  float max = 1.0f;     ///< uniform
  float mean = 0.0f;    ///< gaussian
  float stddev = 0.01f; ///< gaussian

  static FillerSpec constant(float v);
  static FillerSpec gaussian(float mean, float stddev);
  static FillerSpec uniform(float lo, float hi);
  static FillerSpec xavier();
  static FillerSpec msra();
};

/// Writes elements [first, first + out.size()) of the fill of a tensor of
/// `shape`. Element e is a pure function of (key, e) — uniform fillers use
/// draw e of the key's stream, gaussian ones normal element e — so any
/// subrange can be drawn on its own, on any thread. For Xavier/MSRA the
/// fan-in/out are derived from the shape the way Caffe does:
/// fan_in = count / dim(0), fan_out = count / dim(1) (>= 2 axes).
void fill_range(const FillerSpec& spec, const std::vector<int>& shape,
                base::Key key, std::uint64_t first, std::span<float> out);

/// Fills all of `t.data()` for sequential callers (tests, examples): one
/// draw of `rng` keys the fill_range over [0, count).
void fill(Tensor& t, const FillerSpec& spec, base::Rng& rng);

}  // namespace swcaffe::tensor
