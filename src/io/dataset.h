// Synthetic ImageNet stand-in (see DESIGN.md substitutions): deterministic,
// label-conditioned samples generated by index, so any rank can materialize
// any sample without shared storage — while the disk model accounts the I/O
// a real deployment would pay.
#pragma once

#include <cstdint>
#include <vector>

#include "base/rng.h"

namespace swcaffe::io {

struct DatasetSpec {
  std::int64_t num_samples = 1281167;  ///< ImageNet-1k train size
  int classes = 1000;
  int channels = 3;
  int height = 224;
  int width = 224;
  std::uint64_t seed = 0x1337;
  // --- Training-time augmentation (Caffe data_param semantics) -------------
  bool mirror = false;  ///< random horizontal flip
  int crop = 0;         ///< random crop to crop x crop (0 disables)

  int out_height() const { return crop > 0 ? crop : height; }
  int out_width() const { return crop > 0 ? crop : width; }

  std::int64_t sample_bytes() const {
    return static_cast<std::int64_t>(channels) * height * width * 4;
  }
};

/// Deterministic synthetic dataset: sample(i) always returns the same
/// (image, label) pair for a given spec.
class SyntheticImageNet {
 public:
  explicit SyntheticImageNet(const DatasetSpec& spec) : spec_(spec) {}

  const DatasetSpec& spec() const { return spec_; }

  int label_of(std::int64_t index) const;

  /// Fills `out` (channels*height*width floats) with sample `index`'s image.
  void fill_image(std::int64_t index, std::vector<float>& out) const;

 private:
  DatasetSpec spec_;
};

/// Uniform random sampler over the dataset (the paper's per-iteration
/// "random sampling" prefetch, Sec. V-B): draw n is a pure function of
/// (seed, rank, n).
class Sampler {
 public:
  Sampler(std::int64_t num_samples, std::uint64_t seed, int rank);
  std::int64_t next();

 private:
  std::int64_t num_samples_;
  base::Key key_;
  std::uint64_t draws_ = 0;
};

}  // namespace swcaffe::io
