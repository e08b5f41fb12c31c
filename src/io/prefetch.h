// Mini-batch prefetcher: a real I/O thread that materializes the next
// mini-batch while the current one trains (paper Sec. V-B: "each worker of
// the parallel DNN training task uses an I/O thread to prefetch one
// mini-batch via random sampling prior to each iteration"). The simulated
// read time of each batch (disk model) is reported so harnesses can overlap
// it against compute time.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "io/dataset.h"
#include "io/disk_model.h"

namespace swcaffe::io {

struct Batch {
  std::vector<float> images;  ///< batch * channels * height * width
  std::vector<float> labels;  ///< batch
  double simulated_read_s = 0.0;
};

class Prefetcher {
 public:
  /// `num_procs` is the total reader count sharing the filesystem (used by
  /// the contention model); `rank` seeds this worker's sampler.
  Prefetcher(const DatasetSpec& dataset, const DiskParams& disk,
             FileLayout layout, int batch, int rank = 0, int num_procs = 1,
             std::size_t queue_depth = 2);
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Blocks until the next batch is ready.
  Batch pop();

 private:
  void worker();

  /// Applies random crop + mirror per the dataset spec; writes
  /// channels * out_height * out_width floats to `dst`. The crop and flip
  /// of the n-th augmented image are pure in (seed, rank, n).
  void augment(const std::vector<float>& image, std::uint64_t n, float* dst);

  SyntheticImageNet data_;
  DiskParams disk_;
  FileLayout layout_;
  int batch_;
  int num_procs_;
  Sampler sampler_;
  base::Key augment_key_;
  std::size_t queue_depth_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Batch> queue_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace swcaffe::io
