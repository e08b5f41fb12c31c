#include "io/prefetch.h"

#include <algorithm>

#include "base/log.h"

namespace swcaffe::io {

Prefetcher::Prefetcher(const DatasetSpec& dataset, const DiskParams& disk,
                       FileLayout layout, int batch, int rank, int num_procs,
                       std::size_t queue_depth)
    : data_(dataset),
      disk_(disk),
      layout_(layout),
      batch_(batch),
      num_procs_(num_procs),
      sampler_(dataset.num_samples, dataset.seed, rank),
      augment_key_(base::Key(dataset.seed, base::Site::kAugment)
                       .then(static_cast<std::uint64_t>(rank))),
      queue_depth_(queue_depth) {
  if (dataset.crop > 0) {
    SWC_CHECK_LE(dataset.crop, dataset.height);
    SWC_CHECK_LE(dataset.crop, dataset.width);
  }
  SWC_CHECK_GT(batch_, 0);
  SWC_CHECK_GT(queue_depth_, 0u);
  thread_ = std::thread(&Prefetcher::worker, this);
}

Prefetcher::~Prefetcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

Batch Prefetcher::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !queue_.empty(); });
  Batch b = std::move(queue_.front());
  queue_.pop_front();
  cv_.notify_all();
  return b;
}

void Prefetcher::augment(const std::vector<float>& image, std::uint64_t n,
                         float* dst) {
  const DatasetSpec& spec = data_.spec();
  const int oh = spec.out_height(), ow = spec.out_width();
  const base::Key key = augment_key_.then(n);
  const int y0 = spec.crop > 0 && spec.height > oh
                     ? static_cast<int>(base::uniform_int(key.bits(0), 0,
                                                          spec.height - oh))
                     : 0;
  const int x0 = spec.crop > 0 && spec.width > ow
                     ? static_cast<int>(base::uniform_int(key.bits(1), 0,
                                                          spec.width - ow))
                     : 0;
  const bool flip = spec.mirror && base::bernoulli(key.bits(2), 0.5);
  for (int c = 0; c < spec.channels; ++c) {
    const float* plane =
        image.data() + static_cast<std::size_t>(c) * spec.height * spec.width;
    float* out = dst + static_cast<std::size_t>(c) * oh * ow;
    for (int y = 0; y < oh; ++y) {
      const float* row =
          plane + static_cast<std::size_t>(y0 + y) * spec.width + x0;
      for (int x = 0; x < ow; ++x) {
        out[static_cast<std::size_t>(y) * ow + x] =
            flip ? row[ow - 1 - x] : row[x];
      }
    }
  }
}

void Prefetcher::worker() {
  const DatasetSpec& spec = data_.spec();
  const std::size_t img = static_cast<std::size_t>(spec.channels) *
                          spec.out_height() * spec.out_width();
  std::vector<float> image;
  std::uint64_t augmented = 0;
  while (true) {
    Batch b;
    b.images.resize(img * batch_);
    b.labels.resize(batch_);
    for (int i = 0; i < batch_; ++i) {
      const std::int64_t idx = sampler_.next();
      data_.fill_image(idx, image);
      augment(image, augmented++, b.images.data() + i * img);
      b.labels[i] = static_cast<float>(data_.label_of(idx));
    }
    // A with-replacement batch larger than the dataset necessarily repeats
    // samples; the disk serves each byte at most once per batch, so the
    // billed read is capped at the whole file.
    const std::int64_t file_bytes = spec.num_samples * spec.sample_bytes();
    const std::int64_t read_bytes = std::min(
        static_cast<std::int64_t>(batch_) * spec.sample_bytes(), file_bytes);
    b.simulated_read_s =
        read_time(disk_, layout_, num_procs_, read_bytes, file_bytes);

    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stop_ || queue_.size() < queue_depth_; });
    if (stop_) return;
    queue_.push_back(std::move(b));
    cv_.notify_all();
  }
}

}  // namespace swcaffe::io
