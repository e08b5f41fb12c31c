// Max / average pooling with Caffe's ceil-mode output sizing.
#include <algorithm>
#include <cmath>
#include <limits>

#include "base/log.h"
#include "core/layers.h"

namespace swcaffe::core {

void PoolLayer::setup(const std::vector<tensor::Tensor*>& bottoms,
                      const std::vector<tensor::Tensor*>& tops) {
  SWC_CHECK_EQ(bottoms.size(), 1u);
  const tensor::Tensor& in = *bottoms[0];
  SWC_CHECK_EQ(in.num_axes(), 4);
  geom_ = PoolGeom{};
  geom_.batch = in.num();
  geom_.channels = in.channels();
  geom_.in_h = in.height();
  geom_.in_w = in.width();
  geom_.global = spec_.global_pool;
  if (geom_.global) {
    geom_.kernel = in.height();
    geom_.stride = 1;
    geom_.pad = 0;
  } else {
    geom_.kernel = spec_.pool_kernel;
    geom_.stride = spec_.pool_stride;
    geom_.pad = spec_.pool_pad;
  }
  tops[0]->reshape({geom_.batch, geom_.channels, geom_.out_h(), geom_.out_w()});
  max_idx_.assign(tops[0]->count(), -1);

  desc_ = LayerDesc{};
  desc_.name = spec_.name;
  desc_.kind = LayerKind::kPool;
  desc_.pool = geom_;
  desc_.input_count = static_cast<std::int64_t>(in.count());
  desc_.output_count = static_cast<std::int64_t>(tops[0]->count());
}

void PoolLayer::forward(const std::vector<tensor::Tensor*>& bottoms,
                        const std::vector<tensor::Tensor*>& tops) {
  const tensor::Tensor& in = *bottoms[0];
  tensor::Tensor& out = *tops[0];
  const int oh = out.height(), ow = out.width();
  const float* x = in.data_ptr();
  float* y = out.mutable_data_ptr();
  const bool is_max = spec_.pool_method == PoolMethod::kMax;
  max_idx_.resize(out.count());
  std::size_t oi = 0;
  for (int b = 0; b < geom_.batch; ++b) {
    for (int c = 0; c < geom_.channels; ++c) {
      const float* plane =
          x + (static_cast<std::size_t>(b) * geom_.channels + c) * geom_.in_h *
                  geom_.in_w;
      for (int py = 0; py < oh; ++py) {
        for (int px = 0; px < ow; ++px, ++oi) {
          const int y0 = std::max(py * geom_.stride - geom_.pad, 0);
          const int x0 = std::max(px * geom_.stride - geom_.pad, 0);
          const int y1 =
              std::min(py * geom_.stride - geom_.pad + geom_.kernel, geom_.in_h);
          const int x1 =
              std::min(px * geom_.stride - geom_.pad + geom_.kernel, geom_.in_w);
          if (is_max) {
            float best = -std::numeric_limits<float>::infinity();
            int best_idx = -1;
            for (int yy = y0; yy < y1; ++yy) {
              for (int xx = x0; xx < x1; ++xx) {
                const int idx = yy * geom_.in_w + xx;
                if (plane[idx] > best) {
                  best = plane[idx];
                  best_idx = idx;
                }
              }
            }
            y[oi] = best;
            max_idx_[oi] = best_idx;
          } else {
            float acc = 0.0f;
            for (int yy = y0; yy < y1; ++yy) {
              for (int xx = x0; xx < x1; ++xx) acc += plane[yy * geom_.in_w + xx];
            }
            y[oi] = acc / ((y1 - y0) * (x1 - x0));
          }
        }
      }
    }
  }
}

void PoolLayer::backward(const std::vector<tensor::Tensor*>& tops,
                         const std::vector<tensor::Tensor*>& bottoms,
                         const std::vector<bool>& prop_down) {
  if (prop_down.empty() || !prop_down[0]) return;
  const tensor::Tensor& out = *tops[0];
  auto td = out.diff();
  auto bd = bottoms[0]->diff();
  const int oh = out.height(), ow = out.width();
  const bool is_max = spec_.pool_method == PoolMethod::kMax;
  std::size_t oi = 0;
  for (int b = 0; b < geom_.batch; ++b) {
    for (int c = 0; c < geom_.channels; ++c) {
      const std::size_t plane_off =
          (static_cast<std::size_t>(b) * geom_.channels + c) * geom_.in_h *
          geom_.in_w;
      for (int py = 0; py < oh; ++py) {
        for (int px = 0; px < ow; ++px, ++oi) {
          if (is_max) {
            if (max_idx_[oi] >= 0) bd[plane_off + max_idx_[oi]] += td[oi];
          } else {
            const int y0 = std::max(py * geom_.stride - geom_.pad, 0);
            const int x0 = std::max(px * geom_.stride - geom_.pad, 0);
            const int y1 = std::min(
                py * geom_.stride - geom_.pad + geom_.kernel, geom_.in_h);
            const int x1 = std::min(
                px * geom_.stride - geom_.pad + geom_.kernel, geom_.in_w);
            const float g = td[oi] / ((y1 - y0) * (x1 - x0));
            for (int yy = y0; yy < y1; ++yy) {
              for (int xx = x0; xx < x1; ++xx) {
                bd[plane_off + yy * geom_.in_w + xx] += g;
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace swcaffe::core
