#include "hw/dma.h"

#include <algorithm>

#include "base/log.h"
#include "trace/tracer.h"

namespace swcaffe::hw {

namespace {

/// Records one charged transfer in the tracer attached to the cost model
/// (if any): a "hw.dma" span of the charged duration carrying the byte
/// counters, on the tracer's track clock (which equals the engine's local
/// elapsed clock when the tracer sees only this engine). Purely
/// observational — ledgers and times are computed first and are identical
/// with tracing off.
void trace_transfer(const CostModel& cost, const char* name, bool is_get,
                    std::size_t bytes, double seconds) {
  trace::Tracer* tracer = cost.tracer();
  if (!tracer) return;
  const int track = cost.trace_track();
  tracer->begin_span(track, name, "hw.dma");
  sim::TrafficCounters c;
  (is_get ? c.dma_get_bytes : c.dma_put_bytes) = bytes;
  tracer->charge(track, c);
  tracer->end_span(track, seconds);
}

}  // namespace

void DmaEngine::get(std::span<const double> src, std::span<double> dst,
                    int n_cpes) {
  SWC_CHECK_EQ(src.size(), dst.size());
  std::copy(src.begin(), src.end(), dst.begin());
  const std::size_t bytes = src.size() * sizeof(double);
  const std::size_t n = static_cast<std::size_t>(issues(bytes));
  const double seconds = degrade(cost_->dma_time(bytes, n_cpes)) * n;
  ledger_.dma_get_bytes += bytes * n;
  ledger_.elapsed_s += seconds;
  trace_transfer(*cost_, "dma.get", /*is_get=*/true, bytes * n, seconds);
}

void DmaEngine::put(std::span<const double> src, std::span<double> dst,
                    int n_cpes) {
  SWC_CHECK_EQ(src.size(), dst.size());
  std::copy(src.begin(), src.end(), dst.begin());
  const std::size_t bytes = src.size() * sizeof(double);
  const std::size_t n = static_cast<std::size_t>(issues(bytes));
  const double seconds = degrade(cost_->dma_time(bytes, n_cpes)) * n;
  ledger_.dma_put_bytes += bytes * n;
  ledger_.elapsed_s += seconds;
  trace_transfer(*cost_, "dma.put", /*is_get=*/false, bytes * n, seconds);
}

void DmaEngine::get_strided(std::span<const double> src,
                            std::size_t src_stride, std::span<double> dst,
                            std::size_t block_len, std::size_t blocks,
                            int n_cpes) {
  SWC_CHECK_GE(src_stride, block_len);
  SWC_CHECK_GE(dst.size(), block_len * blocks);
  SWC_CHECK_GE(src.size(), (blocks - 1) * src_stride + block_len);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::copy_n(src.data() + b * src_stride, block_len,
                dst.data() + b * block_len);
  }
  const std::size_t bytes = block_len * blocks * sizeof(double);
  const std::size_t n = static_cast<std::size_t>(issues(bytes));
  const double seconds =
      degrade(cost_->dma_strided_time(bytes, block_len * sizeof(double),
                                      n_cpes)) *
      n;
  ledger_.dma_get_bytes += bytes * n;
  ledger_.elapsed_s += seconds;
  trace_transfer(*cost_, "dma.get_strided", /*is_get=*/true, bytes * n,
                 seconds);
}

void DmaEngine::put_strided(std::span<const double> src, std::span<double> dst,
                            std::size_t dst_stride, std::size_t block_len,
                            std::size_t blocks, int n_cpes) {
  SWC_CHECK_GE(dst_stride, block_len);
  SWC_CHECK_GE(src.size(), block_len * blocks);
  SWC_CHECK_GE(dst.size(), (blocks - 1) * dst_stride + block_len);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::copy_n(src.data() + b * block_len, block_len,
                dst.data() + b * dst_stride);
  }
  const std::size_t bytes = block_len * blocks * sizeof(double);
  const std::size_t n = static_cast<std::size_t>(issues(bytes));
  const double seconds =
      degrade(cost_->dma_strided_time(bytes, block_len * sizeof(double),
                                      n_cpes)) *
      n;
  ledger_.dma_put_bytes += bytes * n;
  ledger_.elapsed_s += seconds;
  trace_transfer(*cost_, "dma.put_strided", /*is_get=*/false, bytes * n,
                 seconds);
}

}  // namespace swcaffe::hw
