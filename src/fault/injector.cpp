#include "fault/injector.h"

#include "base/rng.h"

namespace swcaffe::fault {

double FaultInjector::u01(Site site, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) const {
  return base::unit_double(
      base::Key(spec_.seed, static_cast<std::uint64_t>(site))
          .then(a)
          .then(b)
          .bits(c));
}

MessageFate FaultInjector::message_fate(std::int64_t iter, int round,
                                        int attempt) const {
  MessageFate fate;
  if (!spec_.network_enabled()) return fate;
  const auto i = static_cast<std::uint64_t>(iter);
  const auto r = static_cast<std::uint64_t>(round);
  const auto a = static_cast<std::uint64_t>(attempt);
  fate.dropped = u01(Site::kNetDrop, i, r, a) < spec_.drop_p;
  fate.duplicated = u01(Site::kNetDup, i, r, a) < spec_.dup_p;
  if (u01(Site::kNetDelay, i, r, a) < spec_.delay_p) {
    fate.delay_s = spec_.delay_s;
  }
  return fate;
}

int FaultInjector::dma_attempts(std::int64_t seq) const {
  // A transfer is re-issued while the transient-failure draw fires, capped
  // at 4 issues (beyond that a real machine raises a machine check, which
  // the crash site models).
  constexpr int kMaxIssues = 4;
  int attempts = 1;
  while (attempts < kMaxIssues &&
         u01(Site::kDma, static_cast<std::uint64_t>(seq),
             static_cast<std::uint64_t>(attempts), 0) < spec_.dma_fail_p) {
    ++attempts;
  }
  return attempts;
}

double FaultInjector::straggler_factor(int node) const {
  double factor = 1.0;
  for (const StragglerSpec& s : spec_.stragglers) {
    if (s.node == node) factor *= s.factor;
  }
  return factor;
}

bool FaultInjector::crashes_at(int node, std::int64_t iter) const {
  return spec_.crash_enabled() && node == spec_.crash_node &&
         iter == spec_.crash_iter;
}

void FaultInjector::trace_inject(const char* kind) const {
  if (tracer_ != nullptr) tracer_->instant(trace_track_, "fault.inject", kind);
}

void FaultInjector::trace_retry(const char* kind) const {
  if (tracer_ != nullptr) tracer_->instant(trace_track_, "fault.retry", kind);
}

void FaultInjector::trace_restart() const {
  if (tracer_ != nullptr) {
    tracer_->instant(trace_track_, "fault.restart", "fault.crash");
  }
}

int DmaFaults::attempts(std::size_t bytes) {
  (void)bytes;
  const std::int64_t seq = seq_++;
  injector_->stats().dma_transfers += 1;
  const int n = injector_->dma_attempts(seq);
  if (n > 1) {
    injector_->stats().dma_retries += n - 1;
    injector_->trace_inject("fault.dma");
    for (int i = 1; i < n; ++i) injector_->trace_retry("fault.dma");
  }
  return n;
}

}  // namespace swcaffe::fault
