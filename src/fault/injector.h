// swfault: the deterministic fault injector.
//
// Every injection decision is a pure function of (seed, site, coordinates)
// via the keyed splitmix64 chain of base/rng.h — there is no internal RNG
// stream to drift.
// That gives the determinism guarantee the test harness builds on: the same
// FaultSpec produces the identical fault schedule whether the run is traced
// or not, restarted from a checkpoint or not, and regardless of how many
// times any site is queried. Faults and recovery actions are surfaced as
// trace instants ("fault.inject", "fault.retry", "fault.restart") so
// resilience behaviour is a checkable trace property.
#pragma once

#include <cstdint>

#include "fault/fault_spec.h"
#include "hw/dma.h"
#include "trace/tracer.h"

namespace swcaffe::fault {

/// Site identifiers mixed into the hash; one per injection point so sites
/// draw from independent schedules.
enum class Site : std::uint64_t {
  kNetDrop = 0x6e657444,   // 'netD'
  kNetDup = 0x6e657455,    // 'netU'
  kNetDelay = 0x6e65744c,  // 'netL'
  kDma = 0x646d6146,       // 'dmaF'
};

/// What happens to one message round of a collective.
struct MessageFate {
  bool dropped = false;     ///< lost in flight; sender must retry
  bool duplicated = false;  ///< delivered twice (receiver dedups; wire paid)
  double delay_s = 0.0;     ///< extra in-flight latency
};

/// Running totals of injected faults and recovery actions (reported by the
/// CLI and asserted on by tests).
struct FaultStats {
  std::int64_t messages = 0;       ///< message rounds examined
  std::int64_t drops = 0;
  std::int64_t duplicates = 0;
  std::int64_t delays = 0;
  std::int64_t retries = 0;        ///< network re-sends after a drop
  std::int64_t escalations = 0;    ///< sends that exhausted max_attempts
  std::int64_t dma_transfers = 0;
  std::int64_t dma_retries = 0;
  std::int64_t straggler_iters = 0;  ///< node-iterations past the deadline
  std::int64_t crashes = 0;
  std::int64_t restarts = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec) : spec_(spec) {}

  const FaultSpec& spec() const { return spec_; }
  bool enabled() const { return spec_.enabled(); }

  /// Fate of message round `round`, attempt `attempt`, of iteration `iter`'s
  /// collective. Pure in its arguments; retries (attempt > 0) draw fresh
  /// drop decisions so a retried send can succeed.
  MessageFate message_fate(std::int64_t iter, int round, int attempt) const;

  /// Number of issues (>= 1) DMA transfer number `seq` needs; capped so a
  /// pathological spec cannot loop. Transient failures re-issue the full
  /// transfer.
  int dma_attempts(std::int64_t seq) const;
  double dma_slowdown() const { return spec_.dma_degrade; }

  /// Compute-time multiplier of `node` (1.0 unless listed as a straggler).
  double straggler_factor(int node) const;

  /// True when `node` crashes upon reaching iteration `iter`.
  bool crashes_at(int node, std::int64_t iter) const;

  // --- Observability ---------------------------------------------------------
  void set_tracer(trace::Tracer* tracer, int track) {
    tracer_ = tracer;
    trace_track_ = track;
  }
  trace::Tracer* tracer() const { return tracer_; }
  int trace_track() const { return trace_track_; }

  /// Emits a "fault.inject" / "fault.retry" / "fault.restart" instant with
  /// `kind` as the category (no-op without a tracer).
  void trace_inject(const char* kind) const;
  void trace_retry(const char* kind) const;
  void trace_restart() const;

  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

 private:
  /// Uniform double in [0, 1): splitmix64 over (seed, site, a, b, c).
  double u01(Site site, std::uint64_t a, std::uint64_t b,
             std::uint64_t c) const;

  FaultSpec spec_;
  trace::Tracer* tracer_ = nullptr;
  int trace_track_ = 0;
  FaultStats stats_;
};

/// Adapter plugging the injector into hw::DmaEngine: transient failures
/// re-issue transfers, degradation slows them. Each engine keeps its own
/// transfer sequence number, so per-engine schedules are deterministic.
class DmaFaults : public hw::DmaFaultHook {
 public:
  explicit DmaFaults(FaultInjector& injector) : injector_(&injector) {}

  int attempts(std::size_t bytes) override;
  double slowdown() const override { return injector_->dma_slowdown(); }

 private:
  FaultInjector* injector_;
  std::int64_t seq_ = 0;
};

}  // namespace swcaffe::fault
