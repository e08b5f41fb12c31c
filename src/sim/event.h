// swsim event vocabulary.
//
// One record type describes every timed thing the simulator does: a charge
// on a hardware engine (DMA transfer, RLC message), a span of work on an
// actor (a compute pass, a collective on the network link, a traced layer),
// an instant, a counter sample, or an async (overlap-tolerant) interval.
// The engine (sim/engine.h), trace::Tracer (which records every span,
// counter, instant and async span into one EventLog) and the swsched
// timeline analyzer (check::timeline_from_events) all speak this one
// vocabulary, so a timeline or a Chrome trace is read straight from
// whatever ran instead of being re-derived per subsystem.
//
// Events are totally ordered by (begin_s, actor, seq) — documented here once
// and pinned by tests: earlier simulated time first; at equal times the
// lower actor id; at equal (time, actor) the earlier-recorded event. `seq`
// is assigned by the log/engine in record order, so the order is total and
// reproducible across runs and thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/log.h"

namespace swcaffe::sim {

/// Byte/flop counters carried by an event (inclusive of children for traced
/// spans: a child span's traffic folds into its parent when the child
/// closes). Mirrors hw::TrafficLedger's byte/flop bookkeeping and adds the
/// network-level volume the topo collectives move.
struct TrafficCounters {
  std::size_t dma_get_bytes = 0;  ///< main memory -> LDM
  std::size_t dma_put_bytes = 0;  ///< LDM -> main memory
  std::size_t rlc_bytes = 0;      ///< register-level communication volume
  std::size_t mpe_bytes = 0;      ///< memory copies through the MPE
  std::size_t net_bytes = 0;      ///< inter-node (MPI) volume per node
  double flops = 0.0;             ///< arithmetic executed on the CPE cluster

  void add(const TrafficCounters& o) {
    dma_get_bytes += o.dma_get_bytes;
    dma_put_bytes += o.dma_put_bytes;
    rlc_bytes += o.rlc_bytes;
    mpe_bytes += o.mpe_bytes;
    net_bytes += o.net_bytes;
    flops += o.flops;
  }
  std::size_t dma_bytes() const { return dma_get_bytes + dma_put_bytes; }
  bool empty() const {
    return dma_get_bytes == 0 && dma_put_bytes == 0 && rlc_bytes == 0 &&
           mpe_bytes == 0 && net_bytes == 0 && flops == 0.0;
  }
};

/// Index value meaning "no parent span".
inline constexpr std::int64_t kNoParent = -1;

enum class EventKind : std::uint8_t {
  kSpan,     ///< work occupying [begin_s, end_s] on its actor
  kCharge,   ///< a priced charge on a resource (span with a byte payload)
  kInstant,  ///< a point event (begin_s == end_s)
  kCounter,  ///< a counter sample: `value` of `name` at begin_s
  kAsync,    ///< an interval that may overlap others on its actor
};

struct Event {
  double begin_s = 0.0;  ///< start of the interval
  double end_s = 0.0;    ///< end (== begin_s for instants and counters)
  int actor = 0;         ///< sequential lane (the tracer's track)
  int resource = -1;     ///< exclusive resource occupied, -1 = none
  int depth = 0;         ///< span nesting depth on its actor, 0 = top level
  EventKind kind = EventKind::kSpan;
  std::int64_t parent = kNoParent;  ///< log index of the enclosing span
  std::int64_t bytes = 0;   ///< payload moved/charged by the event
  std::uint64_t seq = 0;    ///< record order — the final tie-break
  double value = 0.0;       ///< counter sample value
  TrafficCounters traffic;  ///< traced spans: inclusive of closed children
  std::string name;
  std::string category;

  double duration_s() const { return end_s - begin_s; }
};

/// Total order of the shared vocabulary: (begin_s, actor, seq).
inline bool event_before(const Event& a, const Event& b) {
  if (a.begin_s != b.begin_s) return a.begin_s < b.begin_s;
  if (a.actor != b.actor) return a.actor < b.actor;
  return a.seq < b.seq;
}

/// Append-only log of recorded events. The event engine and trace::Tracer
/// write here; seq numbers are assigned in record order.
class EventLog {
 public:
  /// Records one event; fills in its seq and returns its index.
  std::size_t record(Event e) {
    SWC_CHECK_GE(e.end_s, e.begin_s);
    e.seq = next_seq_++;
    events_.push_back(std::move(e));
    return events_.size() - 1;
  }

  /// Convenience: record a charge span of `seconds` starting at `start_s`.
  void charge(int actor, double start_s, double seconds, std::int64_t bytes,
              std::string name) {
    Event e;
    e.begin_s = start_s;
    e.end_s = start_s + seconds;
    e.actor = actor;
    e.bytes = bytes;
    e.kind = EventKind::kCharge;
    e.name = std::move(name);
    record(std::move(e));
  }

  const std::vector<Event>& events() const { return events_; }
  /// Mutable access for a recorder that closes an interval it opened
  /// earlier (trace::Tracer's nested spans).
  Event& at(std::size_t index) { return events_[index]; }
  bool empty() const { return events_.empty(); }
  void clear() {
    events_.clear();
    next_seq_ = 0;
  }

 private:
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace swcaffe::sim
