// Structured tracing over SIMULATED time.
//
// The simulator has no global clock: every component (DmaEngine, RlcFabric,
// the analytic layer estimators, the all-reduce cost model) computes its own
// durations. The Tracer stitches those durations into per-track timelines:
// instrumentation sites open a span, advance the track's clock by the
// simulated seconds they charge, and close the span. Spans nest (iteration →
// layer → {im2col DMA, mesh GEMM, RLC broadcast}) and carry a
// sim::TrafficCounters snapshot, so the exported trace shows both where
// simulated time goes and what traffic was moved there.
//
// The Tracer is a clock-and-nesting front end over one sim::EventLog: every
// span, counter sample, instant and async span it is given is recorded
// there once, as a sim::Event (a track is the event's actor). The Chrome
// exporter, the aggregate Report and check::timeline_from_events all read
// that log.
//
// A null tracer costs nothing: every instrumentation site is guarded by a
// single pointer test, and with the pointer unset no code path that affects
// simulated numbers is touched — tracing on or off, the cost-model output is
// bit-identical (asserted in tests/trace_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/event.h"

namespace swcaffe::trace {

/// A traced span is a sim::Event of kind kSpan; parent links index into
/// Tracer::spans().
using Span = sim::Event;
using sim::kNoParent;

// Canonical counter-sample names (chrome "C" events) emitted for every
// traced all-reduce (topo::trace_allreduce); the report groups by these.
inline constexpr const char* kCounterAlphaTerms = "allreduce.alpha_terms";
inline constexpr const char* kCounterBeta1Bytes = "allreduce.beta1_bytes";
inline constexpr const char* kCounterBeta2Bytes = "allreduce.beta2_bytes";
inline constexpr const char* kCounterGammaBytes = "allreduce.gamma_bytes";
inline constexpr const char* kCounterLoss = "train.loss";

class Tracer {
 public:
  // --- Clocks -----------------------------------------------------------------
  /// Current simulated time on `track` (0.0 until first touched).
  double now(int track) const;
  /// Jumps the track clock (e.g. aligning a CG track to the node track).
  /// Must not rewind past the begin time of an open span on the track.
  void set_clock(int track, double t_s);
  /// Advances the track clock by `dt_s` simulated seconds (dt_s >= 0).
  void advance(int track, double dt_s);

  // --- Spans ------------------------------------------------------------------
  /// Opens a span at now(track); returns its index in spans().
  std::int64_t begin_span(int track, std::string name, std::string category);
  /// Closes the innermost open span on `track` at now(track). The closed
  /// span's traffic folds into its parent (counters are inclusive).
  void end_span(int track);
  /// Convenience: advance(track, dt_s) then end_span(track).
  void end_span(int track, double dt_s);
  /// Adds traffic to the innermost open span on `track` (no-op when no span
  /// is open — hw engines may run outside any span).
  void charge(int track, const sim::TrafficCounters& c);

  // --- Point events -----------------------------------------------------------
  void counter(int track, std::string name, double value);
  void instant(int track, std::string name, std::string category);

  // --- Async spans ------------------------------------------------------------
  /// Records a possibly-overlapping interval on `track` with explicit begin/
  /// end times (begin_s <= end_s). Unlike begin_span/end_span these are not
  /// stack-disciplined and do not touch the track clock — the natural shape
  /// for per-request serving timelines where many requests wait in a queue
  /// at once. Returns the span's id (0, 1, ... in record order), which ties
  /// the exported b/e pair together.
  std::int64_t async_span(int track, std::string name, std::string category,
                          double begin_s, double end_s);

  // --- Track metadata ---------------------------------------------------------
  /// Names the track in the exported trace ("node", "cg0", ...).
  void set_track_name(int track, std::string name);
  const std::map<int, std::string>& track_names() const { return track_names_; }

  // --- Results ----------------------------------------------------------------
  /// Every recorded event (spans, counters, instants, async spans) in record
  /// order; filter by sim::Event::kind. Parent links index into this log.
  const sim::EventLog& log() const { return log_; }
  /// log().events(), for callers that walk spans by parent index. A span
  /// still open has end_s == begin_s; exporters require a balanced trace
  /// (open_spans() == 0).
  const std::vector<Span>& spans() const { return log_.events(); }
  /// Number of spans currently open across all tracks (0 after a balanced
  /// instrumentation pass).
  std::size_t open_spans() const;
  /// Drops all recorded events and resets every track clock to zero.
  void clear();

 private:
  struct Track {
    double clock = 0.0;
    std::vector<std::int64_t> open;  ///< indices into log_, outermost first
  };

  Track& track(int id);
  const Track* find_track(int id) const;

  std::map<int, Track> tracks_;
  std::map<int, std::string> track_names_;
  sim::EventLog log_;
  std::int64_t async_spans_ = 0;  ///< async spans recorded (the next id)
};

/// RAII span guard that is a no-op when `tracer` is null.
///
///   trace::SpanScope s(cost.tracer(), cost.trace_track(), "im2col", "kernel");
///   ... advance the clock ...
/// closes the span on destruction.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, int track, const char* name, const char* category)
      : tracer_(tracer), track_(track) {
    if (tracer_) tracer_->begin_span(track_, name, category);
  }
  ~SpanScope() {
    if (tracer_) tracer_->end_span(track_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int track_;
};

}  // namespace swcaffe::trace
