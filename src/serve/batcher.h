// swserve dynamic batcher + SLO admission control.
//
// A discrete-event simulation of one inference server fed by an open-loop
// arrival stream, run on the swsim engine (sim::Engine): arrivals post as
// events on a client actor, the queue's launch deadline is a cancellable
// timer on the server actor, and the engine's documented (time, actor, seq)
// order replaces the old hand-merged two-source loop. Requests queue FIFO;
// a batch launches when `max_batch` requests are waiting or when the oldest
// has waited `max_delay_s`, whichever comes first — the classic
// latency/throughput knob pair. The server serves one batch at a time on an
// exclusive sim resource (the same busy-interval machinery the overlap
// scheduler uses for the network link), so batch k+1 starts at max(its
// formation time, batch k's finish).
//
// Admission control rejects a request at arrival when a *conservative upper
// bound* on its completion time would miss the SLO:
//
//   predicted = max(server_busy_until, t + max_delay)
//             + (batches_ahead + 1) * f(max_batch)
//
// where f is the engine's priced forward time and batches_ahead =
// floor(queue_depth / max_batch). Every term is a worst case (each batch
// ahead launches by its own oldest + max_delay <= t + max_delay and takes at
// most f(max_batch); the request's own batch may fill to max_batch after it
// joins), so an admitted request can never finish later than predicted —
// which is what makes "admitted p99 <= SLO" a theorem the tests assert, not
// a tendency.
//
// Everything runs on simulated time and is pure in (engine, arrivals,
// options): same inputs, bit-identical ServeResult.
#pragma once

#include <vector>

#include "serve/engine.h"
#include "serve/request.h"
#include "serve/stats.h"
#include "trace/tracer.h"

namespace swcaffe::serve {

struct BatcherOptions {
  int max_batch = 8;          ///< largest batch formed (<= engine max_batch)
  double max_delay_s = 0.002; ///< longest the oldest request waits for peers
};

struct AdmissionOptions {
  bool enabled = true;
  double slo_s = 0.050;  ///< completion deadline, measured from arrival
};

struct ServeOptions {
  BatcherOptions batcher;
  AdmissionOptions admission;
  /// Optional trace sink. Uses three tracks: 0 server ("serve.forward"
  /// spans), 1 requests ("serve.queue" async spans, "serve.reject"
  /// instants, queue-depth counter), 2 batches ("serve.batch" formation
  /// async spans).
  trace::Tracer* tracer = nullptr;
};

struct ServeResult {
  std::vector<RequestRecord> requests;  ///< one per arrival, admitted or not
  std::vector<BatchRecord> batches;

  int offered = 0;   ///< arrivals presented to admission
  int admitted = 0;
  int rejected = 0;
  double rejection_rate = 0.0;    ///< rejected / offered
  double makespan_s = 0.0;        ///< last batch finish (0 when idle)
  double throughput_rps = 0.0;    ///< admitted completions / makespan
  double utilization = 0.0;       ///< server busy seconds / makespan
  double mean_batch_size = 0.0;
  LatencyStats latency;           ///< admitted requests, arrival -> finish
};

/// Runs the server over one arrival schedule (strictly increasing times, as
/// produced by generate_arrivals). Pure in its inputs — bit-identical
/// results across runs, which BENCH_serving.json's determinism gate checks
/// byte for byte.
ServeResult simulate_serving(const InferenceEngine& engine,
                             const std::vector<double>& arrivals,
                             const ServeOptions& options = {});

}  // namespace swcaffe::serve
