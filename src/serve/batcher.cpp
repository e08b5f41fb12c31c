#include "serve/batcher.h"

#include <deque>
#include <string>

#include "base/log.h"
#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "sim/engine.h"

namespace swcaffe::serve {

namespace {

// Trace tracks of a served run (ServeOptions::tracer).
constexpr int kServerTrack = 0;
constexpr int kRequestTrack = 1;
constexpr int kBatchTrack = 2;

/// Handler state shared by the arrival and launch-deadline events.
struct Server {
  Server(const InferenceEngine& e, const ServeOptions& o, sim::Engine* s)
      : engine(e), opts(o), sim(s) {}

  const InferenceEngine& engine;
  const ServeOptions& opts;
  sim::Engine* sim;
  int server_actor = 0;  ///< actor 0: launch deadlines (ties beat arrivals)
  int client_actor = 0;  ///< actor 1: the open-loop arrival stream
  int server_res = 0;    ///< the one inference engine, served exclusively
  ServeResult result;
  std::deque<std::int64_t> queue;  ///< admitted request ids, FIFO
  std::uint64_t deadline_event = 0;
  bool deadline_armed = false;

  trace::Tracer* tracer() const { return opts.tracer; }

  /// Advances the request-track clock to the event time (event times are
  /// non-decreasing, so the clock never rewinds) and samples queue depth.
  void mark_time(double t_s) {
    if (trace::Tracer* tr = tracer()) {
      if (t_s > tr->now(kRequestTrack)) tr->set_clock(kRequestTrack, t_s);
      tr->counter(kRequestTrack, "serve.queue_depth",
                  static_cast<double>(queue.size()));
    }
  }

  /// Conservative completion bound for a request arriving at `t_s` with the
  /// current queue (see file header of batcher.h for why it is an upper
  /// bound on the actual finish time).
  double predict_completion(double t_s) const {
    const int max_batch = opts.batcher.max_batch;
    const double worst_forward = engine.batch_time(max_batch);
    const std::int64_t batches_ahead =
        static_cast<std::int64_t>(queue.size()) / max_batch;
    const double busy_until = sim->resource(server_res).busy_until();
    const double backlog_free = busy_until > t_s + opts.batcher.max_delay_s
                                    ? busy_until
                                    : t_s + opts.batcher.max_delay_s;
    return backlog_free +
           static_cast<double>(batches_ahead + 1) * worst_forward;
  }

  /// Posts the queue's launch deadline: the oldest member's arrival +
  /// max_delay. The queue drains completely on every launch (a full batch
  /// launches the instant it fills), so the oldest member is always the
  /// request that just made the queue non-empty and at most one timer is
  /// ever pending.
  void arm_deadline() {
    const double deadline =
        result.requests[static_cast<std::size_t>(queue.front())].arrival_s +
        opts.batcher.max_delay_s;
    deadline_event = sim->post(deadline, server_actor, "launch.deadline",
                               [this](sim::Engine& eng) {
                                 deadline_armed = false;
                                 mark_time(eng.now());
                                 launch(eng.now());
                               });
    deadline_armed = true;
  }

  void on_arrival(std::int64_t id, double t_s) {
    mark_time(t_s);
    ++result.offered;
    RequestRecord& r = result.requests[static_cast<std::size_t>(id)];
    const double predicted = predict_completion(t_s);
    r.predicted_s = predicted;
    if (opts.admission.enabled && predicted > t_s + opts.admission.slo_s) {
      ++result.rejected;
      if (trace::Tracer* tr = tracer()) {
        tr->instant(kRequestTrack, "reject req " + std::to_string(id),
                    "serve.reject");
      }
      return;
    }
    r.admitted = true;
    ++result.admitted;
    queue.push_back(id);
    if (static_cast<int>(queue.size()) >= opts.batcher.max_batch) {
      // The batch filled before its deadline; the pending timer (none yet
      // when this arrival is also the one that made the queue non-empty)
      // is obsolete.
      if (deadline_armed) {
        sim->cancel(deadline_event);
        deadline_armed = false;
      }
      launch(t_s);
    } else if (queue.size() == 1) {
      arm_deadline();
    }
  }

  /// Forms a batch from the queue head and places it on the server's busy
  /// interval: start = max(formation time, previous batch's finish).
  void launch(double t_s) {
    SWC_CHECK(!queue.empty());
    BatchRecord b;
    b.id = static_cast<int>(result.batches.size());
    b.size = static_cast<int>(queue.size()) < opts.batcher.max_batch
                 ? static_cast<int>(queue.size())
                 : opts.batcher.max_batch;
    b.first_arrival_s =
        result.requests[static_cast<std::size_t>(queue.front())].arrival_s;
    b.forward_s = engine.batch_time(b.size);
    b.launch_s = sim->acquire(server_res, server_actor, t_s, b.forward_s,
                              "serve.forward", 0);
    b.finish_s = b.launch_s + b.forward_s;

    trace::Tracer* tr = tracer();
    for (int i = 0; i < b.size; ++i) {
      const std::int64_t id = queue.front();
      queue.pop_front();
      RequestRecord& r = result.requests[static_cast<std::size_t>(id)];
      r.batch = b.id;
      r.launch_s = b.launch_s;
      r.finish_s = b.finish_s;
      if (tr) {
        tr->async_span(kRequestTrack, "req " + std::to_string(id),
                       "serve.queue", r.arrival_s, b.launch_s);
      }
    }
    // Every launch drains the whole queue: a full batch launches the moment
    // its last member arrives, so the queue never exceeds max_batch, and a
    // deadline launch takes everything waiting. arm_deadline()'s
    // one-pending-timer invariant rests on this.
    SWC_CHECK(queue.empty());
    if (tr) {
      const std::string label =
          "batch " + std::to_string(b.id) + " (x" + std::to_string(b.size) +
          ")";
      // Formation (oldest arrival -> launch) overlaps the previous batch's
      // forward pass, so it lives on its own track as an async span; the
      // forward pass itself is sequential on the server track.
      tr->async_span(kBatchTrack, label, "serve.batch", b.first_arrival_s,
                     b.launch_s);
      tr->set_clock(kServerTrack, b.launch_s);
      tr->begin_span(kServerTrack, label, "serve.forward");
      tr->end_span(kServerTrack, b.forward_s);
    }
    result.batches.push_back(b);
  }
};

}  // namespace

ServeResult simulate_serving(const InferenceEngine& engine,
                             const std::vector<double>& arrivals,
                             const ServeOptions& options) {
  SWC_CHECK_GE(options.batcher.max_batch, 1);
  SWC_CHECK_LE(options.batcher.max_batch, engine.max_batch());
  SWC_CHECK_GE(options.batcher.max_delay_s, 0.0);
  SWC_CHECK_GT(options.admission.slo_s, 0.0);

  sim::Engine sim;
  Server server(engine, options, &sim);
  server.server_actor = sim.add_actor("server");
  server.client_actor = sim.add_actor("clients");
  server.server_res = sim.add_resource("engine");
  server.result.requests.resize(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    SWC_CHECK_MSG(i == 0 || arrivals[i] > arrivals[i - 1],
                  "arrivals must be strictly increasing");
    server.result.requests[i].id = static_cast<std::int64_t>(i);
    server.result.requests[i].arrival_s = arrivals[i];
  }

  if (trace::Tracer* tr = options.tracer) {
    tr->set_track_name(kServerTrack, "serve.server");
    tr->set_track_name(kRequestTrack, "serve.requests");
    tr->set_track_name(kBatchTrack, "serve.batches");
  }

  // The old hand-merged two-source loop (next arrival vs. queue deadline,
  // ties to the deadline) is now the engine's documented (time, actor, seq)
  // order: deadlines fire on the server actor (0), arrivals on the client
  // actor (1), so at one instant the deadline still wins and a max_delay of
  // zero degenerates to batch-of-one serving, the unbatched baseline.
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const std::int64_t id = static_cast<std::int64_t>(i);
    sim.post(
        arrivals[i], server.client_actor, "request.arrival",
        [&server, id](sim::Engine& eng) { server.on_arrival(id, eng.now()); });
  }
  sim.run();
  SWC_CHECK(server.queue.empty());

  ServeResult& res = server.result;
  if (res.offered > 0) {
    res.rejection_rate =
        static_cast<double>(res.rejected) / static_cast<double>(res.offered);
  }
  if (!res.batches.empty()) {
    res.makespan_s = res.batches.back().finish_s;
    res.throughput_rps = static_cast<double>(res.admitted) / res.makespan_s;
    res.utilization =
        sim.resource(server.server_res).busy_s() / res.makespan_s;
    res.mean_batch_size = static_cast<double>(res.admitted) /
                          static_cast<double>(res.batches.size());
  }
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(res.admitted));
  for (const RequestRecord& r : res.requests) {
    if (r.admitted) latencies.push_back(r.latency_s());
  }
  res.latency = latency_stats(std::move(latencies));

  // swsched: re-verify the whole serving timeline from the records alone —
  // exclusive engine occupancy, request conservation into batches, and the
  // SLO/admission bound re-derived independently of predict_completion.
  // Pure post-processing over finished records: it cannot perturb the
  // priced times above.
  check::ServingContract contract;
  contract.slo_s = options.admission.slo_s;
  contract.max_delay_s = options.batcher.max_delay_s;
  contract.max_batch = options.batcher.max_batch;
  contract.max_batch_forward_s =
      engine.batch_time(options.batcher.max_batch);
  contract.admission = options.admission.enabled;
  const check::Report report = check::verify_timeline(
      check::timeline_from_serving("serve-timeline", res.requests, res.batches,
                                   contract));
  SWC_CHECK_MSG(report.ok(),
                "swsched rejected the serving timeline: " << report.summary());
  return res;
}

}  // namespace swcaffe::serve
