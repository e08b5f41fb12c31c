// Measurement harness of swc_benchmark: host clock, op/setup loops, span
// recording, statistics and the result file.
//
// Only calls into the program are timed. An op's duration is the time spent
// inside Op::timed(); checks run after it, outside the window. With tracing
// on, every op and set-up repetition is a top-level trace::Tracer span driven
// by host timestamps (set_clock), and every call into a layer is a child
// span, so per-layer self time is read straight off the spans.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/tracer.h"

namespace swcbench {

namespace trace = swcaffe::trace;

/// Host seconds since the first call (steady clock).
double now_s();

/// Peak resident set of this process in MB (getrusage).
double peak_rss_mb();

/// splitmix64 step: the benchmark's only source of input randomness, so the
/// inputs depend on the seed alone and not on any RNG inside the program.
std::uint64_t mix(std::uint64_t x);
/// Uniform double in [0, 1) from (seed, a, b).
double unit(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

/// Median (mean of the middle two for an even count; 0 when empty).
double median(std::vector<double> v);
double geomean(const std::vector<double>& v);

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Two ops and one set-up: a quick end-to-end check of the harness.
  bool smoke = false;
  /// Directory for files the workloads must write (checkpoints).
  std::string scratch = ".";
  /// Host threads a workload may use (min(4, nproc)).
  int threads = 1;
};

/// Everything one workload run reports.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// A run-level correctness check (not tied to one op).
  void check(bool ok, const std::string& what) {
    if (!ok) errors_.push_back(what);
  }
  void count_op(const std::vector<std::string>& failures, int index);

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

  /// Writes the result object (workload, seed, correct, attempted, failed,
  /// errors, metrics) as JSON.
  void save(const std::string& path, const Config& cfg) const;

 private:
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> errors_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Records spans on one trace track when a tracer is attached; otherwise it
/// only times top-level spans.
class Timer {
 public:
  explicit Timer(trace::Tracer* tracer = nullptr) : tracer_(tracer) {}

  /// Runs `fn` as one top-level span; returns its host duration in seconds.
  template <class F>
  double span(const std::string& name, const char* category, F&& fn) {
    const double t0 = now_s();
    const Scope scope(tracer_, name.c_str(), category);
    fn();
    return now_s() - t0;
  }

  /// Runs `fn` as a call into layer `layer` (a child span when tracing).
  template <class F>
  decltype(auto) call(const char* layer, F&& fn) {
    const Scope scope(tracer_, layer, "layer");
    return fn();
  }

 private:
  /// Opens a span at the current host time and closes it on destruction,
  /// exceptions included; a no-op without a tracer.
  class Scope {
   public:
    Scope(trace::Tracer* tracer, const char* name, const char* category);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    trace::Tracer* tracer_;
  };

  trace::Tracer* tracer_;
};

/// One operation of a workload's closed loop.
struct Op {
  Op(Timer* t, int i, bool w = false) : timer(t), index(i), warmup(w) {}

  Timer* timer;
  int index;
  bool warmup;
  double seconds = 0.0;  ///< time inside timed()
  double items = 0.0;    ///< work completed (images, queries, requests, jobs)
  std::vector<std::string> failures;

  /// The op's measured window: every call into the program goes in here.
  template <class F>
  void timed(F&& fn) {
    seconds += timer->span("op " + std::to_string(index), "op", fn);
  }
  template <class F>
  decltype(auto) call(const char* layer, F&& fn) {
    return timer->call(layer, std::forward<F>(fn));
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Repeats the set-up until it has run at least three times and for 2 s
/// (once in smoke mode), reports the median as setup_s and returns the last
/// instance. `make(timer)` builds a fresh instance through the program's
/// constructors, timing its calls on `timer`; the previous instance is
/// destroyed before the next repetition starts. Only the first three
/// repetitions are traced.
template <class Make>
auto setup(const Config& cfg, Timer& timer, Result& res, Make&& make) {
  Timer quiet;
  decltype(make(timer)) last;
  std::vector<double> reps;
  double total = 0.0;
  // Host speed on a shared machine moves for seconds at a time; spreading
  // the repetitions of a set-up that takes microseconds over 2 s keeps one
  // such stretch from setting the median.
  while (reps.empty() || (!cfg.smoke && (reps.size() < 3 || total < 2.0))) {
    last = {};
    Timer& t = reps.size() < 3 ? timer : quiet;
    const double s = t.span("setup " + std::to_string(reps.size()), "setup",
                            [&] { last = make(t); });
    reps.push_back(s);
    total += s;
  }
  res.metric("setup_s", median(reps), "s");
  return last;
}

/// Runs the closed loop: an optional untimed, untraced warm-up op, then ops
/// until `cfg.seconds` have passed and at least `min_ops` ops have run (two
/// ops in smoke mode). `min_ops` covers the inputs a workload's simulated
/// outputs are computed over, so those do not depend on host speed. Reports
/// op_ms_p50 and work_per_s (Op::items per second inside the ops), and
/// counts every op that threw or failed a check.
template <class Body>
void run_ops(const Config& cfg, Timer& timer, Result& res, bool warmup,
             int min_ops, Body&& body) {
  auto run = [&](Op& op) {
    try {
      body(op);
    } catch (const std::exception& e) {
      op.failures.push_back(std::string("threw: ") + e.what());
    }
  };
  if (warmup) {
    Timer quiet;
    Op op(&quiet, 0, true);
    run(op);
    for (const auto& f : op.failures) res.check(false, "warm-up: " + f);
  }
  std::vector<double> op_s;
  double items = 0.0;
  const double t0 = now_s();
  for (int k = 0;; ++k) {
    if (cfg.smoke ? k >= 2 : (k >= min_ops && now_s() - t0 >= cfg.seconds)) {
      break;
    }
    Op op(&timer, k);
    run(op);
    op_s.push_back(op.seconds);
    items += op.items;
    res.count_op(op.failures, k);
  }
  double busy = 0.0;
  for (double s : op_s) busy += s;
  res.metric("op_ms_p50", 1e3 * median(op_s), "ms");
  res.metric("work_per_s", busy > 0.0 ? items / busy : 0.0, "items/s");
}

/// Per-layer numbers from the recorded spans: for every layer called inside
/// ops, `<layer>.share` (% of op time) and `<layer>.ms_p50` (per call);
/// `bench.self.share` is op time outside any layer call. Set-up layers get
/// `setup.<layer>.ms_p50`.
void layer_metrics(const trace::Tracer& tracer, Result& res);

/// Dispatch table entry.
struct Workload {
  const char* name;
  void (*run)(const Config&, Timer&, Result&);
};
const std::vector<Workload>& workloads();

}  // namespace swcbench
