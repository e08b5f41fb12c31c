// swc_benchmark: runs one workload of the repository benchmark and writes
// its result JSON (see README.md for the workloads and metrics).
//
//   swc_benchmark --workload NAME --seed N --json OUT [--seconds S]
//                 [--trace OUT] [--scratch DIR]
//   swc_benchmark --smoke [--workload NAME]
//
// --trace records one span per op and one child span per layer call and
// writes them as a Chrome trace; the per-layer metrics come from this mode.
// --smoke runs every workload (or the named one) for two ops with a single
// set-up and exits nonzero on a failed check.
//
// Exit codes: 0 all checks passed, 1 a check failed, 2 usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness.h"
#include "trace/chrome_trace.h"
#include "trace/tracer.h"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: swc_benchmark --workload NAME --seed N --json OUT "
               "[--seconds S] [--trace OUT] [--scratch DIR]\n"
               "       swc_benchmark --smoke [--workload NAME]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swcbench;
  now_s();  // starts the host clock
  Config cfg;
  std::string json_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::atof(argv[++i]);
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (arg == "--scratch" && has_value) {
      cfg.scratch = argv[++i];
    } else {
      return usage(("unknown or incomplete argument: " + arg).c_str());
    }
  }
  cfg.trace = !trace_path.empty();
  cfg.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  if (!cfg.smoke && (cfg.workload.empty() || json_path.empty())) {
    return usage("--workload and --json are required");
  }
  if (cfg.seconds <= 0.0) return usage("--seconds must be positive");

  bool all_correct = true;
  bool found = false;
  for (const Workload& w : workloads()) {
    if (!cfg.workload.empty() && cfg.workload != w.name) continue;
    found = true;
    Config run = cfg;
    run.workload = w.name;
    trace::Tracer tracer;
    Timer timer(run.trace ? &tracer : nullptr);
    Result res;
    try {
      w.run(run, timer, res);
    } catch (const std::exception& e) {
      res.check(false, std::string("workload threw: ") + e.what());
    }
    if (run.trace) layer_metrics(tracer, res);
    res.metric("peak_rss_mb", peak_rss_mb(), "MB");
    if (!json_path.empty()) res.save(json_path, run);
    if (!trace_path.empty()) trace::save_chrome_trace(tracer, trace_path);
    std::printf("%-12s %s: %d ops, %d failed\n", w.name,
                res.correct() ? "ok" : "FAILED", res.attempted(), res.failed());
    for (const std::string& e : res.errors()) {
      std::fprintf(stderr, "  %s: %s\n", w.name, e.c_str());
    }
    all_correct = all_correct && res.correct();
  }
  if (!found) return usage(("unknown workload: " + cfg.workload).c_str());
  return all_correct ? 0 : 1;
}
