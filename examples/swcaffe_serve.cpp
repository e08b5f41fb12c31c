// swcaffe_serve: inference serving simulator — dynamic batching and SLO
// admission control over the cost model.
//
// Usage:
//   swcaffe_serve [--net alexnet|vgg16|vgg19|resnet50|googlenet]
//                 [--rate R] [--duration S] [--arrival poisson|bursty]
//                 [--seed N] [--max-batch B] [--max-delay MS] [--slo MS]
//                 [--no-admission] [--tune] [--plan-cache FILE]
//                 [--trace out.json] [--json OUT]
//
// An open-loop arrival stream (R req/s for S simulated seconds) feeds one
// server that coalesces requests into batches of up to --max-batch, holding
// the oldest request at most --max-delay ms; requests whose conservative
// completion bound misses the --slo deadline are rejected at arrival.
// Without --slo the deadline is bench_serving's rule over the priced batch
// table, 3 * f(max-batch) + f(1): three worst-case batches plus the
// formation wait, so an under-subscribed server admits everything.
// Forward passes are priced by the calibrated SW26010 cost model; --tune
// selects swtune plans per batch size (persisted via --plan-cache, shared
// with swcaffe_time/swcaffe_tune). --trace writes a Chrome trace with the
// server's forward spans, per-request queue intervals and batch-formation
// intervals; --json writes the headline numbers as a bench_json object.
// Everything runs on simulated time: same flags + seed => identical output.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "../bench/bench_json.h"
#include "cli_flags.h"
#include "base/table.h"
#include "base/units.h"
#include "core/models.h"
#include "hw/cost_model.h"
#include "serve/arrival.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "trace/chrome_trace.h"
#include "trace/tracer.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

namespace {

serve::ModelFn resolve_model(const std::string& name) {
  // Inference geometry: full ImageNet shapes, no loss layer. Pricing is
  // pure shape inference, so paper-scale resolutions cost nothing here.
  if (name == "alexnet") {
    return [](int b) { return core::alexnet_bn(b, 1000, 227, false); };
  }
  if (name == "vgg16") {
    return [](int b) { return core::vgg(16, b, 1000, 224, false); };
  }
  if (name == "vgg19") {
    return [](int b) { return core::vgg(19, b, 1000, 224, false); };
  }
  if (name == "resnet50") {
    return [](int b) { return core::resnet50(b, 1000, 224, false); };
  }
  if (name == "googlenet") {
    return [](int b) { return core::googlenet(b, 1000, 224, false); };
  }
  std::fprintf(stderr, "unknown net: %s\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string net = "alexnet";
  std::string arrival = "poisson";
  double rate = 100.0;
  double duration_s = 1.0;
  std::uint64_t seed = 1;
  int max_batch = 8;
  double max_delay_ms = 2.0;
  std::optional<double> slo_ms;  // unset: derived from the batch table
  bool admission = true;
  bool tune = false;
  std::string plan_cache;
  std::string trace_path;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (cli::flag_value(argc, argv, i, "--net", v)) {
      net = v;
    } else if (cli::flag_value(argc, argv, i, "--arrival", v)) {
      arrival = v;
    } else if (cli::flag_number(argc, argv, i, "--rate", rate)) {
    } else if (cli::flag_number(argc, argv, i, "--duration", duration_s)) {
    } else if (cli::flag_number(argc, argv, i, "--seed", seed)) {
    } else if (cli::flag_number(argc, argv, i, "--max-batch", max_batch)) {
    } else if (cli::flag_number(argc, argv, i, "--max-delay", max_delay_ms)) {
    } else if (cli::flag_value(argc, argv, i, "--slo", v)) {
      slo_ms = cli::parse_number<double>("--slo", v);
    } else if (cli::flag_value(argc, argv, i, "--plan-cache", v)) {
      plan_cache = v;
    } else if (cli::flag_value(argc, argv, i, "--trace", v)) {
      trace_path = v;
    } else if (cli::flag_value(argc, argv, i, "--json", v)) {
      // Value re-parsed by JsonBench; consumed here so it isn't positional.
    } else if (std::strcmp(argv[i], "--no-admission") == 0) {
      admission = false;
    } else if (std::strcmp(argv[i], "--tune") == 0) {
      tune = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  bench::JsonBench json("swcaffe_serve", argc, argv);
  trace::Tracer tracer;
  const hw::CostModel cost;

  serve::EngineOptions eng_opts;
  eng_opts.max_batch = max_batch;
  eng_opts.tune = tune;
  eng_opts.plan_cache = plan_cache;
  eng_opts.tracer = trace_path.empty() ? nullptr : &tracer;
  serve::InferenceEngine engine(cost, net, resolve_model(net), eng_opts);

  std::printf("=== %s forward pricing (batch table) ===\n", net.c_str());
  {
    TablePrinter t({"batch", "forward", "per-request", "img/s"});
    for (int b = 1; b <= max_batch; ++b) {
      const double f = engine.batch_time(b);
      t.add_row({std::to_string(b), base::format_seconds(f),
                 base::format_seconds(f / b), fmt(b / f, 1)});
    }
    t.print(std::cout);
    if (tune) {
      const serve::EngineStats& s = engine.stats();
      std::printf("tuned %d conv searches (%d cache hits, %d plans "
                  "verified)\n",
                  s.layers_tuned, s.cache_hits, s.plans_verified);
    }
  }

  serve::ArrivalSpec aspec;
  aspec.kind = serve::parse_arrival_kind(arrival);
  aspec.rate = rate;
  aspec.duration_s = duration_s;
  aspec.seed = seed;
  const std::vector<double> arrivals = serve::generate_arrivals(aspec);

  serve::ServeOptions sopts;
  sopts.batcher.max_batch = max_batch;
  sopts.batcher.max_delay_s = max_delay_ms * 1e-3;
  sopts.admission.enabled = admission;
  sopts.admission.slo_s =
      slo_ms ? *slo_ms * 1e-3
             : 3.0 * engine.batch_time(max_batch) + engine.batch_time(1);
  sopts.tracer = trace_path.empty() ? nullptr : &tracer;
  const serve::ServeResult res =
      serve::simulate_serving(engine, arrivals, sopts);

  std::printf("\n=== serving %s: %s arrivals at %.1f req/s for %.2fs ===\n",
              net.c_str(), arrival.c_str(), rate, duration_s);
  {
    TablePrinter t({"metric", "value"});
    t.add_row({"offered", std::to_string(res.offered)});
    t.add_row({"admitted", std::to_string(res.admitted)});
    t.add_row({"rejected", std::to_string(res.rejected) + " (" +
                               fmt(100.0 * res.rejection_rate, 1) + "%)"});
    t.add_row({"batches", std::to_string(res.batches.size())});
    t.add_row({"mean batch size", fmt(res.mean_batch_size, 2)});
    t.add_row({"throughput", fmt(res.throughput_rps, 1) + " req/s"});
    t.add_row({"utilization", fmt(100.0 * res.utilization, 1) + "%"});
    t.add_row({"latency p50", base::format_seconds(res.latency.p50_s)});
    t.add_row({"latency p95", base::format_seconds(res.latency.p95_s)});
    t.add_row({"latency p99", base::format_seconds(res.latency.p99_s)});
    t.add_row({"latency max", base::format_seconds(res.latency.max_s)});
    t.add_row({"SLO", admission ? base::format_seconds(sopts.admission.slo_s)
                                : std::string("off")});
    t.print(std::cout);
  }
  if (admission && res.latency.count > 0) {
    // The admission bound is conservative: an admitted request can never
    // miss the deadline. Worth asserting on every CLI run, not just tests.
    if (res.latency.max_s > sopts.admission.slo_s) {
      std::fprintf(stderr, "FAIL: admitted max latency %.6fs exceeds SLO\n",
                   res.latency.max_s);
      return 1;
    }
  }

  json.metric("offered", res.offered);
  json.metric("admitted", res.admitted);
  json.metric("rejection_rate", res.rejection_rate);
  json.metric("throughput_rps", res.throughput_rps);
  json.metric("utilization", res.utilization);
  json.metric("mean_batch_size", res.mean_batch_size);
  json.metric("latency_p50_s", res.latency.p50_s);
  json.metric("latency_p95_s", res.latency.p95_s);
  json.metric("latency_p99_s", res.latency.p99_s);

  if (!trace_path.empty()) {
    trace::save_chrome_trace(tracer, trace_path);
    std::printf("wrote trace to %s\n", trace_path.c_str());
  }
  if (tune && !plan_cache.empty()) {
    std::string error;
    if (!engine.save_cache(&error)) {
      std::fprintf(stderr, "plan-cache save failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("saved plan cache to %s\n", plan_cache.c_str());
  }
  return 0;
}
