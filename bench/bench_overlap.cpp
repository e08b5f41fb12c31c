// Overlapped bucketed all-reduce vs the paper's serialized packed message.
//
// The paper (Sec. V-A) packs all gradients into one message and all-reduces
// it after the whole backward pass — communication fully exposed. This
// bench prices the bucketed alternative: tune_buckets searches the bucket
// count per (net, node count), schedule_overlap hides each bucket's
// collective under the remaining backward work, and the tables report how
// much of the Fig. 10/11 communication share the overlap removes.
//
// Gates (CI perf-smoke):
//  * the overlapped VGG-16 B=128 iteration at 16 nodes must be strictly
//    faster than the serial one;
//  * the hierarchical + int8 + overlapped AlexNet B=256 configuration must
//    beat the flat overlapped one at 1024 nodes, exceed 1009x speedup
//    there, and stay near-linear at 4096 and 40,960 nodes (the full
//    TaihuLight scale) — calibrated floors on parallel efficiency;
//  * a sampled functional cross-check: ONE real iteration of a reduced
//    AlexNet (2 replicas, bucketed all-reduce) must charge exactly — bit
//    for bit — the communication the swsim timing-only twin prices for the
//    same configuration (sim_test pins the full algorithm x codec matrix on
//    a small net; this samples it on a paper net with live gradients);
//  * the whole bench must finish under a hard wall-clock budget — the
//    simulator perf-smoke gate. The functional section is deliberately a
//    SAMPLE (one iteration, two replicas): everything else runs on the
//    timing-only fast path, which is what keeps the full-machine sweep in
//    seconds.
// Any gate failure exits 1.
//
//   bench_overlap [--json OUT] [--trace=out.json]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "../tests/fixtures.h"
#include "base/table.h"
#include "base/units.h"
#include "bench_json.h"
#include "core/models.h"
#include "hw/cost_model.h"
#include "parallel/ssgd.h"
#include "swdnn/layer_estimate.h"
#include "topo/compress.h"
#include "topo/overlap.h"
#include "trace/chrome_trace.h"
#include "trace/tracer.h"
#include "tune/bucket_tune.h"
#include "tune/comm_tune.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

namespace {

struct Series {
  const char* name;
  core::NetSpec quarter;  ///< per-core-group spec (sub_batch / 4)
  std::int64_t param_bytes;
  bool gate;  ///< the CI perf gate runs on this series
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const double bench_t0 = now_s();
  // Hard whole-bench wall-clock budget (the simulator perf-smoke gate):
  // before swsim this bench spent ~68s in functional replica passes alone;
  // the timing-only fast path plus the sampled slow path must stay well
  // under this even on a slow single-core CI runner.
  constexpr double kWallBudgetS = 30.0;
  bench::JsonBench json("bench_overlap", argc, argv);
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }

  hw::CostModel cost;
  const std::vector<int> nodes = {4, 16, 64, 256, 1024};
  constexpr int kGateNodes = 16;

  std::vector<Series> series;
  series.push_back({"AlexNet B=256", core::alexnet_bn(64),
                    fixtures::kAlexNetGradientBytes, false});
  {
    // VGG-16 B=128: the packed message is the spec's own parameter volume
    // (the reduced-resolution zoo net; per-layer proportions are what the
    // overlap schedule cares about).
    core::NetSpec vgg = core::vgg(16, 32);
    const std::int64_t bytes =
        core::total_param_bytes(core::describe_net_spec(vgg));
    series.push_back({"VGG-16 B=128", std::move(vgg), bytes, true});
  }
  series.push_back({"ResNet50 B=64",
                    fixtures::resnet50_spec(2 * fixtures::kResNet50BatchPerCg),
                    fixtures::kResNet50GradientBytes, false});

  const parallel::SsgdOptions opt;  // binomial RHD, round-robin, q = 256
  const topo::NetParams net = topo::sunway_network();
  bool gate_ok = true;
  trace::Tracer tracer;

  double section_t0 = now_s();
  std::printf("=== Overlapped bucketed all-reduce vs serialized packed "
              "message (tuned bucket count) ===\n");
  for (const auto& s : series) {
    const std::vector<core::LayerDesc> descs =
        core::describe_net_spec(s.quarter);
    const dnn::NetTimeline tl = dnn::estimate_net_timeline(cost, descs);
    std::vector<std::int64_t> layer_bytes;
    layer_bytes.reserve(descs.size());
    for (const auto& d : descs) layer_bytes.push_back(d.param_bytes());
    layer_bytes = topo::scale_layer_bytes(layer_bytes, s.param_bytes);

    std::printf("\n--- %s (compute %s/iter, %.1f MB gradients) ---\n", s.name,
                base::format_seconds(tl.total_s).c_str(),
                static_cast<double>(s.param_bytes) / 1e6);
    TablePrinter t({"nodes", "serial iter", "overlap iter", "buckets",
                    "exposed comm", "comm hidden", "gain"});
    for (int n : nodes) {
      topo::Topology topo;
      topo.num_nodes = n;
      topo.supernode_size = opt.supernode_size;
      const auto bucket_cost = [&](std::int64_t b) {
        return topo::cost_rhd(b, topo, net, topo::Placement::kRoundRobin);
      };
      tune::BucketTuneOptions bopts;
      bopts.eager_limit = net.eager_limit;
      const tune::BucketChoice choice = tune::tune_buckets(
          layer_bytes, tl.bwd_s, tl.total_s, bucket_cost, bopts);

      const double serial_comm = choice.serial_s - tl.total_s;
      const double hidden =
          serial_comm > 0
              ? 1.0 - choice.exposed_comm_s / serial_comm
              : 1.0;
      t.add_row({std::to_string(n),
                 base::format_seconds(choice.serial_s),
                 base::format_seconds(choice.overlapped_s),
                 std::to_string(choice.buckets),
                 base::format_seconds(choice.exposed_comm_s),
                 fmt(100.0 * hidden, 1) + "%",
                 fmt(choice.serial_s / choice.overlapped_s, 2) + "x"});

      const std::string key =
          bench::metric_key(s.name) + "_" + std::to_string(n) + "nodes";
      json.metric(key + "_serial_s", choice.serial_s);
      json.metric(key + "_overlap_s", choice.overlapped_s);
      json.metric(key + "_buckets", choice.buckets);
      json.metric(key + "_exposed_comm_s", choice.exposed_comm_s);
      json.metric(key + "_exposed_fraction",
                  choice.exposed_comm_s / choice.overlapped_s);
      json.metric(key + "_overlap_gain",
                  choice.serial_s / choice.overlapped_s);

      if (s.gate && n == kGateNodes) {
        if (!(choice.overlapped_s < choice.serial_s)) {
          std::fprintf(stderr,
                       "GATE FAILED: %s at %d nodes: overlapped %.6g s is "
                       "not faster than serial %.6g s\n",
                       s.name, n, choice.overlapped_s, choice.serial_s);
          gate_ok = false;
        }
        json.metric("gate_overlap_s", choice.overlapped_s);
        json.metric("gate_serial_s", choice.serial_s);

        // Render the gate configuration as a Perfetto timeline: compute on
        // track 0, the tuned bucket schedule on track 1 — the bucket spans
        // visibly overlap the compute span.
        const auto layout =
            topo::make_buckets(layer_bytes, choice.buckets);
        const topo::OverlapTimeline otl =
            topo::schedule_overlap(layout, tl.bwd_s, tl.total_s, bucket_cost);
        tracer.set_track_name(0, "node0 compute");
        tracer.set_track_name(1, "network (bucketed all-reduce)");
        tracer.set_clock(0, 0.0);
        tracer.begin_span(0, s.name + std::string(" fwd+bwd"), "compute");
        tracer.end_span(0, otl.compute_s);
        topo::trace_overlap(&tracer, 1, otl);
      }
    }
    t.print(std::cout);
  }
  json.metric("section_tuned_wall_s", now_s() - section_t0);
  section_t0 = now_s();

  // --- Hierarchical + compressed all-reduce to full-machine scale ----------
  // AlexNet B=256 (the paper's communication-bound case), priced far past
  // Fig. 10's 1024 nodes: the two-level supernode-aware all-reduce folds
  // only 1/q of the message across the oversubscribed central switch, and
  // the int8 error-feedback codec shrinks the wire bytes 4x on top. Each
  // series re-tunes its bucket count per node count.
  {
    const std::vector<core::LayerDesc> descs =
        core::describe_net_spec(core::alexnet_bn(64));
    const dnn::NetTimeline tl = dnn::estimate_net_timeline(cost, descs);
    std::vector<std::int64_t> layer_bytes;
    layer_bytes.reserve(descs.size());
    for (const auto& d : descs) layer_bytes.push_back(d.param_bytes());
    layer_bytes = topo::scale_layer_bytes(layer_bytes,
                                          fixtures::kAlexNetGradientBytes);

    struct HierCfg {
      const char* label;
      topo::AllreduceAlgo algo;
      topo::Compression codec;
    };
    constexpr topo::AllreduceAlgo kFlat = topo::AllreduceAlgo::kRhdRoundRobin;
    constexpr topo::AllreduceAlgo kHier = topo::AllreduceAlgo::kHierarchical;
    const HierCfg cfgs[] = {
        {"flat", kFlat, topo::Compression::kNone},
        {"hier", kHier, topo::Compression::kNone},
        {"hier_fp16", kHier, topo::Compression::kFp16},
        {"hier_int8", kHier, topo::Compression::kInt8},
    };
    const std::vector<int> big_nodes = {4, 16, 64, 256, 1024, 4096, 40960};
    constexpr int kHierGateNodes = 1024;
    // PR-5's flat overlapped AlexNet speedup at 1024 nodes; the
    // hierarchical+int8 configuration must beat it.
    constexpr double kPrevBestSpeedup1024 = 1009.0;
    // Near-linear floors on parallel efficiency (speedup / nodes) at scale,
    // calibrated ~10% under the measured values so a model regression
    // trips the gate but numeric noise does not.
    // (measured ~1.00 at both scales; the flat algorithm drops to ~0.31 at
    // 40,960 nodes, so the floor cleanly separates the two).
    constexpr double kEff4096Floor = 0.90;
    constexpr double kEff40960Floor = 0.90;

    std::printf("\n=== Hierarchical + compressed all-reduce, AlexNet B=256 "
                "to full-machine scale (tuned buckets) ===\n");
    TablePrinter t({"nodes", "flat speedup", "hier", "hier+fp16", "hier+int8",
                    "int8 efficiency"});
    double flat_speedup_gate = 0.0, int8_speedup_gate = 0.0;
    for (int n : big_nodes) {
      topo::Topology topo;
      topo.num_nodes = n;
      topo.supernode_size = opt.supernode_size;
      std::vector<std::string> row = {std::to_string(n)};
      double int8_eff = 0.0;
      for (const auto& cfg : cfgs) {
        const auto bucket_cost = [&](std::int64_t b) {
          return topo::allreduce_cost(cfg.algo, cfg.codec, b, topo, net);
        };
        tune::BucketTuneOptions bopts;
        bopts.eager_limit = net.eager_limit;
        const tune::BucketChoice choice = tune::tune_buckets(
            layer_bytes, tl.bwd_s, tl.total_s, bucket_cost, bopts);
        const double speedup = n * tl.total_s / choice.overlapped_s;
        row.push_back(fmt(speedup, 1) + "x");

        const std::string key = std::string("hier_alexnet_") +
                                std::to_string(n) + "nodes_" + cfg.label;
        json.metric(key + "_overlap_s", choice.overlapped_s);
        json.metric(key + "_speedup", speedup);
        json.metric(key + "_buckets", choice.buckets);

        if (std::strcmp(cfg.label, "flat") == 0 && n == kHierGateNodes) {
          flat_speedup_gate = speedup;
        }
        if (std::strcmp(cfg.label, "hier_int8") == 0) {
          int8_eff = speedup / n;
          if (n == kHierGateNodes) int8_speedup_gate = speedup;
          if (n == 4096 && int8_eff < kEff4096Floor) {
            std::fprintf(stderr,
                         "GATE FAILED: hier+int8 efficiency %.3f < %.2f at "
                         "4096 nodes\n",
                         int8_eff, kEff4096Floor);
            gate_ok = false;
          }
          if (n == 40960 && int8_eff < kEff40960Floor) {
            std::fprintf(stderr,
                         "GATE FAILED: hier+int8 efficiency %.3f < %.2f at "
                         "40960 nodes\n",
                         int8_eff, kEff40960Floor);
            gate_ok = false;
          }
        }
      }
      row.push_back(fmt(100.0 * int8_eff, 1) + "%");
      t.add_row(row);
    }
    t.print(std::cout);

    if (!(int8_speedup_gate > flat_speedup_gate)) {
      std::fprintf(stderr,
                   "GATE FAILED: hier+int8 speedup %.1fx does not beat flat "
                   "%.1fx at %d nodes\n",
                   int8_speedup_gate, flat_speedup_gate, kHierGateNodes);
      gate_ok = false;
    }
    if (!(int8_speedup_gate > kPrevBestSpeedup1024)) {
      std::fprintf(stderr,
                   "GATE FAILED: hier+int8 speedup %.1fx <= previous best "
                   "%.1fx at %d nodes\n",
                   int8_speedup_gate, kPrevBestSpeedup1024, kHierGateNodes);
      gate_ok = false;
    }
    json.metric("hier_gate_flat_speedup_1024", flat_speedup_gate);
    json.metric("hier_gate_int8_speedup_1024", int8_speedup_gate);

    // swtune's joint search over the same model: at full-machine scale the
    // tuner should discover the hierarchical + compressed configuration on
    // its own (reported, not gated — the winning codec may legitimately be
    // fp16 or int8 depending on where the codec passes balance the wire).
    const tune::CommChoice cc =
        tune::tune_comm(tl.bwd_s, tl.total_s, layer_bytes, 40960);
    std::printf("\nswtune @40960 nodes: %s + %s, %d buckets "
                "(%.3fs vs %.3fs baseline, %zu candidates)\n",
                topo::allreduce_algo_name(cc.algorithm),
                topo::compression_name(cc.compression),
                cc.buckets, cc.overlapped_s, cc.baseline_s,
                cc.candidates.size());
    json.metric("tune_comm_40960_overlap_s", cc.overlapped_s);
    json.metric("tune_comm_40960_baseline_s", cc.baseline_s);
    json.metric("tune_comm_40960_buckets", cc.buckets);
    json.metric("tune_comm_40960_is_hier",
                cc.algorithm == kHier ? 1.0 : 0.0);
  }

  json.metric("section_hier_wall_s", now_s() - section_t0);
  section_t0 = now_s();

  // --- Wall-clock: sampled functional iteration vs timing-only pricing ----
  //
  // Everything above ran on the swsim timing-only fast path. This section is
  // the sampled slow path: ONE real iteration of a reduced AlexNet with live
  // gradients, bucket-all-reduced through the cost model, so the
  // functionally charged communication can be compared -- bitwise -- against
  // what price_iteration (the timing-only fast path) prices for the same
  // configuration. Before swsim this section was the whole bench's budget
  // (8 replicas x warm-up + 2 timed iterations x 2 trainers = 48
  // replica-passes, plus a serial-vs-threaded identity gate that
  // SsgdTest.ThreadedReplicasBitIdenticalToSerial now pins in tests/); a
  // two-replica sample plus the priced fast path covers the cross-check.
  {
    constexpr int kReplicas = 2;
    const core::NetSpec spec = core::alexnet_bn(1, 10, 67);
    core::SolverSpec solver;
    parallel::SsgdOptions so;
    so.buckets = 3;  // exercise the bucketed accumulation order
    parallel::SsgdTrainer sample(spec, kReplicas, solver, so, 7);

    const std::size_t dpn = sample.node(0).blob("data")->count();
    const std::size_t lpn = sample.node(0).blob("label")->count();
    std::vector<float> data(dpn * kReplicas), labels(lpn * kReplicas);
    base::Rng rng(11);
    for (auto& v : data) v = rng.gaussian(0.0f, 1.0f);
    for (auto& v : labels) v = static_cast<float>(rng.uniform_int(0, 9));

    std::vector<std::vector<float>> grads(kReplicas);
    const double t0 = now_s();
    const double loss = sample.forward_backward_packed(data, labels, grads);
    const double fb_s = now_s() - t0;
    std::printf("\n=== Sampled functional iteration: %d replicas of reduced "
                "AlexNet ===\n",
                kReplicas);
    std::printf("forward+backward %s (loss %.4f)\n",
                base::format_seconds(fb_s).c_str(), loss);
    json.metric("wallclock_functional_fb_s", fb_s);

    // Cross-check gate: all-reduce the live gradients through the cost model
    // and require the charged communication to equal -- bit for bit -- what
    // the timing-only fast path prices for the same net/topology/options.
    // (sim_test pins the full algorithm x codec matrix on a small net; this
    // samples the equality on a paper net with real gradient payloads.)
    sample.allreduce(grads);
    const topo::CostBreakdown functional = sample.last_comm();
    const parallel::TimedIteration priced =
        sample.price_iteration(cost, core::describe_net_spec(spec));
    const bool comm_match = functional.seconds == priced.comm.seconds &&
                            functional.alpha_terms == priced.comm.alpha_terms &&
                            functional.beta1_bytes == priced.comm.beta1_bytes &&
                            functional.beta2_bytes == priced.comm.beta2_bytes &&
                            functional.gamma_bytes == priced.comm.gamma_bytes;
    std::printf("functional all-reduce %.9es vs timing-only %.9es: %s\n",
                functional.seconds, priced.comm.seconds,
                comm_match ? "bit-identical" : "DIVERGED");
    json.metric("crosscheck_functional_comm_s", functional.seconds);
    json.metric("crosscheck_priced_comm_s", priced.comm.seconds);
    json.metric("crosscheck_comm_match", comm_match ? 1.0 : 0.0);
    if (!comm_match) {
      std::fprintf(stderr, "GATE FAILED: timing-only priced communication "
                           "diverged from the functional all-reduce\n");
      gate_ok = false;
    }
  }

  if (!trace_path.empty()) {
    trace::save_chrome_trace(tracer, trace_path);
    std::printf("\nwrote Chrome trace to %s (open in ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  json.metric("section_functional_wall_s", now_s() - section_t0);
  const double bench_wall_s = now_s() - bench_t0;
  std::printf("\nbench wall clock: %.3fs (budget %.0fs)\n", bench_wall_s,
              kWallBudgetS);
  if (bench_wall_s > kWallBudgetS) {
    std::fprintf(stderr,
                 "GATE FAILED: bench wall clock %.3fs exceeds the %.0fs "
                 "budget\n",
                 bench_wall_s, kWallBudgetS);
    gate_ok = false;
  }
  std::printf("\n%s\n", gate_ok ? "overlap gate: PASS" : "overlap gate: FAIL");
  return gate_ok ? 0 : 1;
}
