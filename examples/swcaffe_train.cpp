// swcaffe_train: the Caffe-style command-line trainer. Takes a net
// prototxt and a solver prototxt, trains on the synthetic ImageNet stand-in
// with the full Algorithm 1 stack (prefetch thread, 4 core-group threads,
// gradient averaging), and reports losses plus the simulated SW26010 time.
//
// Usage:
//   swcaffe_train [net.prototxt solver.prototxt] [iterations]
//                 [--tune] [--plan-cache FILE] [--json OUT]
//                 [--trace=out.json] [--trace-report]
//                 [--faults=SPEC] [--seed N] [--nodes N]
//                 [--buckets N] [--threads N]
//                 [--algo=ALGO] [--compress=none|fp16|int8]
//                 [--checkpoint-every N] [--checkpoint-prefix PATH]
//                 [--timing-only]
// With no (positional) arguments a built-in demo net is used. --tune runs
// the swtune plan search before training (every core-group replica executes
// the tuned strategies, and the simulated time is priced at the tuned
// plans); --plan-cache makes the tuned plans persistent so a second run
// skips the search. --json writes the headline numbers (final loss, tuned
// and default compute per iteration) as a bench_json object. --trace writes
// a Chrome-trace JSON of the simulated run (track "node" plus one track per
// core group; open in ui.perfetto.dev); --trace-report prints the per-layer
// aggregate of the traced compute.
//
// --faults switches to the fault-tolerant distributed trainer (swfault):
// --nodes SSGD replicas train under the seeded fault schedule of SPEC (see
// src/fault/fault_spec.h for the grammar; "none" for a healthy machine),
// with retry/backoff on lossy sends, straggler-aware bounded-staleness
// aggregation, and - with --checkpoint-every - periodic checkpoints that
// crashed runs restart from. --seed overrides the spec's schedule seed.
// --buckets splits the packed gradient into N layer-aligned all-reduce
// buckets (bit-identical weights for any N; the overlap model prices the
// hidden communication) and --threads runs the replica forward/backward
// loop on N host threads (wall-clock only, bit-identical results); both
// apply to the --faults distributed path, as do --algo (the gradient
// all-reduce: rhd-round-robin [default], rhd-adjacent, hierarchical, ring,
// param-server) and --compress (the gradient codec with error feedback:
// none [default], fp16, int8 — deterministic, bit-identical across reruns).
// The single-node trainer reads none of these flags: without --faults,
// --threads, --seed and --checkpoint-* are usage errors (exit 2), and so are
// --nodes, --buckets, --algo and --compress unless --timing-only prices
// with them.
//
// --timing-only prices ONE SSGD iteration on the swsim fast path instead of
// training: a single prototype replica is built, its weights never drawn
// (no per-node tensors, no gradient floats move), and the iteration's compute, all-reduce and
// overlapped schedule are priced across --nodes nodes with the configured
// --algo/--compress/--buckets. The priced communication is bit-identical to
// what the functional trainer would charge (pinned by tests), so this is
// the cheap way to ask "what would this config cost at 40,960 nodes?".
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "../bench/bench_json.h"
#include "cli_flags.h"
#include "base/units.h"
#include "core/models.h"
#include "core/proto.h"
#include "fault/ft_ssgd.h"
#include "hw/cost_model.h"
#include "parallel/ssgd.h"
#include "parallel/trainer.h"
#include "trace/chrome_trace.h"
#include "trace/report.h"
#include "trace/tracer.h"

using namespace swcaffe;

namespace {

constexpr const char* kDemoNet = R"(
name: "demo-cnn"
input: "data"  input_dim: 4 input_dim: 3 input_dim: 32 input_dim: 32
input: "label" input_dim: 4
layer { name: "conv1" type: "Convolution" bottom: "data" top: "conv1"
        convolution_param { num_output: 16 kernel_size: 3 pad: 1 } }
layer { name: "bn1" type: "BatchNorm" bottom: "conv1" top: "bn1" }
layer { name: "relu1" type: "ReLU" bottom: "bn1" top: "relu1" }
layer { name: "pool1" type: "Pooling" bottom: "relu1" top: "pool1"
        pooling_param { pool: MAX kernel_size: 2 stride: 2 } }
layer { name: "conv2" type: "Convolution" bottom: "pool1" top: "conv2"
        convolution_param { num_output: 32 kernel_size: 3 pad: 1 } }
layer { name: "relu2" type: "ReLU" bottom: "conv2" top: "relu2" }
layer { name: "fc" type: "InnerProduct" bottom: "relu2" top: "scores"
        inner_product_param { num_output: 10 } }
layer { name: "loss" type: "SoftmaxWithLoss"
        bottom: "scores" bottom: "label" top: "loss" }
)";

constexpr const char* kDemoSolver = R"(
base_lr: 0.02
momentum: 0.9
weight_decay: 0.0005
lr_policy: "step"
gamma: 0.5
stepsize: 40
type: "SGD"
)";

/// Pure function of (iter, index, salt) so a restarted run replays the
/// identical batch sequence (the crash/restart bit-identity contract).
float det_uniform(std::uint64_t iter, std::uint64_t idx, std::uint64_t salt) {
  std::uint64_t x =
      iter * 0x9e3779b97f4a7c15ULL + idx * 0xbf58476d1ce4e5b9ULL + salt;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<float>(x >> 40) / static_cast<float>(1 << 24);
}

/// The --faults path: fault-tolerant SSGD over `nodes` replicas under the
/// seeded schedule of `spec`.
int run_fault_tolerant(const core::NetSpec& net_spec,
                       const core::SolverSpec& solver_spec, int iterations,
                       int nodes, int buckets, int threads,
                       topo::AllreduceAlgo algo,
                       topo::Compression compress, const fault::FaultSpec& spec,
                       int checkpoint_every, const std::string& ckpt_prefix,
                       const std::string& trace_path,
                       bench::JsonBench& bench) {
  fault::FtOptions opt;
  opt.faults = spec;
  opt.ssgd.algo = algo;
  opt.ssgd.compression = compress;
  opt.ssgd.buckets = buckets;
  opt.ssgd.threads = threads;
  opt.checkpoint_every = checkpoint_every;
  opt.checkpoint_prefix = ckpt_prefix;
  fault::FtSsgdTrainer trainer(net_spec, nodes, solver_spec, opt);

  trace::Tracer tracer;
  if (!trace_path.empty()) trainer.set_tracer(&tracer);

  const std::size_t data_per_node =
      trainer.ssgd().node(0).blob("data")->count();
  const std::size_t labels_per_node =
      trainer.ssgd().node(0).blob("label")->count();
  constexpr int kClasses = 10;  // matches the demo net's score width
  const auto p = static_cast<std::size_t>(nodes);
  const fault::BatchFn batch = [&](std::int64_t it, std::vector<float>& data,
                                   std::vector<float>& labels) {
    data.resize(data_per_node * p);
    labels.resize(labels_per_node * p);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = det_uniform(static_cast<std::uint64_t>(it), i, 0x5eedULL);
    }
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = static_cast<float>(static_cast<int>(
          det_uniform(static_cast<std::uint64_t>(it), i, 0x1abe1ULL) *
          kClasses));
    }
  };

  std::printf("fault-tolerant training '%s' on %d nodes for %d iterations "
              "(faults: %s)\n",
              net_spec.name.c_str(), nodes, iterations,
              fault::to_string(spec).c_str());
  const fault::RunResult run =
      fault::run_with_restarts(trainer, batch, iterations);
  const fault::FaultStats& stats = trainer.stats();

  std::printf("\nfinal loss: %.4f after %lld iterations\n", run.final_loss,
              static_cast<long long>(run.iters));
  std::printf("simulated cluster time: %s\n",
              base::format_seconds(run.sim_seconds).c_str());
  std::printf("faults injected: %lld drops, %lld dups, %lld delays, "
              "%lld straggler-iters, %lld crashes\n",
              static_cast<long long>(stats.drops),
              static_cast<long long>(stats.duplicates),
              static_cast<long long>(stats.delays),
              static_cast<long long>(stats.straggler_iters),
              static_cast<long long>(stats.crashes));
  std::printf("recovery: %lld retries, %lld escalations, %d restarts\n",
              static_cast<long long>(stats.retries),
              static_cast<long long>(stats.escalations), run.restarts);
  if (!trainer.last_checkpoint().empty()) {
    std::printf("latest checkpoint: %s\n", trainer.last_checkpoint().c_str());
  }

  bench.metric("final_loss", run.final_loss);
  bench.metric("simulated_run_s", run.sim_seconds);
  bench.metric("fault_drops", static_cast<double>(stats.drops));
  bench.metric("fault_retries", static_cast<double>(stats.retries));
  bench.metric("fault_escalations", static_cast<double>(stats.escalations));
  bench.metric("fault_straggler_iters",
               static_cast<double>(stats.straggler_iters));
  bench.metric("fault_restarts", static_cast<double>(run.restarts));

  if (!trace_path.empty()) {
    trace::save_chrome_trace(tracer, trace_path);
    std::printf("\nwrote Chrome trace to %s (open in ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  bool trace_report = false;
  bool tune = false;
  std::string plan_cache;
  std::string faults;
  bool have_faults = false;
  std::uint64_t seed = 0;
  bool have_seed = false;
  int nodes = 4;
  int buckets = 1;
  int threads = 1;
  bool have_threads = false;
  topo::AllreduceAlgo algo = topo::AllreduceAlgo::kRhdRoundRobin;
  topo::Compression compress = topo::Compression::kNone;
  int checkpoint_every = 0;
  std::string checkpoint_prefix = "swcaffe_train.ckpt";
  bool timing_only = false;
  // The last flag seen that only the --faults trainer reads, and the last
  // one that --timing-only pricing reads too.
  const char* faults_flag = nullptr;
  const char* ssgd_flag = nullptr;
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (cli::flag_value(argc, argv, i, "--trace", v)) {
      trace_path = v;
    } else if (std::strcmp(argv[i], "--trace-report") == 0) {
      trace_report = true;
    } else if (std::strcmp(argv[i], "--tune") == 0) {
      tune = true;
    } else if (std::strcmp(argv[i], "--timing-only") == 0) {
      timing_only = true;
    } else if (cli::flag_value(argc, argv, i, "--plan-cache", v)) {
      plan_cache = v;
    } else if (cli::flag_value(argc, argv, i, "--faults", v)) {
      faults = v;
      have_faults = true;
    } else if (cli::flag_number(argc, argv, i, "--seed", seed)) {
      have_seed = true;
      faults_flag = "--seed";
    } else if (cli::flag_number(argc, argv, i, "--nodes", nodes)) {
      ssgd_flag = "--nodes";
    } else if (cli::flag_number(argc, argv, i, "--buckets", buckets)) {
      ssgd_flag = "--buckets";
    } else if (cli::flag_number(argc, argv, i, "--threads", threads)) {
      have_threads = true;
    } else if (cli::flag_value(argc, argv, i, "--algo", v)) {
      ssgd_flag = "--algo";
      if (!topo::allreduce_algo_from_name(v.c_str(), &algo)) {
        std::fprintf(stderr,
                     "unknown --algo '%s' (rhd-adjacent, rhd-round-robin, "
                     "hierarchical, ring, param-server)\n",
                     v.c_str());
        return 2;
      }
    } else if (cli::flag_value(argc, argv, i, "--compress", v)) {
      ssgd_flag = "--compress";
      if (!topo::compression_from_name(v.c_str(), &compress)) {
        std::fprintf(stderr, "unknown --compress '%s' (none, fp16, int8)\n",
                     v.c_str());
        return 2;
      }
    } else if (cli::flag_number(argc, argv, i, "--checkpoint-every",
                                checkpoint_every)) {
      faults_flag = "--checkpoint-every";
    } else if (cli::flag_value(argc, argv, i, "--checkpoint-prefix", v)) {
      checkpoint_prefix = v;
      faults_flag = "--checkpoint-prefix";
    } else if (cli::flag_value(argc, argv, i, "--json", v)) {
      // Value re-parsed by JsonBench; consumed here so it isn't positional.
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (have_threads && !have_faults) {
    std::fprintf(stderr, "--threads sets the host threads of the --faults "
                         "trainer's replica loop; the single-node trainer "
                         "has none (add --faults=none)\n");
    return 2;
  }
  if (!have_faults && faults_flag) {
    std::fprintf(stderr, "%s configures the --faults trainer only; the "
                         "single-node trainer and --timing-only have no use "
                         "for it (add --faults=none)\n",
                 faults_flag);
    return 2;
  }
  if (!have_faults && !timing_only && ssgd_flag) {
    std::fprintf(stderr, "%s configures the --faults trainer and "
                         "--timing-only pricing; the single-node trainer has "
                         "none (add --faults=none or --timing-only)\n",
                 ssgd_flag);
    return 2;
  }
  bench::JsonBench bench("swcaffe_train", argc, argv);

  core::NetSpec net_spec;
  core::SolverSpec solver_spec;
  int iterations = 60;
  if (positional.size() >= 2) {
    net_spec = core::load_net_prototxt(positional[0]);
    solver_spec = core::load_solver_prototxt(positional[1]);
    if (positional.size() >= 3) {
      iterations = cli::parse_number<int>("iterations", positional[2]);
    }
  } else {
    std::printf("(no prototxt arguments: using the built-in demo net)\n");
    net_spec = core::parse_net_prototxt(kDemoNet);
    solver_spec = core::parse_solver_prototxt(kDemoSolver);
    if (positional.size() == 1) {
      iterations = cli::parse_number<int>("iterations", positional[0]);
    }
  }

  if (timing_only) {
    if (have_faults) {
      std::fprintf(stderr, "--timing-only prices a healthy iteration; it "
                           "cannot be combined with --faults\n");
      return 2;
    }
    parallel::SsgdOptions so;
    so.algo = algo;
    so.compression = compress;
    so.buckets = buckets;
    so.timing_only = true;
    parallel::SsgdTrainer trainer(net_spec, nodes, solver_spec, so, 1);
    const hw::CostModel cost;
    const parallel::TimedIteration it =
        trainer.price_iteration(cost, core::describe_net_spec(net_spec));
    std::printf("timing-only pricing of '%s' across %d nodes "
                "(%s, %s, %d buckets):\n",
                net_spec.name.c_str(), nodes,
                topo::allreduce_algo_name(algo),
                topo::compression_name(compress), trainer.num_buckets());
    std::printf("  compute (fwd+bwd):     %s\n",
                base::format_seconds(it.comp_s).c_str());
    std::printf("  all-reduce (serial):   %s (%d startups)\n",
                base::format_seconds(it.comm.seconds).c_str(),
                it.comm.alpha_terms);
    std::printf("  serial iteration:      %s\n",
                base::format_seconds(it.serial_s).c_str());
    std::printf("  overlapped iteration:  %s (exposed comm %s)\n",
                base::format_seconds(it.overlap.finish_s).c_str(),
                base::format_seconds(it.overlap.exposed_comm_s).c_str());
    bench.metric("timed_nodes", static_cast<double>(nodes));
    bench.metric("timed_comp_s", it.comp_s);
    bench.metric("timed_comm_s", it.comm.seconds);
    bench.metric("timed_serial_s", it.serial_s);
    bench.metric("timed_overlap_s", it.overlap.finish_s);
    bench.metric("timed_exposed_comm_s", it.overlap.exposed_comm_s);
    return 0;
  }

  if (have_faults) {
    fault::FaultSpec spec = fault::parse_fault_spec(faults);
    if (have_seed) spec.seed = seed;
    return run_fault_tolerant(net_spec, solver_spec, iterations, nodes,
                              buckets, threads, algo, compress, spec,
                              checkpoint_every, checkpoint_prefix, trace_path,
                              bench);
  }

  // The dataset must match the net's data blob.
  io::DatasetSpec dataset;
  dataset.num_samples = 8192;
  dataset.classes = 10;
  const auto& data_shape = net_spec.inputs.at(0).second;
  dataset.channels = data_shape.at(1);
  dataset.height = data_shape.at(2);
  dataset.width = data_shape.at(3);

  parallel::TrainOptions options;
  options.max_iter = iterations;
  options.display_every = std::max(1, iterations / 10);
  options.test_every = std::max(1, iterations / 3);
  options.tune = tune;
  options.plan_cache = plan_cache;

  trace::Tracer tracer;
  const bool tracing = !trace_path.empty() || trace_report;
  if (tracing) options.tracer = &tracer;

  parallel::Trainer trainer(net_spec, solver_spec, dataset, io::DiskParams{},
                            options);
  std::printf("training '%s' for %d iterations (%zu learnable floats, "
              "node batch %d)\n",
              net_spec.name.c_str(), iterations,
              trainer.net().param_count(), data_shape.at(0) * 4);
  const parallel::TrainStats stats = trainer.run();

  std::printf("\nfinal loss: %.4f\n", stats.final_loss);
  if (!stats.test_accuracy.empty()) {
    std::printf("test accuracy trajectory:");
    for (double a : stats.test_accuracy) std::printf(" %.1f%%", 100.0 * a);
    std::printf("\n");
  }
  std::printf("simulated SW26010 node time for the run: %s "
              "(exposed I/O: %s)\n",
              base::format_seconds(stats.simulated_seconds).c_str(),
              base::format_seconds(stats.simulated_io_seconds).c_str());
  if (tune) {
    const double def = stats.default_compute_per_iter_seconds;
    const double tuned = stats.compute_per_iter_seconds;
    std::printf("swtune compute per iteration: %s tuned vs %s default "
                "(%.2f%% faster)\n",
                base::format_seconds(tuned).c_str(),
                base::format_seconds(def).c_str(),
                def > 0 ? 100.0 * (def - tuned) / def : 0.0);
  }
  bench.metric("final_loss", stats.final_loss);
  bench.metric("simulated_run_s", stats.simulated_seconds);
  bench.metric("compute_per_iter_default_s",
               stats.default_compute_per_iter_seconds);
  bench.metric("compute_per_iter_s", stats.compute_per_iter_seconds);
  if (tune && stats.compute_per_iter_seconds > 0) {
    bench.metric("tune_speedup", stats.default_compute_per_iter_seconds /
                                     stats.compute_per_iter_seconds);
  }

  if (tracing) {
    if (trace_report) {
      std::printf("\nper-layer trace aggregate (all iterations):\n");
      trace::Report::build(tracer, "layer").print(std::cout);
    }
    if (!trace_path.empty()) {
      trace::save_chrome_trace(tracer, trace_path);
      std::printf("\nwrote Chrome trace to %s (open in ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
  }
  return 0;
}
