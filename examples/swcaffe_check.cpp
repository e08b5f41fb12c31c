// swcaffe_check: static plan linter for SW26010 kernel plans (swcheck) and
// whole-timeline schedules (swsched).
//
// Per-plan mode walks every layer of a network description and verifies,
// without running a single simulated cycle, that the plans the simulator
// would execute respect the hardware contracts: per-CPE LDM budgets (incl.
// double-buffering), DMA legality and byte conservation against the cost
// model, deadlock-free RLC schedules, and the implicit-convolution
// applicability rules of Table II.
//
// Timeline mode (--timeline) lifts the same discipline to whole
// discrete-event schedules: it builds the overlapped bucketed all-reduce
// timelines (k = 1..8 buckets), a short dynamic-batching serving run per
// load multiple, the fault-replay retry ladder and the composed cross-node
// collective graph for the model, runs the five swsched passes on each and
// prints one diagnostic table. `--timeline=<file.json>` verifies exported
// graphs instead of live ones.
//
// Run with --help for flags and the exit-code contract.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "base/log.h"
#include "check/plan_model.h"
#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "check/timeline_io.h"
#include "check/verify.h"
#include "core/models.h"
#include "core/proto.h"
#include "fault/resilient_comm.h"
#include "hw/cost_model.h"
#include "sched/policy.h"
#include "sched/scheduler.h"
#include "sched/workload.h"
#include "serve/arrival.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "swdnn/layer_estimate.h"
#include "topo/allreduce.h"
#include "topo/collective.h"
#include "topo/overlap.h"

using namespace swcaffe;

namespace {

// Exit-code contract (also printed by --help and documented in README.md):
//   0  silent (per-plan mode: no errors — warnings allowed;
//      timeline mode: no diagnostics at all)
//   1  diagnostics found (per-plan mode: at least one error;
//      timeline mode: any error or warning)
//   2  usage error (unknown flag, missing value, ...)
//   3  input could not be parsed (prototxt or timeline JSON)
enum ExitCode {
  kExitSilent = 0,
  kExitDiagnostics = 1,
  kExitUsage = 2,
  kExitParseFailure = 3,
};

struct NamedConfig {
  std::string label;
  std::vector<core::LayerDesc> descs;
};

core::NetSpec resolve_model(const std::string& arg, int batch, int classes,
                            int image) {
  if (arg == "alexnet") return core::alexnet_bn(batch, classes, image);
  if (arg == "alexnet-orig") {
    return core::alexnet_original(batch, classes, image);
  }
  if (arg == "vgg16") return core::vgg(16, batch, classes, image);
  if (arg == "vgg19") return core::vgg(19, batch, classes, image);
  if (arg == "resnet50") return core::resnet50(batch, classes, image);
  if (arg == "googlenet") return core::googlenet(batch, classes, image);
  return core::load_net_prototxt(arg);
}

/// Inference-geometry model factory for the serving timelines (forward
/// only, no loss layer); empty for prototxt paths, which skip the serving
/// sweep.
serve::ModelFn serving_model(const std::string& name) {
  if (name == "alexnet" || name == "alexnet-orig") {
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
  return {};
}

/// The paper's evaluated configurations (Sec. VI / Tables II-III): the
/// acceptance bar is zero errors on every one of them.
std::vector<NamedConfig> paper_configs() {
  std::vector<NamedConfig> configs;
  configs.push_back({"alexnet-bn batch 256 @227",
                     core::describe_net_spec(core::alexnet_bn(256, 1000, 227))});
  configs.push_back({"alexnet-bn batch 128 @227",
                     core::describe_net_spec(core::alexnet_bn(128, 1000, 227))});
  configs.push_back({"vgg16 batch 128 @224",
                     core::describe_net_spec(core::vgg(16, 128, 1000, 224))});
  configs.push_back({"vgg16 batch 32 @224",
                     core::describe_net_spec(core::vgg(16, 32, 1000, 224))});
  configs.push_back({"vgg19 batch 128 @224",
                     core::describe_net_spec(core::vgg(19, 128, 1000, 224))});
  return configs;
}

void print_codes() {
  using check::Code;
  static const Code kAll[] = {
      Code::kLdmOverflow,      Code::kLdmDoubleBuffer, Code::kDmaEmptyRun,
      Code::kDmaMisaligned,    Code::kDmaOverlap,      Code::kDmaBytesMismatch,
      Code::kDmaShortRun,      Code::kRlcDeadlock,     Code::kRlcIllegalPair,
      Code::kRlcUnmatched,     Code::kImplicitUnsupported,
      Code::kImplicitDegraded, Code::kPlanInconsistent, Code::kGeomInvalid,
      Code::kRetryBufferOverflow, Code::kRetryTimeout,
      Code::kBucketOrder,      Code::kBucketResendOverflow,
      Code::kCommCompressCombo, Code::kCommCompressBytes,
      Code::kCollectivePort,
      Code::kTimelineOverlap,  Code::kTimelineRace,    Code::kTimelineBytes,
      Code::kTimelineCausality, Code::kTimelineDeadline, Code::kTimelineCycle,
      Code::kTimelineGang,
  };
  static const char* kDesc[] = {
      "per-CPE working set exceeds the 64 KB LDM",
      "plan fits single-buffered only; DMA cannot overlap compute",
      "zero-length DMA run or zero-byte transfer planned",
      "DMA run/stride not a multiple of the element size",
      "DMA stride shorter than the run; transfers overlap",
      "plan bytes disagree with what the cost model charges",
      "DMA runs below the 256 B bandwidth knee (pedantic only)",
      "cycle in the RLC send/receive dependency graph",
      "P2P between CPEs sharing neither row nor column",
      "receive without a matching send, or message never drained",
      "implicit conv outside its support predicate (Table II dash)",
      "implicit conv below the 64-channel efficiency knee",
      "auto-tuner choice contradicts the support predicate",
      "invalid geometry (empty output, indivisible groups, ...)",
      "resilient-send resend buffer cannot hold the round / exceeds LDM",
      "retry ladder cannot finish before the escalation timeout",
      "all-reduce buckets do not tile the layers in order / lose bytes",
      "a bucket's buffered round exceeds the resend buffer / LDM",
      "int8 over ring/param-server would re-quantize every hop",
      "claimed wire bytes break codec conservation",
      "a rank sends or receives twice in one all-reduce round",
      "two intervals double-book one exclusive timeline resource",
      "conflicting state accesses with no happens-before path",
      "timeline events lose or invent cost-ledger bytes",
      "a consumer starts before its producer finishes",
      "proven completion exceeds the SLO / escalation deadline",
      "happens-before cycle: the schedule deadlocks",
      "a gang's events do not start/stop together (co-scheduling broken)",
  };
  std::printf("%-22s %s\n", "code", "meaning");
  for (std::size_t i = 0; i < std::size(kAll); ++i) {
    std::printf("%-22s %s\n", check::code_name(kAll[i]), kDesc[i]);
  }
}

void print_help() {
  std::printf(
      "swcaffe_check: static plan and timeline verifier\n"
      "\n"
      "usage:\n"
      "  swcaffe_check [--model M] [--batch B] [--classes C] [--image R]\n"
      "                [--nodes N] [--pedantic] [--quiet]\n"
      "  swcaffe_check --paper                 # all paper-scale configs\n"
      "  swcaffe_check --list-codes            # diagnostic code reference\n"
      "  swcaffe_check <net.prototxt>          # lint a prototxt model\n"
      "  swcaffe_check --timeline [...]        # swsched: build + verify the\n"
      "                                        # model's live schedules\n"
      "  swcaffe_check --timeline=<file.json>  # verify exported graphs\n"
      "  swcaffe_check --timeline --export-timeline out.json\n"
      "                                        # also write the graphs as JSON\n"
      "\n"
      "models: alexnet | alexnet-orig | vgg16 | vgg19 | resnet50 | googlenet\n"
      "        or a prototxt path\n"
      "\n"
      "exit codes:\n"
      "  0  silent (plan mode: no errors, warnings allowed;\n"
      "     timeline mode: no diagnostics at all)\n"
      "  1  diagnostics found (plan mode: >= 1 error;\n"
      "     timeline mode: any error or warning)\n"
      "  2  usage error\n"
      "  3  input could not be parsed (prototxt or timeline JSON)\n");
}

/// Builds the live swsched graphs of one model: overlapped all-reduce at
/// k = 1..8 buckets, a short serving run per load multiple (zoo models
/// only), the fault-replay retry ladder, and the composed cross-node
/// collective of the bucketed schedule.
std::vector<check::TimelineGraph> build_live_timelines(
    const hw::CostModel& cost, const std::string& model,
    const core::NetSpec& spec, int batch, int nodes) {
  std::vector<check::TimelineGraph> graphs;
  const std::vector<core::LayerDesc> descs = core::describe_net_spec(spec);
  const dnn::NetTimeline tl = dnn::estimate_net_timeline(cost, descs);
  std::vector<std::int64_t> layer_bytes;
  std::int64_t param_bytes = 0;
  for (const auto& d : descs) {
    layer_bytes.push_back(d.param_bytes());
    param_bytes += d.param_bytes();
  }
  const std::string label = model + " batch " + std::to_string(batch);

  topo::Topology topo;
  topo.num_nodes = nodes;
  const topo::NetParams net;
  const auto bucket_cost = [&](std::int64_t bytes) {
    return topo::cost_rhd(bytes, topo, net, topo::Placement::kAdjacent);
  };

  // Overlapped bucketed all-reduce, serial (k=1) through k=8.
  for (int k = 1; k <= 8; ++k) {
    const std::vector<topo::GradientBucket> buckets =
        topo::make_buckets(layer_bytes, k);
    const topo::OverlapTimeline overlap =
        topo::schedule_overlap(buckets, tl.bwd_s, tl.total_s, bucket_cost);
    graphs.push_back(check::timeline_from_overlap(
        label + " overlap k=" + std::to_string(k), tl.bwd_s, tl.total_s,
        overlap, param_bytes));
  }

  // The composed cross-node collective: every bucket's all-reduce schedule
  // run back to back on the cluster (the global FIFO/cycle check that no
  // per-plan rule sees).
  {
    const std::vector<topo::GradientBucket> buckets =
        topo::make_buckets(layer_bytes, 4);
    const check::CommSchedule rhd = check::comm_schedule(
        topo::rhd_schedule(nodes, static_cast<std::size_t>(nodes)),
        "allreduce.rhd");
    const std::vector<check::CommSchedule> phases(buckets.size(), rhd);
    graphs.push_back(
        check::timeline_from_comm(label + " rhd x" +
                                      std::to_string(buckets.size()) +
                                      " buckets @" + std::to_string(nodes) +
                                      " nodes",
                                  phases));
  }

  // Fault replay: the worst-case retry ladder of the resilient send path at
  // its default policy, two consecutive rounds.
  {
    const fault::RetryPolicy policy;
    check::RetryPlan plan;
    plan.name = label + " ft-resend";
    plan.round_bytes =
        std::min(param_bytes, static_cast<std::int64_t>(net.eager_limit));
    plan.resend_buffer_bytes = policy.resend_buffer_bytes;
    plan.max_attempts = policy.max_attempts;
    plan.backoff_base_s = policy.backoff_base_s;
    plan.round_time_s =
        net.alpha + static_cast<double>(plan.round_bytes) / net.link_bw;
    plan.timeout_s = policy.timeout_s;
    graphs.push_back(check::timeline_from_retry(plan, /*rounds=*/2));
  }

  // Serving under dynamic batching at 0.5x .. 8x the single-request service
  // rate (zoo models only — a prototxt has no inference factory). The short
  // Poisson runs exercise admission, queueing and batch coalescing; their
  // timelines re-derive the SLO admission bound from the records.
  if (serve::ModelFn fn = serving_model(model)) {
    serve::EngineOptions eopts;
    eopts.max_batch = 8;
    serve::InferenceEngine engine(cost, model, std::move(fn), eopts);
    const double f1 = engine.batch_time(1);
    for (const double load : {0.5, 1.0, 2.0, 4.0, 8.0}) {
      serve::ArrivalSpec aspec;
      aspec.rate = load / f1;
      aspec.duration_s = 60.0 * f1;
      aspec.seed = 7;
      serve::ServeOptions sopts;
      sopts.batcher.max_batch = 8;
      sopts.batcher.max_delay_s = 0.5 * f1;
      sopts.admission.enabled = true;
      sopts.admission.slo_s = 20.0 * f1;
      const serve::ServeResult result = serve::simulate_serving(
          engine, serve::generate_arrivals(aspec), sopts);
      check::ServingContract contract;
      contract.slo_s = sopts.admission.slo_s;
      contract.max_delay_s = sopts.batcher.max_delay_s;
      contract.max_batch = sopts.batcher.max_batch;
      contract.max_batch_forward_s = engine.batch_time(8);
      contract.admission = true;
      char suffix[32];
      std::snprintf(suffix, sizeof(suffix), " serve %.1fx", load);
      graphs.push_back(check::timeline_from_serving(
          model + suffix, result.requests, result.batches, contract));
    }
  }
  return graphs;
}

/// Builds the live cluster-schedule timelines: a burst of model-zoo jobs
/// gang-scheduled onto an 8-node partition under each policy, with
/// preemption and elastic resizing in play. Every node is an exclusive
/// resource and every dispatch a gang — double-booking, broken
/// co-scheduling and lost iterations all surface as timeline errors.
std::vector<check::TimelineGraph> build_schedule_timelines(
    const hw::CostModel& cost) {
  sched::WorkloadSpec wspec;
  wspec.arrivals.kind = serve::ArrivalKind::kTrace;
  wspec.arrivals.trace = {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5};
  wspec.seed = 11;
  wspec.widths = {2, 4};
  wspec.min_iters = 5;
  wspec.max_iters = 20;
  const std::vector<sched::JobSpec> jobs = sched::generate_workload(wspec);
  std::vector<check::TimelineGraph> graphs;
  for (const sched::Policy policy :
       {sched::Policy::kFifo, sched::Policy::kPriority,
        sched::Policy::kFairShare}) {
    sched::SchedOptions sopts;
    sopts.cluster_nodes = 8;
    sopts.supernode_size = 4;
    sopts.policy = policy;
    sopts.quantum_iters = 5;
    const sched::ScheduleResult result =
        sched::simulate_schedule(cost, jobs, sopts);
    graphs.push_back(check::timeline_from_schedule(
        std::string("cluster ") + sched::policy_name(policy) + " schedule",
        sopts.cluster_nodes, result.spans, result.jobs));
  }
  return graphs;
}

/// Verifies each graph, prints the diagnostic table and every diagnostic
/// line (unless quiet). Returns the process exit code.
int run_timeline_mode(const std::vector<check::TimelineGraph>& graphs,
                      const check::Options& opts, bool quiet,
                      const std::string& export_path) {
  if (!export_path.empty()) {
    std::ofstream out(export_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", export_path.c_str());
      return kExitUsage;
    }
    out << check::timelines_to_json(graphs);
  }
  int errors = 0, warnings = 0;
  std::printf("%-36s %7s %7s %7s %9s  %s\n", "timeline", "events", "edges",
              "errors", "warnings", "status");
  for (const check::TimelineGraph& g : graphs) {
    const check::Report report = check::verify_timeline(g, opts);
    errors += report.error_count();
    warnings += report.warning_count();
    std::printf("%-36s %7zu %7zu %7d %9d  %s\n", g.name.c_str(),
                g.events.size(), g.edges.size(), report.error_count(),
                report.warning_count(),
                report.empty() ? "silent"
                               : (report.ok() ? "warnings" : "FAIL"));
    if (!quiet && !report.empty()) report.print(std::cout);
  }
  std::printf("total: %d error(s), %d warning(s) across %zu timeline(s)\n",
              errors, warnings, graphs.size());
  return errors + warnings > 0 ? kExitDiagnostics : kExitSilent;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model = "alexnet";
  int batch = 256;
  int classes = 1000;
  int image = 227;
  int nodes = 0;
  bool paper = false;
  bool pedantic = false;
  bool quiet = false;
  bool timeline = false;
  std::string timeline_file;
  std::string export_path;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (cli::flag_value(argc, argv, i, "--model", v)) {
      model = v;
    } else if (cli::flag_number(argc, argv, i, "--batch", batch)) {
    } else if (cli::flag_number(argc, argv, i, "--classes", classes)) {
    } else if (cli::flag_number(argc, argv, i, "--image", image)) {
    } else if (cli::flag_number(argc, argv, i, "--nodes", nodes)) {
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      timeline = true;
    } else if (cli::flag_value(argc, argv, i, "--timeline", v)) {
      timeline = true;
      timeline_file = v;
    } else if (cli::flag_value(argc, argv, i, "--export-timeline", v)) {
      export_path = v;
    } else if (std::strcmp(argv[i], "--paper") == 0) {
      paper = true;
    } else if (std::strcmp(argv[i], "--pedantic") == 0) {
      pedantic = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--list-codes") == 0) {
      print_codes();
      return kExitSilent;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      print_help();
      return kExitSilent;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag %s (see --help)\n", argv[i]);
      return kExitUsage;
    } else if (positional++ == 0) {
      model = argv[i];
    } else {
      std::fprintf(stderr, "too many positional arguments\n");
      return kExitUsage;
    }
  }

  check::Options opts;
  opts.pedantic = pedantic;
  const hw::CostModel cost;

  // --- Timeline mode: exported graphs from a JSON file ----------------------
  if (timeline && !timeline_file.empty()) {
    std::ifstream in(timeline_file);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", timeline_file.c_str());
      return kExitParseFailure;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<check::TimelineGraph> graphs;
    std::string error;
    if (!check::timelines_from_json(buf.str(), &graphs, &error)) {
      std::fprintf(stderr, "%s: %s\n", timeline_file.c_str(), error.c_str());
      return kExitParseFailure;
    }
    return run_timeline_mode(graphs, opts, quiet, export_path);
  }

  // --- Timeline mode: live schedules of the configured model(s) -------------
  if (timeline) {
    const int eff_nodes = nodes > 0 ? nodes : 16;
    std::vector<std::string> models;
    if (paper) {
      models = {"alexnet", "vgg16", "resnet50"};
    } else {
      models.push_back(model);
    }
    std::vector<check::TimelineGraph> graphs;
    for (const std::string& m : models) {
      core::NetSpec spec;
      try {
        spec = resolve_model(m, batch, classes, image);
      } catch (const base::CheckError& e) {
        std::fprintf(stderr, "cannot parse model %s: %s\n", m.c_str(),
                     e.what());
        return kExitParseFailure;
      }
      const std::vector<check::TimelineGraph> g =
          build_live_timelines(cost, m, spec, batch, eff_nodes);
      graphs.insert(graphs.end(), g.begin(), g.end());
    }
    {
      const std::vector<check::TimelineGraph> g =
          build_schedule_timelines(cost);
      graphs.insert(graphs.end(), g.begin(), g.end());
    }
    return run_timeline_mode(graphs, opts, quiet, export_path);
  }

  // --- Per-plan mode ---------------------------------------------------------
  std::vector<NamedConfig> configs;
  if (paper) {
    configs = paper_configs();
  } else {
    core::NetSpec spec;
    try {
      spec = resolve_model(model, batch, classes, image);
    } catch (const base::CheckError& e) {
      std::fprintf(stderr, "cannot parse model %s: %s\n", model.c_str(),
                   e.what());
      return kExitParseFailure;
    }
    configs.push_back({spec.name + " batch " + std::to_string(batch) + " @" +
                           std::to_string(image),
                       core::describe_net_spec(spec)});
  }

  // Every distinct executed all-reduce schedule over --nodes (the two RHD
  // placements run one schedule), verified once and charged to each config.
  check::Report allreduce_report;
  if (nodes > 0) {
    for (topo::AllreduceAlgo algo : topo::kAllreduceAlgos) {
      if (algo == topo::AllreduceAlgo::kRhdAdjacent) continue;
      allreduce_report.merge(check::verify_allreduce(algo, nodes, opts));
    }
  }
  int errors = 0, warnings = 0;
  for (const NamedConfig& config : configs) {
    check::Report report = check::verify_net(cost, config.descs, opts);
    report.merge(allreduce_report);
    errors += report.error_count();
    warnings += report.warning_count();
    if (!quiet && !report.empty()) report.print(std::cout);
    std::printf("%-28s %zu layer(s): %s\n", config.label.c_str(),
                config.descs.size(), report.summary().c_str());
  }
  if (configs.size() > 1) {
    std::printf("total: %d error(s), %d warning(s)\n", errors, warnings);
  }
  return errors > 0 ? kExitDiagnostics : kExitSilent;
}
