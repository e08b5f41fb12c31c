// swcaffe_tune: the swtune driver — runs the cost-model-guided plan search
// over a network (or the paper's evaluated configurations) and prints, per
// convolution, the search-space size, the chosen plan for each pass and the
// tuned-vs-default simulated time. The search itself lives in src/tune/;
// this binary is presentation plus the CI regression gate.
//
// Usage:
//   swcaffe_tune [--model M] [--batch B] [--classes C] [--image R]
//                [--nodes N] [--plan-cache FILE] [--candidates]
//                [--json OUT] [--trace OUT] [--quiet]
//   swcaffe_tune --paper          # all paper-scale AlexNet/VGG configs
//   swcaffe_tune <net.prototxt>   # tune a prototxt model
//
// Models: alexnet | alexnet-orig | vgg16 | vgg19 | resnet50 | googlenet or a
// prototxt path. --candidates prints every plan the search priced (and how
// many the check:: rules rejected unpriced). --json writes per-layer and
// per-net default/tuned seconds as a bench_json object (BENCH_tune.json in
// CI). --trace records the tuner's own activity — one "tune.search" span per
// cold search, one "tune.cache_hit" instant per warm lookup — as a Chrome
// trace. Exit status: 0 when every tuned plan is at least as fast as the
// hand-written default under the model, 1 when any plan regressed, 2 on
// usage errors.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "../bench/bench_json.h"
#include "cli_flags.h"
#include "base/table.h"
#include "core/models.h"
#include "core/proto.h"
#include "hw/cost_model.h"
#include "trace/chrome_trace.h"
#include "trace/tracer.h"
#include "tune/tuner.h"

using namespace swcaffe;

namespace {

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

/// The paper's evaluated configurations (Sec. VI / Tables II-III), same set
/// as swcaffe_check --paper: the CI gate runs the tuner over all of them.
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

/// "impl cb=32 ob=32" or "exp 256x512x256 db c1" — one table cell.
std::string plan_cell(const tune::DirectionChoice& d) {
  char buf[64];
  if (d.implicit) {
    std::snprintf(buf, sizeof(buf), "impl cb=%d ob=%d", d.channel_block_in,
                  d.channel_block_out);
  } else {
    std::snprintf(buf, sizeof(buf), "exp %dx%dx%d %s c%d", d.blocking.block_m,
                  d.blocking.block_n, d.blocking.block_k,
                  d.blocking.double_buffered ? "db" : "sb",
                  d.blocking.bcast_chunk);
  }
  return buf;
}

std::string candidate_cell(const tune::Candidate& c) {
  char buf[64];
  if (c.implicit) {
    std::snprintf(buf, sizeof(buf), "impl cb=%d ob=%d", c.channel_block_in,
                  c.channel_block_out);
  } else {
    std::snprintf(buf, sizeof(buf), "exp %dx%dx%d %s c%d", c.blocking.block_m,
                  c.blocking.block_n, c.blocking.block_k,
                  c.blocking.double_buffered ? "db" : "sb",
                  c.blocking.bcast_chunk);
  }
  return buf;
}

const char* direction_name(dnn::ConvDirection dir) {
  switch (dir) {
    case dnn::ConvDirection::kForward:
      return "fwd";
    case dnn::ConvDirection::kBackwardWeight:
      return "wgrad";
    case dnn::ConvDirection::kBackwardInput:
      return "igrad";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::string model = "alexnet";
  int batch = 256;
  int classes = 1000;
  int image = 227;
  int nodes = 1;
  bool paper = false;
  bool quiet = false;
  bool show_candidates = false;
  std::string plan_cache;
  std::string trace_path;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (cli::flag_value(argc, argv, i, "--model", v)) {
      model = v;
    } else if (cli::flag_number(argc, argv, i, "--batch", batch)) {
    } else if (cli::flag_number(argc, argv, i, "--classes", classes)) {
    } else if (cli::flag_number(argc, argv, i, "--image", image)) {
    } else if (cli::flag_number(argc, argv, i, "--nodes", nodes)) {
    } else if (cli::flag_value(argc, argv, i, "--plan-cache", v)) {
      plan_cache = v;
    } else if (cli::flag_value(argc, argv, i, "--trace", v)) {
      trace_path = v;
    } else if (cli::flag_value(argc, argv, i, "--json", v)) {
      // Value re-parsed by JsonBench; consumed here so it isn't positional.
    } else if (std::strcmp(argv[i], "--paper") == 0) {
      paper = true;
    } else if (std::strcmp(argv[i], "--candidates") == 0) {
      show_candidates = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    } else if (positional++ == 0) {
      model = argv[i];
    } else {
      std::fprintf(stderr, "too many positional arguments\n");
      return 2;
    }
  }

  bench::JsonBench bench("swcaffe_tune", argc, argv);

  std::vector<NamedConfig> configs;
  if (paper) {
    configs = paper_configs();
  } else {
    core::NetSpec spec = resolve_model(model, batch, classes, image);
    configs.push_back({spec.name + " batch " + std::to_string(batch) + " @" +
                           std::to_string(image),
                       core::describe_net_spec(spec)});
  }

  const hw::CostModel cost;
  trace::Tracer tracer;
  tracer.set_track_name(0, "mpe-tuner");

  int regressions = 0;
  for (const NamedConfig& config : configs) {
    tune::TuneOptions topts;
    topts.nodes = nodes;
    topts.cache_path = plan_cache;
    topts.keep_candidates = show_candidates;
    if (!trace_path.empty()) topts.tracer = &tracer;
    tune::Tuner tuner(cost, topts);
    const tune::NetPlan plan = tuner.tune_net(config.descs);
    std::string cache_error;
    if (!tuner.save_cache(&cache_error)) {
      std::fprintf(stderr, "swtune: %s\n", cache_error.c_str());
    }

    const std::string key = bench::metric_key(config.label);
    base::TablePrinter t({"layer", "space", "default (s)", "tuned (s)", "gain",
                          "fwd plan", "wgrad plan", "igrad plan"});
    // Tuned layers print in network order, not map order.
    for (const auto& d : config.descs) {
      auto it = plan.convs.find(d.name);
      if (it == plan.convs.end()) continue;
      const tune::TunedConvPlan& p = it->second;
      const double def = p.default_total();
      const double tuned = p.tuned_total();
      if (tuned > def) {
        ++regressions;
        std::fprintf(stderr, "REGRESSION: %s %s tuned %.6fs > default %.6fs\n",
                     config.label.c_str(), p.layer.c_str(), tuned, def);
      }
      char space[32], gain[32];
      std::snprintf(space, sizeof(space), "%d", p.space_size);
      std::snprintf(gain, sizeof(gain), "%.1f%%",
                    def > 0 ? 100.0 * (def - tuned) / def : 0.0);
      t.add_row({p.layer + (p.from_cache ? " (cached)" : ""), space,
                 base::fmt(def, 5), base::fmt(tuned, 5), gain,
                 plan_cell(p.forward), plan_cell(p.backward_weight),
                 p.first_conv ? "-" : plan_cell(p.backward_input)});
      bench.metric(key + "_" + bench::metric_key(p.layer) + "_default_s", def);
      bench.metric(key + "_" + bench::metric_key(p.layer) + "_tuned_s", tuned);

      if (show_candidates && !quiet) {
        std::printf("%s candidates:\n", p.layer.c_str());
        for (const auto& c : p.candidates) {
          if (c.legal) {
            std::printf("  %-6s %-24s %.6f s\n", direction_name(c.direction),
                        candidate_cell(c).c_str(), c.seconds);
          } else {
            std::printf("  %-6s %-24s rejected by check::\n",
                        direction_name(c.direction), candidate_cell(c).c_str());
          }
        }
      }
    }
    if (!quiet) t.print(std::cout);
    const double net_def = plan.default_total();
    const double net_tuned = plan.tuned_total();
    std::printf("%-28s %zu conv layer(s): default %.4fs tuned %.4fs "
                "(%.2f%% faster), %lld candidates priced, %lld rejected, "
                "%d cache hit(s)\n",
                config.label.c_str(), plan.convs.size(), net_def, net_tuned,
                net_def > 0 ? 100.0 * (net_def - net_tuned) / net_def : 0.0,
                tuner.stats().evaluated, tuner.stats().rejected,
                tuner.stats().cache_hits);
    bench.metric(key + "_net_default_s", net_def);
    bench.metric(key + "_net_tuned_s", net_tuned);
    bench.metric(key + "_speedup", net_tuned > 0 ? net_def / net_tuned : 1.0);
  }

  if (!trace_path.empty()) {
    trace::save_chrome_trace(tracer, trace_path);
    std::printf("wrote Chrome trace to %s\n", trace_path.c_str());
  }
  if (regressions > 0) {
    std::fprintf(stderr, "%d tuned plan(s) regressed vs the default\n",
                 regressions);
    return 1;
  }
  return 0;
}
