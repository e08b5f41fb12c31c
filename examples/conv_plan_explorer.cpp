// Convolution plan explorer: give it a layer geometry and it prints what
// the swtune auto-tuner does on SW26010 — the candidate plan space per
// direction (with the check::-illegal ones marked), each survivor's
// simulated time, and the chosen plan — the same analysis behind Table II.
//
// This is a thin presentation layer over tune::Tuner: the search itself
// (enumeration, legality filtering, argmin) lives in src/tune/.
//
// Usage: conv_plan_explorer [batch in_c out_c image kernel stride pad]
//        (defaults: 128 256 256 56 3 1 1, i.e. VGG-16 conv3_2)
// A malformed number, a non-positive size or stride, a negative pad, a
// geometry with an empty output or a padded image beyond the int range, or
// one the tuner cannot plan (no legal explicit plan) exits 2.
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "base/log.h"
#include "base/units.h"
#include "cli_flags.h"
#include "hw/cost_model.h"
#include "swdnn/conv_plan.h"
#include "tune/tuner.h"

using namespace swcaffe;

namespace {

const char* direction_name(dnn::ConvDirection dir) {
  switch (dir) {
    case dnn::ConvDirection::kForward:
      return "forward";
    case dnn::ConvDirection::kBackwardWeight:
      return "weight gradient";
    case dnn::ConvDirection::kBackwardInput:
      return "input gradient";
  }
  return "?";
}

std::string describe_candidate(const tune::Candidate& c) {
  char buf[96];
  if (c.implicit) {
    std::snprintf(buf, sizeof(buf), "implicit cb=%d ob=%d",
                  c.channel_block_in, c.channel_block_out);
  } else {
    std::snprintf(buf, sizeof(buf), "explicit %dx%dx%d %s chunk=%d",
                  c.blocking.block_m, c.blocking.block_n, c.blocking.block_k,
                  c.blocking.double_buffered ? "db" : "sb",
                  c.blocking.bcast_chunk);
  }
  return buf;
}

std::string describe_choice(const tune::DirectionChoice& d) {
  char buf[96];
  if (d.implicit) {
    std::snprintf(buf, sizeof(buf),
                  "IMPLICIT (swDNN direct kernel, cb=%d ob=%d)",
                  d.channel_block_in, d.channel_block_out);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "EXPLICIT (im2col + mesh GEMM %dx%dx%d %s chunk=%d)",
                  d.blocking.block_m, d.blocking.block_n, d.blocking.block_k,
                  d.blocking.double_buffered ? "db" : "sb", d.blocking.bcast_chunk);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  core::ConvGeom g;
  g.batch = 128;
  g.in_c = 256;
  g.out_c = 256;
  g.in_h = g.in_w = 56;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  if (argc == 8) {
    const char* const names[] = {"batch",  "in_c",   "out_c", "image",
                                 "kernel", "stride", "pad"};
    int v[7];
    for (int i = 0; i < 7; ++i) {
      v[i] = cli::parse_number<int>(names[i], argv[i + 1]);
      const bool ok = i == 6 ? v[i] >= 0 : v[i] > 0;
      if (!ok) {
        std::fprintf(stderr, "%s must be %s, got %d\n", names[i],
                     i == 6 ? "non-negative" : "positive", v[i]);
        return cli::kExitUsage;
      }
    }
    g.batch = v[0];
    g.in_c = v[1];
    g.out_c = v[2];
    g.in_h = g.in_w = v[3];
    g.kernel = v[4];
    g.stride = v[5];
    g.pad = v[6];
    // The padded extent must fit the int geometry the output size is
    // computed in.
    const long long padded = g.in_h + 2LL * g.pad;
    if (padded > std::numeric_limits<int>::max()) {
      std::fprintf(stderr, "padded image %lld is too large\n", padded);
      return cli::kExitUsage;
    }
    if (padded < g.kernel) {
      std::fprintf(stderr,
                   "empty output: kernel %d exceeds the padded image %lld\n",
                   g.kernel, padded);
      return cli::kExitUsage;
    }
  } else if (argc != 1) {
    std::fprintf(stderr,
                 "usage: %s [batch in_c out_c image kernel stride pad]\n",
                 argv[0]);
    return cli::kExitUsage;
  }

  std::printf("conv: batch=%d %dx%dx%d -> %d channels, K=%d S=%d P=%d "
              "(output %dx%d)\n",
              g.batch, g.in_c, g.in_h, g.in_w, g.out_c, g.kernel, g.stride,
              g.pad, g.out_h(), g.out_w());
  std::printf("flops: %.2f Gflop forward (same backward per direction)\n\n",
              g.flops_fwd() / 1e9);

  hw::CostModel cost;
  tune::TuneOptions topts;
  topts.keep_candidates = true;
  tune::Tuner tuner(cost, topts);
  tune::TunedConvPlan plan;
  try {
    plan = tuner.tune_conv(g, "conv");
  } catch (const base::CheckError& e) {
    std::fprintf(stderr,
                 "cannot plan conv batch=%d in_c=%d out_c=%d image=%d "
                 "kernel=%d stride=%d pad=%d: %s\n",
                 g.batch, g.in_c, g.out_c, g.in_h, g.kernel, g.stride, g.pad,
                 e.what());
    return cli::kExitUsage;
  }

  const dnn::ConvDirection dirs[] = {dnn::ConvDirection::kForward,
                                     dnn::ConvDirection::kBackwardWeight,
                                     dnn::ConvDirection::kBackwardInput};
  const tune::DirectionChoice* choices[] = {&plan.forward,
                                            &plan.backward_weight,
                                            &plan.backward_input};
  for (int di = 0; di < 3; ++di) {
    std::printf("%s — %s\n", direction_name(dirs[di]),
                describe_choice(*choices[di]).c_str());
    std::printf("  tuned %.5f s, hand-written default %.5f s%s\n",
                choices[di]->tuned_s, choices[di]->default_s,
                choices[di]->implicit_s < 0 ? "  (implicit unsupported)" : "");
    int shown = 0, illegal = 0;
    for (const auto& c : plan.candidates) {
      if (c.direction != dirs[di]) continue;
      if (!c.legal) {
        ++illegal;
        continue;
      }
      if (shown < 8) {
        std::printf("    %-34s %.5f s\n", describe_candidate(c).c_str(),
                    c.seconds);
      }
      ++shown;
    }
    if (shown > 8) std::printf("    ... %d more legal candidates\n", shown - 8);
    if (illegal > 0) {
      std::printf("    (%d candidates rejected by the check:: rules)\n",
                  illegal);
    }
  }

  const dnn::ConvEstimate est = plan.as_estimate();
  std::printf("\nachieved Gflops (tuned plan): fwd %.1f, wgrad %.1f, igrad "
              "%.1f (CPE cluster peak: 742.4)\n",
              est.gflops_fwd, est.gflops_bwd_weight, est.gflops_bwd_input);
  std::printf("im2col/col2im transformation costs: %s / %s\n",
              base::format_seconds(dnn::im2col_time(cost, g)).c_str(),
              base::format_seconds(dnn::col2im_time(cost, g)).c_str());
  std::printf("search: %d candidates enumerated, %d priced, %d rejected\n",
              plan.space_size, plan.evaluated, plan.rejected);
  if (!dnn::implicit_forward_supported(g)) {
    std::printf("note: implicit forward needs >= 8 input channels "
                "(Sec. IV-B2 register blocking).\n");
  }
  if (!dnn::implicit_backward_supported(g)) {
    std::printf("note: implicit backward needs >= 128 channels on both "
                "sides (Table II dash pattern).\n");
  }
  return 0;
}
