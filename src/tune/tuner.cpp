#include "tune/tuner.h"

#include <algorithm>

#include "base/log.h"
#include "check/verify.h"
#include "tune/search_space.h"

namespace swcaffe::tune {

namespace {

/// Modeled MPE-side cost of pricing one candidate: the closed-form model is
/// a few hundred scalar operations, so a search over ~1000 candidates costs
/// ~2 ms of simulated time — visible in traces, negligible next to a single
/// training iteration, and entirely absent on a warm cache.
constexpr double kCandidateEvalS = 2.0e-6;

}  // namespace

Tuner::Tuner(const hw::CostModel& cost, TuneOptions options)
    : cost_(cost), options_(std::move(options)), cache_(cost.params()) {
  if (!options_.cache_path.empty()) {
    // A missing/stale/foreign cache is not an error: it downgrades to a cold
    // search and save_cache() rewrites the file in the current format.
    std::string error;
    cache_.load(options_.cache_path, &error);
  }
}

DirectionChoice Tuner::tune_direction(const core::ConvGeom& gpg,
                                      dnn::ConvDirection dir, int group,
                                      TunedConvPlan* plan) {
  const hw::HwParams& hp = cost_.params();
  DirectionChoice choice;
  const dnn::ConvGemmShape s = dnn::explicit_gemm_shape(gpg, dir);

  // --- Explicit path: search the GEMM blocking space ------------------------
  // The hand-written default blocking is priced first (the enumeration also
  // starts from GemmBlocking{}, but after a default-plan fix the two can
  // differ), so the argmin can never exceed what estimate_conv charges.
  std::vector<gemm::GemmBlocking> blockings =
      gemm_blocking_candidates(hp, s.m, s.n, s.k);
  const gemm::GemmBlocking default_blocking =
      dnn::default_conv_gemm_blocking(s.m, s.n, s.k);
  if (!(blockings.front() == default_blocking)) {
    blockings.insert(blockings.begin(), default_blocking);
  }
  plan->space_size += static_cast<int>(blockings.size());
  double best_explicit = -1.0;
  for (const gemm::GemmBlocking& b : blockings) {
    const check::Report report =
        check::verify_gemm(cost_, s.m, s.n, s.k, b, plan->layer);
    const bool legal = report.empty();
    double seconds = -1.0;
    if (legal) {
      seconds = group * dnn::explicit_conv_time(cost_, gpg, dir, &b);
      ++plan->evaluated;
      if (best_explicit < 0.0 || seconds < best_explicit) {
        best_explicit = seconds;
        choice.blocking = b;
      }
    } else {
      ++plan->rejected;
    }
    if (options_.keep_candidates) {
      Candidate c;
      c.direction = dir;
      c.implicit = false;
      c.blocking = b;
      c.legal = legal;
      c.seconds = seconds;
      plan->candidates.push_back(c);
    }
  }
  // The default blocking satisfies the LDM/DMA contracts on every verified
  // paper net, but an extreme geometry (a 2e9-pixel image) can leave no
  // legal blocking at all; that is an error the caller must see, not a
  // plan.
  SWC_CHECK_MSG(best_explicit >= 0.0,
                "no legal explicit plan for " << plan->layer << ": all "
                                              << blockings.size()
                                              << " GEMM blockings fail the "
                                                 "check:: rules");
  choice.explicit_s = best_explicit;

  // --- Implicit path: search the channel tiling space -----------------------
  // The model's implicit time is tiling-independent (tilings trade LDM for
  // channel passes at equal traffic), so the search wants the largest tiling
  // the LDM rules accept; candidates come largest-first.
  const double implicit_raw = dnn::implicit_conv_time(cost_, gpg, dir);
  bool implicit_legal = false;
  if (implicit_raw >= 0.0) {
    choice.implicit_s = group * implicit_raw;
    const std::vector<ImplicitBlocking> tilings =
        implicit_blocking_candidates(hp, gpg);
    plan->space_size += static_cast<int>(tilings.size());
    for (const ImplicitBlocking& t : tilings) {
      check::Report report;
      const check::Options opts;
      check::check_ldm(
          check::implicit_conv_ldm_plan(hp, gpg, t.channel_block_in,
                                        t.channel_block_out),
          hp, opts, plan->layer, &report);
      check::check_dma(check::implicit_conv_dma_plan(gpg), opts, plan->layer,
                       &report);
      const bool legal = report.empty();
      if (legal) {
        ++plan->evaluated;
      } else {
        ++plan->rejected;
      }
      if (options_.keep_candidates) {
        Candidate c;
        c.direction = dir;
        c.implicit = true;
        c.channel_block_in = t.channel_block_in;
        c.channel_block_out = t.channel_block_out;
        c.legal = legal;
        c.seconds = legal ? choice.implicit_s : -1.0;
        plan->candidates.push_back(c);
      }
      if (legal && !implicit_legal) {
        implicit_legal = true;
        choice.channel_block_in = t.channel_block_in;
        choice.channel_block_out = t.channel_block_out;
        if (!options_.keep_candidates) break;  // larger tilings all scanned
      }
    }
  }

  choice.implicit =
      implicit_legal && choice.implicit_s < choice.explicit_s;
  choice.tuned_s = choice.implicit ? choice.implicit_s : choice.explicit_s;
  return choice;
}

TunedConvPlan Tuner::tune_conv(const core::ConvGeom& g, const std::string& name,
                               bool first_conv) {
  trace::Tracer* tr = options_.tracer;
  const int track = options_.trace_track;
  if (const TunedConvPlan* hit = cache_.find(g, first_conv, options_.nodes)) {
    ++stats_.cache_hits;
    if (tr) {
      tr->instant(track, "tune cache hit: " + name, "tune.cache_hit");
      tr->counter(track, "tune.cache_hits",
                  static_cast<double>(stats_.cache_hits));
    }
    TunedConvPlan plan = *hit;
    plan.layer = name;
    plan.from_cache = true;
    return plan;
  }

  TunedConvPlan plan;
  plan.layer = name;
  plan.geom = g;
  plan.first_conv = first_conv;
  plan.nodes = options_.nodes;
  if (tr) tr->begin_span(track, "tune " + name, "tune.search");

  const core::ConvGeom gpg = g.per_group();
  const dnn::ConvEstimate def = dnn::estimate_conv(cost_, g);
  plan.forward =
      tune_direction(gpg, dnn::ConvDirection::kForward, g.group, &plan);
  plan.forward.default_s = def.forward.best();
  plan.backward_weight =
      tune_direction(gpg, dnn::ConvDirection::kBackwardWeight, g.group, &plan);
  plan.backward_weight.default_s = def.backward_weight.best();
  plan.backward_input =
      tune_direction(gpg, dnn::ConvDirection::kBackwardInput, g.group, &plan);
  plan.backward_input.default_s = def.backward_input.best();

  ++stats_.layers_tuned;
  stats_.evaluated += plan.evaluated;
  stats_.rejected += plan.rejected;
  if (tr) {
    tr->counter(track, "tune.candidates_evaluated",
                static_cast<double>(plan.evaluated));
    tr->counter(track, "tune.candidates_rejected",
                static_cast<double>(plan.rejected));
    tr->end_span(track, plan.evaluated * kCandidateEvalS);
  }
  cache_.put(plan);
  return plan;
}

NetPlan Tuner::tune_net(const std::vector<core::LayerDesc>& descs) {
  NetPlan plan;
  bool saw_conv = false;
  for (const core::LayerDesc& d : descs) {
    if (d.kind != core::LayerKind::kConv) continue;
    const bool first_conv = !saw_conv;
    saw_conv = true;
    plan.convs.emplace(d.name, tune_conv(d.conv, d.name, first_conv));
  }
  return plan;
}

bool Tuner::save_cache(std::string* error) const {
  if (options_.cache_path.empty()) return true;  // nothing to persist
  return cache_.save(options_.cache_path, error);
}

}  // namespace swcaffe::tune
