#include "serve/engine.h"

#include <utility>

#include "base/log.h"
#include "check/rules.h"
#include "check/verify.h"
#include "core/models.h"
#include "swdnn/layer_estimate.h"

namespace swcaffe::serve {

InferenceEngine::InferenceEngine(const hw::CostModel& cost,
                                 std::string model_name, ModelFn model,
                                 EngineOptions options)
    : cost_(cost),
      model_name_(std::move(model_name)),
      model_(std::move(model)),
      options_(std::move(options)) {
  SWC_CHECK_GE(options_.max_batch, 1);
  SWC_CHECK(model_);
  if (options_.tune) {
    tune::TuneOptions topts;
    topts.nodes = 1;  // serving runs a single node
    topts.cache_path = options_.plan_cache;
    topts.tracer = options_.tracer;
    topts.trace_track = kTuneTrack;
    tuner_ = std::make_unique<tune::Tuner>(cost_, std::move(topts));
  }

  batch_s_.assign(static_cast<std::size_t>(options_.max_batch) + 1, 0.0);
  for (int b = 1; b <= options_.max_batch; ++b) {
    double s = price_batch(b, tuner_.get());
    // Coalescing more requests never finishes earlier; clamping enforces the
    // monotone table the admission predicate's worst-case bound relies on
    // even if per-batch tuning produced a (model-noise) inversion.
    if (b > 1 && s < batch_s_[b - 1]) s = batch_s_[b - 1];
    batch_s_[static_cast<std::size_t>(b)] = s;
  }
  if (tuner_) {
    const tune::TuneStats& ts = tuner_->stats();
    stats_.layers_tuned = ts.layers_tuned;
    stats_.cache_hits = ts.cache_hits;
    stats_.candidates_evaluated = ts.evaluated;
    stats_.candidates_rejected = ts.rejected;
  }
}

double InferenceEngine::batch_time(int batch) const {
  SWC_CHECK_GE(batch, 1);
  SWC_CHECK_LE(batch, options_.max_batch);
  return batch_s_[static_cast<std::size_t>(batch)];
}

double InferenceEngine::price_batch(int batch, tune::Tuner* tuner) {
  const std::vector<core::LayerDesc> descs =
      core::describe_net_spec(model_(batch));
  std::map<std::string, dnn::ConvEstimate> overrides;
  if (tuner) {
    const tune::NetPlan plan = tuner->tune_net(descs);
    for (const auto& [name, conv] : plan.convs) {
      verify_tuned_plan(conv);
      ++stats_.plans_verified;
    }
    overrides = plan.overrides();
  } else {
    const check::Report report = check::verify_net(cost_, descs);
    SWC_CHECK_MSG(report.ok(), "default plans for "
                                   << model_name_ << " batch " << batch
                                   << " fail verification: "
                                   << report.summary());
  }
  const dnn::NetTimeline tl = dnn::estimate_net_timeline(cost_, descs,
                                                         overrides);
  double fwd = 0.0;
  for (const double s : tl.fwd_s) fwd += s;
  SWC_CHECK_GT(fwd, 0.0);
  return fwd;
}

void InferenceEngine::verify_tuned_plan(const tune::TunedConvPlan& plan) const {
  // Re-run the exact legality checks the tuner's candidate filter applies —
  // a plan loaded from a persistent cache bypassed that filter in this
  // process, and a stale or hand-edited cache file must not be priced.
  const hw::HwParams& hp = cost_.params();
  const core::ConvGeom gpg = plan.geom.per_group();
  const auto verify_direction = [&](const tune::DirectionChoice& choice,
                                    dnn::ConvDirection dir) {
    check::Report report;
    const check::Options opts;
    if (choice.implicit) {
      check::check_ldm(
          check::implicit_conv_ldm_plan(hp, gpg, choice.channel_block_in,
                                        choice.channel_block_out),
          hp, opts, plan.layer, &report);
      check::check_dma(check::implicit_conv_dma_plan(gpg), opts, plan.layer,
                       &report);
    } else {
      const dnn::ConvGemmShape s = dnn::explicit_gemm_shape(gpg, dir);
      report = check::verify_gemm(cost_, s.m, s.n, s.k, choice.blocking,
                                  plan.layer, opts);
    }
    SWC_CHECK_MSG(report.empty(), "tuned plan for "
                                      << plan.layer << " ("
                                      << (choice.implicit ? "implicit"
                                                          : "explicit")
                                      << ") fails verification: "
                                      << report.summary());
  };
  verify_direction(plan.forward, dnn::ConvDirection::kForward);
  verify_direction(plan.backward_weight, dnn::ConvDirection::kBackwardWeight);
  if (!plan.first_conv) {
    verify_direction(plan.backward_input, dnn::ConvDirection::kBackwardInput);
  }
}

bool InferenceEngine::save_cache(std::string* error) const {
  if (!tuner_) return true;
  return tuner_->save_cache(error);
}

}  // namespace swcaffe::serve
