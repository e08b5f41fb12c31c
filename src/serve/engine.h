// swserve forward-only inference engine.
//
// The engine prices the forward pass of one network at every batch size the
// dynamic batcher may form (1 .. max_batch), using the same calibrated
// CostModel and layer estimators the training stack runs on. With tuning
// enabled, each batch size gets its own swtune plan search — the plan cache
// already keys on shape, so serving batch sizes populate (and reuse) the
// same persistent cache the training CLIs write. Cold searches surface as
// "tune.search" trace spans, warm lookups as "tune.cache_hit" instants,
// exactly as in training.
//
// Legality before pricing: every tuned per-batch-size plan is re-verified
// through the swcheck rules *before* its time enters the batch table —
// including plans loaded from a persistent cache, which otherwise bypass
// the tuner's own candidate filter (a stale or hand-edited cache file must
// not smuggle an illegal plan into the latency model). Default (untuned)
// plans are gated by check::verify_net. A verification failure throws
// base::CheckError; an illegal plan is never priced.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/spec.h"
#include "hw/cost_model.h"
#include "trace/tracer.h"
#include "tune/tuner.h"

namespace swcaffe::serve {

/// Builds the served model at one batch size (zoo nets are parameterized by
/// batch, so the engine re-derives shapes per formed batch size).
using ModelFn = std::function<core::NetSpec(int batch)>;

/// Trace track of the engine's plan search: a served run
/// (ServeOptions::tracer) records on tracks 0..2.
inline constexpr int kTuneTrack = 3;

struct EngineOptions {
  /// Largest batch the dynamic batcher may form (the batch table covers
  /// 1 .. max_batch).
  int max_batch = 8;
  /// Run the swtune plan search per batch size; without it the engine
  /// prices the hand-written default plans.
  bool tune = false;
  /// Persistent plan cache (tune only): loaded before the searches, written
  /// back by save_cache().
  std::string plan_cache;
  /// Optional trace sink for tune.search / tune.cache_hit activity, which
  /// lands on kTuneTrack.
  trace::Tracer* tracer = nullptr;
};

struct EngineStats {
  int layers_tuned = 0;   ///< cold plan searches across all batch sizes
  int cache_hits = 0;     ///< warm plan-cache lookups
  int plans_verified = 0; ///< tuned conv plans that passed swcheck re-verify
  long long candidates_evaluated = 0;
  long long candidates_rejected = 0;
};

class InferenceEngine {
 public:
  /// Builds the batch table eagerly: describe + (tune) + verify + price for
  /// every batch size in 1 .. max_batch. Throws base::CheckError when a
  /// plan fails verification.
  InferenceEngine(const hw::CostModel& cost, std::string model_name,
                  ModelFn model, EngineOptions options = {});

  /// Priced forward seconds of a batch of `batch` requests (1 .. max_batch).
  /// The table is monotone non-decreasing in the batch size by construction
  /// (coalescing more requests never finishes earlier), which the admission
  /// predicate relies on for its worst-case bound.
  double batch_time(int batch) const;

  int max_batch() const { return options_.max_batch; }
  const std::string& model_name() const { return model_name_; }
  const EngineStats& stats() const { return stats_; }
  const hw::CostModel& cost() const { return cost_; }

  /// Writes the plan cache back to EngineOptions::plan_cache (tune only;
  /// no-op without a cache path).
  bool save_cache(std::string* error = nullptr) const;

 private:
  double price_batch(int batch, tune::Tuner* tuner);
  /// Re-verifies one tuned plan through the swcheck rules (see file header).
  void verify_tuned_plan(const tune::TunedConvPlan& plan) const;

  const hw::CostModel& cost_;
  std::string model_name_;
  ModelFn model_;
  EngineOptions options_;
  std::vector<double> batch_s_;  ///< batch_s_[b] = forward seconds, b >= 1
  EngineStats stats_;
  std::unique_ptr<tune::Tuner> tuner_;  ///< kept alive for save_cache()
};

}  // namespace swcaffe::serve
