#include "parallel/trainer.h"

#include <algorithm>

#include "base/log.h"
#include "check/verify.h"
#include "swdnn/layer_estimate.h"
#include "tune/tuner.h"

namespace swcaffe::parallel {

Trainer::Trainer(const core::NetSpec& spec, const core::SolverSpec& solver,
                 const io::DatasetSpec& dataset, const io::DiskParams& disk,
                 const TrainOptions& options)
    : options_(options), eval_data_(dataset) {
  SWC_CHECK_GT(options_.max_iter, 0);
  runner_ = std::make_unique<NodeRunner>(spec);
  solver_ = std::make_unique<core::SgdSolver>(runner_->master(), solver);
  const int node_batch =
      runner_->master().blob("label")->dim(0) * runner_->num_core_groups();
  prefetcher_ = std::make_unique<io::Prefetcher>(
      dataset, disk, io::FileLayout::kStriped, node_batch, /*rank=*/0,
      /*num_procs=*/1);
  // One core group's simulated compute per iteration (Algorithm 1: the four
  // CGs run concurrently, so this IS the node's compute time).
  descs_ = runner_->master().describe();
  // Pre-validate every kernel plan the simulation will run (swcheck): a
  // violated hardware contract surfaces here as one structured report
  // instead of an Ldm::alloc throw mid-iteration.
  const check::Report report = check::verify_net(cost_, descs_);
  if (!report.empty()) {
    SWC_LOG(kWarning, "swcheck: " << report.summary());
  }
#ifndef NDEBUG
  SWC_CHECK_MSG(report.ok(), "swcheck rejected the net: " << report.summary());
#endif
  sim_compute_default_ = dnn::estimate_net_sw(cost_, descs_);
  sim_compute_per_iter_ = sim_compute_default_;
  if (options_.tune) {
    // swtune: search the plan space per conv layer (or hit the cache), then
    // switch every replica onto the tuned strategies so the functional run
    // and the timing model agree on what executes.
    tune::TuneOptions topts;
    topts.cache_path = options_.plan_cache;
    topts.tracer = options_.tracer;
    tune::Tuner tuner(cost_, topts);
    const tune::NetPlan plan = tuner.tune_net(descs_);
    std::string cache_error;
    if (!tuner.save_cache(&cache_error)) {
      SWC_LOG(kWarning, "swtune: " << cache_error);
    }
    overrides_ = plan.overrides();
    const auto assignments = plan.assignments();
    for (int cg = 0; cg < runner_->num_core_groups(); ++cg) {
      runner_->replica(cg).apply_conv_plans(assignments);
    }
    sim_compute_per_iter_ = dnn::estimate_net_sw(cost_, descs_, overrides_);
    SWC_LOG(kInfo, "swtune: " << plan.convs.size() << " conv layers, "
                              << tuner.stats().cache_hits << " cache hits, "
                              << "compute/iter " << sim_compute_default_
                              << "s -> " << sim_compute_per_iter_ << "s");
  }
  if (options_.tracer != nullptr) {
    options_.tracer->set_track_name(0, "node");
    runner_->set_tracer(options_.tracer, sim_compute_per_iter_,
                        /*node_track=*/0, /*base_track=*/1);
  }
}

double Trainer::evaluate(int batches) {
  core::Net& net = runner_->master();
  net.set_phase(core::Phase::kTest);
  const tensor::Tensor& data_blob = *net.blob("data");
  const int batch = data_blob.dim(0);
  const std::size_t img = data_blob.count() / batch;
  std::vector<float> image;
  int hits = 0, total = 0;
  std::int64_t index = 1;  // deterministic eval stream
  for (int bi = 0; bi < batches; ++bi) {
    const auto d = net.blob("data")->data();
    const auto l = net.blob("label")->data();
    for (int b = 0; b < batch; ++b) {
      eval_data_.fill_image(index % eval_data_.spec().num_samples, image);
      std::copy(image.begin(), image.end(), d.begin() + b * img);
      l[b] = static_cast<float>(
          eval_data_.label_of(index % eval_data_.spec().num_samples));
      index += 17;
    }
    net.forward();
    // Argmax over whichever blob feeds the loss: use "scores" if present.
    const char* score_blob = net.has_blob("scores") ? "scores" : "fc8";
    if (!net.has_blob(score_blob)) {
      net.set_phase(core::Phase::kTrain);
      return 0.0;  // no conventional score blob; skip accuracy
    }
    const tensor::Tensor& scores = *net.blob(score_blob);
    const int classes = static_cast<int>(scores.count()) / batch;
    for (int b = 0; b < batch; ++b) {
      int best = 0;
      for (int c = 1; c < classes; ++c) {
        if (scores.data()[b * classes + c] > scores.data()[b * classes + best]) {
          best = c;
        }
      }
      hits += best == static_cast<int>(l[b]);
      ++total;
    }
  }
  net.set_phase(core::Phase::kTrain);
  return total > 0 ? static_cast<double>(hits) / total : 0.0;
}

TrainStats Trainer::run() {
  TrainStats stats;
  stats.compute_per_iter_seconds = sim_compute_per_iter_;
  stats.default_compute_per_iter_seconds = sim_compute_default_;
  trace::Tracer* const tracer = options_.tracer;
  for (int iter = 0; iter < options_.max_iter; ++iter) {
    const io::Batch batch = prefetcher_->pop();
    double iter_t0 = 0.0;
    if (tracer != nullptr) {
      iter_t0 = tracer->now(0);
      tracer->begin_span(0, "iteration", "train.iteration");
    }
    const double loss = runner_->compute_gradients(batch.images, batch.labels);
    solver_->apply_update();
    runner_->broadcast_params();
    if (tracer != nullptr) {
      // Per-layer detail: replay the layer estimator with a traced copy of
      // the cost model. The replay is deterministic, so the layer spans sum
      // to sim_compute_per_iter_ (up to association order; snapped below).
      tracer->begin_span(0, "compute", "train.phase");
      hw::CostModel traced = cost_;
      traced.set_tracer(tracer, 0);
      dnn::estimate_net_sw(traced, descs_, overrides_);
      const double compute_end = iter_t0 + sim_compute_per_iter_;
      if (compute_end > tracer->now(0)) tracer->set_clock(0, compute_end);
      tracer->end_span(0);
      if (batch.simulated_read_s > sim_compute_per_iter_) {
        tracer->begin_span(0, "io.exposed", "train.io");
        tracer->end_span(0, batch.simulated_read_s - sim_compute_per_iter_);
      }
      tracer->counter(0, trace::kCounterLoss, loss);
      tracer->end_span(0);  // iteration
    }

    // Simulated node time: prefetch overlaps I/O with the previous
    // iteration's compute, so the exposed I/O is only the excess.
    stats.simulated_seconds +=
        std::max(sim_compute_per_iter_, batch.simulated_read_s);
    stats.simulated_io_seconds +=
        std::max(0.0, batch.simulated_read_s - sim_compute_per_iter_);
    stats.final_loss = loss;
    ++stats.iterations;

    if (options_.display_every > 0 && iter % options_.display_every == 0) {
      stats.losses.push_back(loss);
      SWC_LOG(kInfo, "iter " << iter << " loss " << loss << " lr "
                             << solver_->current_lr());
    }
    if (options_.test_every > 0 && (iter + 1) % options_.test_every == 0) {
      stats.test_accuracy.push_back(evaluate(options_.test_batches));
    }
    if (options_.snapshot_every > 0 &&
        (iter + 1) % options_.snapshot_every == 0) {
      solver_->snapshot(options_.snapshot_prefix + "_iter_" +
                        std::to_string(iter + 1) + ".snap");
    }
  }
  return stats;
}

}  // namespace swcaffe::parallel
