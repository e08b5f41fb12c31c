#include "parallel/node_runner.h"

#include <algorithm>
#include <string>
#include <thread>

#include "base/log.h"
#include "check/verify.h"

namespace swcaffe::parallel {

SimpleSync::SimpleSync(int parties) : parties_(parties) {
  SWC_CHECK_GT(parties, 0);
}

void SimpleSync::arrive_and_wait() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::int64_t gen = generation_;
  if (++arrived_ == parties_) {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lock, [&] { return generation_ != gen; });
}

NodeRunner::NodeRunner(const core::NetSpec& spec, int num_core_groups,
                       std::uint64_t seed) {
  SWC_CHECK_GT(num_core_groups, 0);
  for (int i = 0; i < num_core_groups; ++i) {
    nets_.push_back(std::make_unique<core::Net>(spec, seed));
  }
  for (int i = 1; i < num_core_groups; ++i) {
    nets_[i]->copy_params_from(*nets_[0]);
  }
#ifndef NDEBUG
  // Debug builds statically verify the plans all core groups are about to
  // execute (every CG runs the same net, so checking the master suffices).
  const check::Report report =
      check::verify_net(hw::CostModel{}, nets_[0]->describe());
  SWC_CHECK_MSG(report.ok(), "swcheck rejected the net: " << report.summary());
#endif
}

double NodeRunner::compute_gradients(std::span<const float> data,
                                     std::span<const float> labels) {
  const int cgs = num_core_groups();
  const std::size_t data_per_cg = nets_[0]->blob("data")->count();
  const std::size_t labels_per_cg = nets_[0]->blob("label")->count();
  SWC_CHECK_EQ(data.size(), data_per_cg * cgs);
  SWC_CHECK_EQ(labels.size(), labels_per_cg * cgs);

  std::vector<double> losses(cgs, 0.0);
  SimpleSync sync(cgs);
  // Paper Fig. 5: pthread_create at iteration start, join at the end; the
  // handshake barrier marks "all gradients ready" before CG0 reduces.
  std::vector<std::thread> threads;
  threads.reserve(cgs);
  for (int cg = 0; cg < cgs; ++cg) {
    threads.emplace_back([&, cg] {
      core::Net& net = *nets_[cg];
      const auto d = net.blob("data")->data();
      const auto l = net.blob("label")->data();
      std::copy_n(data.begin() + cg * data_per_cg, data_per_cg, d.begin());
      std::copy_n(labels.begin() + cg * labels_per_cg, labels_per_cg,
                  l.begin());
      losses[cg] = net.forward_backward();
      sync.arrive_and_wait();
      if (cg == 0) {
        // CG0 sums the replicas' gradients (Algorithm 1 line 8).
        const std::size_t n = net.param_count();
        std::vector<float> acc(n), other(n);
        net.pack_param_diffs(acc);
        for (int j = 1; j < cgs; ++j) {
          nets_[j]->pack_param_diffs(other);
          for (std::size_t i = 0; i < n; ++i) acc[i] += other[i];
        }
        const float inv = 1.0f / cgs;
        for (auto& v : acc) v *= inv;
        net.unpack_param_diffs(acc);
      }
      sync.arrive_and_wait();
    });
  }
  for (auto& t : threads) t.join();

  if (tracer_ != nullptr) {
    // All CGs run the same net on the same sub-batch size, so they advance
    // in lockstep for sim_iter_seconds_ starting at the node clock.
    const double t0 = tracer_->now(node_track_);
    for (int cg = 0; cg < cgs; ++cg) {
      const int track = base_track_ + cg;
      tracer_->set_clock(track, t0);
      tracer_->begin_span(track, "forward_backward", "train.cg");
      tracer_->end_span(track, sim_iter_seconds_);
    }
    // CG0 averages after the barrier; its clock is now at iteration end.
    tracer_->set_clock(base_track_, t0 + sim_iter_seconds_);
    tracer_->instant(base_track_, "grad.average", "train.phase");
  }

  double loss = 0.0;
  for (double l : losses) loss += l;
  return loss / cgs;
}

void NodeRunner::broadcast_params() {
  for (int i = 1; i < num_core_groups(); ++i) {
    nets_[i]->copy_params_from(*nets_[0]);
  }
  if (tracer_ != nullptr) {
    tracer_->instant(base_track_, "params.broadcast", "train.phase");
  }
}

void NodeRunner::set_tracer(trace::Tracer* tracer, double sim_iter_seconds,
                            int node_track, int base_track) {
  tracer_ = tracer;
  sim_iter_seconds_ = sim_iter_seconds;
  node_track_ = node_track;
  base_track_ = base_track;
  if (tracer_ != nullptr) {
    for (int cg = 0; cg < num_core_groups(); ++cg) {
      tracer_->set_track_name(base_track_ + cg, "cg" + std::to_string(cg));
    }
  }
}

}  // namespace swcaffe::parallel
