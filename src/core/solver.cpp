#include "core/solver.h"

#include <cmath>
#include <cstdint>
#include <fstream>

#include "base/log.h"

namespace swcaffe::core {

SgdSolver::SgdSolver(Net& net, const SolverSpec& spec)
    : net_(&net), spec_(spec) {
  for (auto* p : net_->learnable_params()) {
    history_.emplace_back(p->count(), 0.0f);
  }
  net_->set_iteration(iter_);
}

float SgdSolver::current_lr() const {
  switch (spec_.policy) {
    case LrPolicy::kFixed:
      return spec_.base_lr;
    case LrPolicy::kStep:
      return spec_.base_lr *
             std::pow(spec_.gamma, static_cast<float>(iter_ / spec_.step_size));
    case LrPolicy::kPoly:
      return spec_.base_lr *
             std::pow(1.0f - static_cast<float>(iter_) / spec_.max_iter,
                      spec_.power);
    case LrPolicy::kInv:
      return spec_.base_lr *
             std::pow(1.0f + spec_.gamma * iter_, -spec_.power);
  }
  return spec_.base_lr;
}

namespace {

/// One parameter's update; element j's gradient is grad_at(j).
template <class GradAt>
void update_param(const SolverSpec& spec, float lr, std::span<float> data,
                  std::vector<float>& hist, GradAt grad_at) {
  for (std::size_t j = 0; j < data.size(); ++j) {
    const float g = grad_at(j) + spec.weight_decay * data[j];
    if (spec.type == SolverType::kSgd) {
      hist[j] = spec.momentum * hist[j] + lr * g;
      data[j] -= hist[j];
    } else {
      // Nesterov (Caffe semantics): look-ahead correction on the velocity.
      const float v_prev = hist[j];
      hist[j] = spec.momentum * hist[j] + lr * g;
      data[j] -= (1.0f + spec.momentum) * hist[j] - spec.momentum * v_prev;
    }
  }
}

}  // namespace

void SgdSolver::apply_update() {
  const float lr = current_lr();
  auto params = net_->learnable_params();
  SWC_CHECK_EQ(params.size(), history_.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto diff = params[i]->diff();
    update_param(spec_, lr, params[i]->data(), history_[i],
                 [&](std::size_t j) { return diff[j]; });
  }
  net_->set_iteration(++iter_);
}

void SgdSolver::apply_update(std::span<const float> grad, float scale) {
  SWC_CHECK_EQ(grad.size(), net_->param_count());
  const float lr = current_lr();
  auto params = net_->learnable_params();
  SWC_CHECK_EQ(params.size(), history_.size());
  const float* g = grad.data();
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto diff = params[i]->diff();
    update_param(spec_, lr, params[i]->data(), history_[i],
                 [&](std::size_t j) { return diff[j] = g[j] * scale; });
    g += diff.size();
  }
  net_->set_iteration(++iter_);
}

void SgdSolver::snapshot(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  SWC_CHECK_MSG(os.is_open(), "cannot open snapshot file " << path);
  const std::int64_t iter = iter_;
  os.write(reinterpret_cast<const char*>(&iter), sizeof(iter));
  std::vector<float> params(net_->param_count());
  net_->pack_params(params);
  const std::uint64_t n = params.size();
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(reinterpret_cast<const char*>(params.data()),
           static_cast<std::streamsize>(n * sizeof(float)));
  for (const auto& h : history_) {
    os.write(reinterpret_cast<const char*>(h.data()),
             static_cast<std::streamsize>(h.size() * sizeof(float)));
  }
  SWC_CHECK_MSG(os.good(), "snapshot write failed: " << path);
}

void SgdSolver::restore(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SWC_CHECK_MSG(is.is_open(), "cannot open snapshot file " << path);
  std::int64_t iter = 0;
  is.read(reinterpret_cast<char*>(&iter), sizeof(iter));
  iter_ = static_cast<int>(iter);
  net_->set_iteration(iter_);
  std::uint64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  SWC_CHECK_EQ(n, net_->param_count());
  std::vector<float> params(n);
  is.read(reinterpret_cast<char*>(params.data()),
          static_cast<std::streamsize>(n * sizeof(float)));
  net_->unpack_params(params);
  for (auto& h : history_) {
    is.read(reinterpret_cast<char*>(h.data()),
            static_cast<std::streamsize>(h.size() * sizeof(float)));
  }
  SWC_CHECK_MSG(is.good(), "snapshot read failed: " << path);
}

void SgdSolver::set_state(int iter,
                          const std::vector<std::vector<float>>& history) {
  SWC_CHECK_GE(iter, 0);
  SWC_CHECK_EQ(history.size(), history_.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    SWC_CHECK_EQ(history[i].size(), history_[i].size());
  }
  iter_ = iter;
  net_->set_iteration(iter_);
  history_ = history;
}

double SgdSolver::step() {
  const double loss = compute_gradients();
  apply_update();
  return loss;
}

}  // namespace swcaffe::core
