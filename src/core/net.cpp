#include "core/net.h"

#include <algorithm>

#include "base/log.h"
#include "core/layers.h"
#include "tensor/filler.h"

namespace swcaffe::core {

Net::Net(const NetSpec& spec, std::optional<std::uint64_t> seed)
    : spec_(spec) {
  draws_.seed = seed.value_or(1);
  std::map<std::string, bool> blob_needs_grad;

  auto get_blob = [&](const std::string& name) -> tensor::Tensor* {
    auto it = blobs_.find(name);
    if (it == blobs_.end()) {
      it = blobs_.emplace(name, std::make_unique<tensor::Tensor>()).first;
    }
    return it->second.get();
  };

  for (const auto& [name, shape] : spec_.inputs) {
    get_blob(name)->reshape(shape);
    // Label inputs carry no gradient; data-like inputs do (Caffe's
    // force_backward semantics — gradient checks and adversarial uses read
    // d(loss)/d(input)).
    blob_needs_grad[name] = name.find("label") == std::string::npos;
  }

  for (const auto& ls : spec_.layers) {
    auto layer = create_layer(ls);
    std::vector<tensor::Tensor*> bottoms, tops;
    for (const auto& b : ls.bottoms) {
      SWC_CHECK_MSG(blobs_.count(b) > 0,
                    "net '" << spec_.name << "': layer '" << ls.name
                            << "' uses undefined bottom blob '" << b << "'");
      bottoms.push_back(get_blob(b));
    }
    for (const auto& t : ls.tops) {
      SWC_CHECK_MSG(blobs_.count(t) == 0,
                    "net '" << spec_.name << "': top blob '" << t
                            << "' defined twice (in-place not supported)");
      tops.push_back(get_blob(t));
    }
    layer->setup(bottoms, tops);

    std::vector<bool> prop(bottoms.size(), false);
    bool any_bottom_grad = false;
    for (std::size_t i = 0; i < ls.bottoms.size(); ++i) {
      prop[i] = blob_needs_grad[ls.bottoms[i]];
      any_bottom_grad = any_bottom_grad || prop[i];
    }
    const bool produces_grad = any_bottom_grad || !layer->params().empty();
    for (const auto& t : ls.tops) blob_needs_grad[t] = produces_grad;

    layer_needs_backward_.push_back(produces_grad);
    prop_down_.push_back(std::move(prop));
    bottoms_.push_back(std::move(bottoms));
    tops_.push_back(std::move(tops));
    layers_.push_back(std::move(layer));
  }
  if (seed) draw_params(*seed);
}

void Net::draw_params(std::uint64_t seed, sim::ThreadPool* pool) {
  // Chunks of at most kChunk elements of one parameter: small enough to
  // balance a few large fully connected weights across the pool.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  struct Chunk {
    tensor::Tensor* param;
    tensor::FillerSpec spec;
    base::Key key;
    std::size_t first, count;
  };
  const base::Key net_key(seed, base::Site::kFiller);
  std::vector<Chunk> chunks;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const auto& params = layers_[l]->params();
    const std::vector<tensor::FillerSpec> fillers =
        layers_[l]->param_fillers();
    SWC_CHECK_EQ(fillers.size(), params.size());
    const base::Key layer_key = net_key.then(l);
    for (std::size_t p = 0; p < params.size(); ++p) {
      const std::size_t n = params[p]->count();
      for (std::size_t first = 0; first < n; first += kChunk) {
        chunks.push_back({params[p].get(), fillers[p], layer_key.then(p),
                          first, std::min(kChunk, n - first)});
      }
    }
  }
  auto body = [&](int c) {
    const Chunk& k = chunks[static_cast<std::size_t>(c)];
    tensor::fill_range(k.spec, k.param->shape(), k.key, k.first,
                       k.param->data().subspan(k.first, k.count));
  };
  const int n = static_cast<int>(chunks.size());
  if (pool != nullptr) {
    pool->parallel_for(0, n, body);
  } else {
    for (int c = 0; c < n; ++c) body(c);
  }
  for (auto& l : layers_) l->after_draw();
}

void Net::set_stream(std::uint64_t seed, int replica) {
  draws_.seed = seed;
  draws_.replica = replica;
}

double Net::forward() {
  double loss = 0.0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    draws_.layer = static_cast<int>(i);
    layers_[i]->set_draw_coords(draws_);
    layers_[i]->forward(bottoms_[i], tops_[i]);
    if (layers_[i]->loss_weight() > 0.0) {
      loss += layers_[i]->loss_weight() * tops_[i][0]->data()[0];
    }
  }
  return loss;
}

void Net::backward() {
  for (auto& [name, blob] : blobs_) {
    (void)name;
    blob->zero_diff();
  }
  // Seed loss layers with unit gradient on their scalar output.
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i]->loss_weight() > 0.0) {
      tops_[i][0]->diff()[0] = static_cast<float>(layers_[i]->loss_weight());
    }
  }
  for (std::size_t i = layers_.size(); i-- > 0;) {
    if (!layer_needs_backward_[i]) continue;
    layers_[i]->backward(tops_[i], bottoms_[i], prop_down_[i]);
  }
}

double Net::forward_backward() {
  const double loss = forward();
  zero_param_diffs();
  backward();
  return loss;
}

void Net::set_phase(Phase phase) {
  phase_ = phase;
  for (auto& l : layers_) l->set_phase(phase);
}

tensor::Tensor* Net::blob(const std::string& name) {
  auto it = blobs_.find(name);
  SWC_CHECK_MSG(it != blobs_.end(), "unknown blob '" << name << "'");
  return it->second.get();
}

const tensor::Tensor* Net::blob(const std::string& name) const {
  auto it = blobs_.find(name);
  SWC_CHECK_MSG(it != blobs_.end(), "unknown blob '" << name << "'");
  return it->second.get();
}

bool Net::has_blob(const std::string& name) const {
  return blobs_.count(name) > 0;
}

Layer* Net::layer(const std::string& name) {
  for (auto& l : layers_) {
    if (l->name() == name) return l.get();
  }
  SWC_CHECK_MSG(false, "unknown layer '" << name << "'");
  return nullptr;
}

std::vector<tensor::Tensor*> Net::learnable_params() {
  std::vector<tensor::Tensor*> out;
  for (auto& l : layers_) {
    for (auto& p : l->params()) out.push_back(p.get());
  }
  return out;
}

std::size_t Net::activation_bytes() const {
  std::size_t bytes = 0;
  for (const auto& [name, blob] : blobs_) {
    (void)name;
    bytes += blob->count() * sizeof(float);
  }
  return bytes;
}

std::size_t Net::param_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) {
    for (const auto& p : l->params()) n += p->count();
  }
  return n;
}

void Net::zero_param_diffs() {
  for (auto& l : layers_) {
    for (auto& p : l->params()) p->zero_diff();
  }
}

void Net::pack_param_diffs(std::span<float> out) const {
  SWC_CHECK_EQ(out.size(), param_count());
  std::size_t off = 0;
  for (const auto& l : layers_) {
    for (const auto& p : l->params()) {
      auto d = p->diff();
      std::copy(d.begin(), d.end(), out.begin() + off);
      off += d.size();
    }
  }
}

void Net::unpack_param_diffs(std::span<const float> in) {
  SWC_CHECK_EQ(in.size(), param_count());
  std::size_t off = 0;
  for (auto& l : layers_) {
    for (auto& p : l->params()) {
      auto d = p->diff();
      std::copy(in.begin() + off, in.begin() + off + d.size(), d.begin());
      off += d.size();
    }
  }
}

void Net::pack_params(std::span<float> out) const {
  SWC_CHECK_EQ(out.size(), param_count());
  std::size_t off = 0;
  for (const auto& l : layers_) {
    for (const auto& p : l->params()) {
      auto d = p->data();
      std::copy(d.begin(), d.end(), out.begin() + off);
      off += d.size();
    }
  }
}

void Net::unpack_params(std::span<const float> in) {
  SWC_CHECK_EQ(in.size(), param_count());
  std::size_t off = 0;
  for (auto& l : layers_) {
    for (auto& p : l->params()) {
      auto d = p->data();
      std::copy(in.begin() + off, in.begin() + off + d.size(), d.begin());
      off += d.size();
    }
  }
}

void Net::copy_params_from(const Net& other) {
  SWC_CHECK_EQ(other.layers_.size(), layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    auto& mine = layers_[i]->params();
    const auto& theirs = other.layers_[i]->params();
    SWC_CHECK_EQ(mine.size(), theirs.size());
    for (std::size_t p = 0; p < mine.size(); ++p) {
      mine[p]->copy_from(*theirs[p]);
    }
  }
}

std::vector<LayerDesc> Net::describe() const {
  std::vector<LayerDesc> out;
  out.reserve(layers_.size());
  for (const auto& l : layers_) out.push_back(l->desc());
  return out;
}

int Net::apply_conv_plans(
    const std::map<std::string, ConvPlanAssignment>& assignments) {
  int applied = 0;
  for (const auto& l : layers_) {
    auto* conv = dynamic_cast<ConvLayer*>(l.get());
    if (!conv) continue;
    auto it = assignments.find(l->name());
    if (it == assignments.end()) continue;
    conv->set_plan(it->second);
    ++applied;
  }
  return applied;
}

}  // namespace swcaffe::core
