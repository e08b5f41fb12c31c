// Quickstart: define a small CNN with the swCaffe spec API, train it
// functionally on the synthetic data layer, and inspect what the SW26010
// auto-tuner decided for each convolution.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/layers.h"
#include "core/net.h"
#include "core/solver.h"

using namespace swcaffe;

int main() {
  // --- 1. Describe the network (the in-C++ equivalent of a prototxt) -------
  core::NetSpec spec;
  spec.name = "quickstart-cnn";
  spec.layers.push_back(
      core::data_spec("data", "data", "label", {32, 8, 12, 12}, 4));
  spec.layers.push_back(core::conv_spec("conv1", "data", "conv1", 16, 3, 1, 1));
  spec.layers.push_back(core::bn_spec("bn1", "conv1", "bn1"));
  spec.layers.push_back(core::relu_spec("relu1", "bn1", "relu1"));
  spec.layers.push_back(core::pool_spec("pool1", "relu1", "pool1",
                                        core::PoolMethod::kMax, 2, 2));
  spec.layers.push_back(core::conv_spec("conv2", "pool1", "conv2", 32, 3, 1, 1));
  spec.layers.push_back(core::relu_spec("relu2", "conv2", "relu2"));
  spec.layers.push_back(core::ip_spec("fc", "relu2", "scores", 4));
  spec.layers.push_back(
      core::softmax_loss_spec("loss", "scores", "label", "loss"));

  // --- 2. Instantiate and train --------------------------------------------
  core::Net net(spec, /*seed=*/42);
  core::SolverSpec solver_spec;
  solver_spec.base_lr = 0.05f;
  solver_spec.momentum = 0.9f;
  solver_spec.weight_decay = 5e-4f;
  solver_spec.policy = core::LrPolicy::kStep;
  solver_spec.step_size = 150;
  core::SgdSolver solver(net, solver_spec);

  std::printf("training %s (%zu learnable floats)\n", spec.name.c_str(),
              net.param_count());
  for (int iter = 0; iter < 200; ++iter) {
    const double loss = solver.step();
    if (iter % 25 == 0 || iter == 199) {
      std::printf("  iter %3d  lr %.4f  loss %.4f\n", iter,
                  solver.current_lr(), loss);
    }
  }

  // --- 3. Evaluate ------------------------------------------------------------
  net.set_phase(core::Phase::kTest);
  double acc = 0.0;
  const int eval_batches = 10;
  for (int i = 0; i < eval_batches; ++i) {
    net.forward();
    // Count argmax hits on the scores blob against the labels.
    const auto* scores = net.blob("scores");
    const auto* labels = net.blob("label");
    const int batch = scores->dim(0);
    const int classes = static_cast<int>(scores->count()) / batch;
    int hits = 0;
    for (int b = 0; b < batch; ++b) {
      int best = 0;
      for (int c = 1; c < classes; ++c) {
        if (scores->data()[b * classes + c] > scores->data()[b * classes + best])
          best = c;
      }
      hits += best == static_cast<int>(labels->data()[b]);
    }
    acc += static_cast<double>(hits) / batch;
  }
  std::printf("test accuracy over %d batches: %.1f%% (4 classes, chance "
              "25%%)\n",
              eval_batches, 100.0 * acc / eval_batches);

  // --- 4. What did the SW26010 auto-tuner pick? ------------------------------
  for (const char* name : {"conv1", "conv2"}) {
    auto* conv = dynamic_cast<core::ConvLayer*>(net.layer(name));
    std::printf("%s: SW26010 forward plan = %s, backward plan = %s\n", name,
                conv->uses_implicit_forward() ? "implicit (swDNN direct)"
                                              : "explicit (im2col + GEMM)",
                conv->uses_implicit_backward() ? "implicit" : "explicit");
  }
  return 0;
}
