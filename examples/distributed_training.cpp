// Distributed SSGD demo: 8 simulated TaihuLight nodes (2 supernodes) train
// one model with synchronous data-parallel SGD, exercising the paper's
// gradient packing and topology-aware all-reduce end to end. The run
// verifies that all replicas stay in lockstep and compares the simulated
// communication cost of the four synchronization strategies.
#include <cstdio>
#include <vector>

#include "base/rng.h"
#include "base/units.h"
#include "core/spec.h"
#include "parallel/ssgd.h"

using namespace swcaffe;

namespace {

core::NetSpec small_cnn(int batch) {
  core::NetSpec spec;
  spec.name = "dist-cnn";
  spec.inputs.push_back({"data", {batch, 4, 10, 10}});
  spec.inputs.push_back({"label", {batch}});
  spec.layers.push_back(core::conv_spec("conv1", "data", "conv1", 8, 3, 1, 1));
  spec.layers.push_back(core::relu_spec("relu1", "conv1", "relu1"));
  spec.layers.push_back(core::pool_spec("pool1", "relu1", "pool1",
                                        core::PoolMethod::kMax, 2, 2));
  spec.layers.push_back(core::ip_spec("fc", "pool1", "scores", 3));
  spec.layers.push_back(
      core::softmax_loss_spec("loss", "scores", "label", "loss"));
  return spec;
}

void make_batch(std::vector<float>& data, std::vector<float>& labels,
                int batch, base::Rng& rng) {
  const int dim = 4 * 10 * 10;
  data.resize(static_cast<std::size_t>(batch) * dim);
  labels.resize(batch);
  for (int b = 0; b < batch; ++b) {
    const int cls = static_cast<int>(rng.uniform_int(0, 2));
    labels[b] = static_cast<float>(cls);
    for (int i = 0; i < dim; ++i) {
      data[b * dim + i] =
          0.4f * static_cast<float>(cls - 1) + rng.gaussian(0.0f, 0.3f);
    }
  }
}

}  // namespace

int main() {
  const int nodes = 8, sub_batch = 4;
  core::SolverSpec solver;
  solver.base_lr = 0.05f;
  solver.momentum = 0.9f;

  std::printf("=== SSGD on %d simulated nodes (2 supernodes of 4), global "
              "batch %d ===\n\n",
              nodes, nodes * sub_batch);
  for (auto algo : {topo::AllreduceAlgo::kRhdRoundRobin,
                    topo::AllreduceAlgo::kRhdAdjacent,
                    topo::AllreduceAlgo::kRing,
                    topo::AllreduceAlgo::kParamServer}) {
    parallel::SsgdOptions opt;
    opt.algo = algo;
    opt.supernode_size = 4;
    parallel::SsgdTrainer trainer(small_cnn(sub_batch), nodes, solver, opt,
                                  /*seed=*/11);
    base::Rng rng(13);
    std::vector<float> data, labels;
    double first = 0.0, last = 0.0;
    double comm_s = 0.0;
    for (int iter = 0; iter < 30; ++iter) {
      make_batch(data, labels, nodes * sub_batch, rng);
      const double loss = trainer.step(data, labels);
      if (iter == 0) first = loss;
      last = loss;
      comm_s += trainer.last_comm().seconds;
    }
    // Verify the replicas never diverged (bitwise).
    std::vector<float> w0(trainer.node(0).param_count()), wr(w0.size());
    trainer.node(0).pack_params(w0);
    bool in_sync = true;
    for (int r = 1; r < nodes; ++r) {
      trainer.node(r).pack_params(wr);
      in_sync = in_sync && wr == w0;
    }
    const auto& c = trainer.last_comm();
    std::printf("%-16s loss %.3f -> %.3f | replicas in sync: %s\n",
                topo::allreduce_algo_name(algo), first, last,
                in_sync ? "yes" : "NO");
    std::printf("                 per-iter comm: %s  (alpha terms %d, "
                "intra bytes %.2fn, cross bytes %.2fn)\n",
                base::format_seconds(comm_s / 30).c_str(), c.alpha_terms,
                c.beta1_bytes / (trainer.node(0).param_count() * 4.0),
                c.beta2_bytes / (trainer.node(0).param_count() * 4.0));
  }
  std::printf("\nThe topology-aware (round-robin) placement moves the bulk "
              "of the traffic inside supernodes — the paper's\nSec. V-A "
              "contribution; at 8 nodes the effect is visible in the "
              "intra/cross byte split above and grows with scale\n(see "
              "bench_allreduce and bench_scalability).\n");
  return 0;
}
