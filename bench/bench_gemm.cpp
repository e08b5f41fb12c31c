// GEMM kernel microbenchmarks (google-benchmark):
//  * host reference sgemm throughput (the framework's functional engine),
//    square NN and every GEMM of the benchmark's train_dense step,
//  * the functional mesh-GEMM simulation (including its simulated-time
//    outputs), and
//  * the RLC-vs-no-RLC analytic ablation (Principle 4: register
//    communication cuts the DMA stream by the mesh factor).
#include <benchmark/benchmark.h>

#include <iterator>
#include <vector>

#include "base/rng.h"
#include "hw/chip.h"
#include "swgemm/estimate.h"
#include "swgemm/mesh_gemm.h"
#include "swgemm/reference.h"

namespace {

using namespace swcaffe;

void BM_ReferenceSgemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  base::Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(n) * n),
      b(static_cast<std::size_t>(n) * n), c(static_cast<std::size_t>(n) * n);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    gemm::sgemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f,
                c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Gflops"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReferenceSgemm)->Arg(64)->Arg(128)->Arg(256);

// The GEMMs of one image (conv) or one sub-batch (fc) of the reduced
// AlexNet-BN that benchmark/ trains (alexnet_bn(2, 10, 67)): conv forward
// (NN), backward-weight (NT) and backward-input (TN), fc forward (NT), dW
// (TN) and dBottom (NN).
struct TrainGemm {
  const char* name;
  bool trans_a, trans_b;
  int m, n, k;
};
constexpr TrainGemm kTrainGemms[] = {
    {"conv1_fwd", false, false, 96, 225, 363},
    {"conv2_fwd", false, false, 256, 49, 2400},
    {"conv3_fwd", false, false, 384, 9, 2304},
    {"conv4_fwd", false, false, 384, 9, 3456},
    {"conv5_fwd", false, false, 256, 9, 3456},
    {"conv1_bwd_weight", false, true, 96, 363, 225},
    {"conv2_bwd_weight", false, true, 256, 2400, 49},
    {"conv3_bwd_weight", false, true, 384, 2304, 9},
    {"conv4_bwd_weight", false, true, 384, 3456, 9},
    {"conv5_bwd_weight", false, true, 256, 3456, 9},
    {"conv1_bwd_input", true, false, 363, 225, 96},
    {"conv2_bwd_input", true, false, 2400, 49, 256},
    {"conv3_bwd_input", true, false, 2304, 9, 384},
    {"conv4_bwd_input", true, false, 3456, 9, 384},
    {"conv5_bwd_input", true, false, 3456, 9, 256},
    {"fc6_fwd", false, true, 2, 4096, 256},
    {"fc7_fwd", false, true, 2, 4096, 4096},
    {"fc6_dW", true, false, 4096, 256, 2},
    {"fc7_dW", true, false, 4096, 4096, 2},
    {"fc6_dBottom", false, false, 2, 256, 4096},
    {"fc7_dBottom", false, false, 2, 4096, 4096},
};

void BM_TrainStepSgemm(benchmark::State& state) {
  const TrainGemm& g = kTrainGemms[state.range(0)];
  base::Rng rng(3);
  std::vector<float> a(static_cast<std::size_t>(g.m) * g.k),
      b(static_cast<std::size_t>(g.k) * g.n),
      c(static_cast<std::size_t>(g.m) * g.n);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    gemm::sgemm(g.trans_a, g.trans_b, g.m, g.n, g.k, 1.0f, a.data(), b.data(),
                1.0f, c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(g.name);
  state.counters["Gflops"] =
      benchmark::Counter(2.0 * g.m * g.n * g.k * state.iterations() / 1e9,
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrainStepSgemm)
    ->DenseRange(0, static_cast<int>(std::size(kTrainGemms)) - 1)
    ->Unit(benchmark::kMillisecond);

void BM_MeshGemmFunctional(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  base::Rng rng(2);
  std::vector<double> a(static_cast<std::size_t>(n) * n),
      b(static_cast<std::size_t>(n) * n), c(static_cast<std::size_t>(n) * n);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  hw::CoreGroup cg{hw::HwParams{}};
  double simulated = 0.0;
  for (auto _ : state) {
    std::fill(c.begin(), c.end(), 0.0);
    const auto stats = gemm::mesh_gemm(cg, a, b, c, n, n, n);
    simulated = stats.ledger.elapsed_s;
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["sim_us"] = simulated * 1e6;
}
BENCHMARK(BM_MeshGemmFunctional)->Arg(32)->Arg(64)->Arg(128);

void BM_EstimateRlcVsNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  hw::CostModel cost;
  double ratio = 0.0;
  for (auto _ : state) {
    const auto rlc = gemm::estimate_gemm(cost, n, n, n);
    const auto naive = gemm::estimate_gemm_no_rlc(cost, n, n, n);
    ratio = naive.seconds / rlc.seconds;
    benchmark::DoNotOptimize(ratio);
  }
  state.counters["no_rlc_slowdown"] = ratio;
  state.counters["rlc_gflops"] =
      gemm::estimate_gemm(cost, n, n, n).achieved_gflops;
}
BENCHMARK(BM_EstimateRlcVsNaive)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace
