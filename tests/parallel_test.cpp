// Multi-core-group node runner (Algorithm 1) and distributed SSGD trainer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>

#include "base/log.h"
#include "base/rng.h"
#include "check/rules.h"
#include "collective_fixtures.h"
#include "core/layers.h"
#include "core/models.h"
#include "fixtures.h"
#include "parallel/node_runner.h"
#include "parallel/ssgd.h"
#include "parallel/sweep.h"
#include "sim/thread_pool.h"
#include "topo/allreduce.h"
#include "trace/tracer.h"

namespace swcaffe::parallel {
namespace {

core::NetSpec mlp(int batch, int in_dim, int hidden, int classes) {
  core::NetSpec net;
  net.name = "mlp";
  net.inputs.push_back({"data", {batch, in_dim}});
  net.inputs.push_back({"label", {batch}});
  net.layers.push_back(core::ip_spec("fc1", "data", "h", hidden));
  net.layers.push_back(core::relu_spec("relu1", "h", "h_out"));
  net.layers.push_back(core::ip_spec("fc2", "h_out", "scores", classes));
  net.layers.push_back(
      core::softmax_loss_spec("loss", "scores", "label", "loss"));
  return net;
}

void random_batch(std::vector<float>& data, std::vector<float>& labels,
                  int batch, int dim, int classes, base::Rng& rng) {
  data.resize(static_cast<std::size_t>(batch) * dim);
  labels.resize(batch);
  for (int b = 0; b < batch; ++b) {
    const int cls = static_cast<int>(rng.uniform_int(0, classes - 1));
    labels[b] = static_cast<float>(cls);
    for (int i = 0; i < dim; ++i) {
      data[b * dim + i] =
          (cls == 0 ? -0.5f : 0.5f) + rng.gaussian(0.0f, 0.3f);
    }
  }
}

TEST(SimpleSyncTest, BarriersAllParties) {
  SimpleSync sync(4);
  std::atomic<int> before{0}, after{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      before.fetch_add(1);
      sync.arrive_and_wait();
      // Every thread must observe all arrivals once released.
      EXPECT_EQ(before.load(), 4);
      after.fetch_add(1);
      sync.arrive_and_wait();
      EXPECT_EQ(after.load(), 4);
    });
  }
  for (auto& t : threads) t.join();
}

TEST(SimpleSyncTest, ReusableAcrossManyRounds) {
  SimpleSync sync(3);
  std::atomic<int> counter{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        counter.fetch_add(1);
        sync.arrive_and_wait();
        EXPECT_EQ(counter.load() % 3, 0) << "round " << round;
        sync.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.load(), 150);
}

TEST(NodeRunnerTest, FourCgGradientsMatchSingleNetFullBatch) {
  // Algorithm 1's invariant: averaging per-CG gradients over B/4 samples
  // equals the full-batch gradient of one net over B samples.
  const int cgs = 4, sub_batch = 3, dim = 6, classes = 2;
  NodeRunner runner(mlp(sub_batch, dim, 8, classes), cgs, 42);
  core::Net reference(mlp(sub_batch * cgs, dim, 8, classes), 42);
  reference.copy_params_from(runner.master());

  base::Rng rng(7);
  std::vector<float> data, labels;
  random_batch(data, labels, sub_batch * cgs, dim, classes, rng);

  const double loss_node = runner.compute_gradients(data, labels);

  std::copy(data.begin(), data.end(),
            reference.blob("data")->data().begin());
  std::copy(labels.begin(), labels.end(),
            reference.blob("label")->data().begin());
  const double loss_ref = reference.forward_backward();

  EXPECT_NEAR(loss_node, loss_ref, 1e-5);
  const std::size_t n = reference.param_count();
  std::vector<float> g_node(n), g_ref(n);
  runner.master().pack_param_diffs(g_node);
  reference.pack_param_diffs(g_ref);
  for (std::size_t i = 0; i < n; ++i) {
    // Softmax loss normalizes by batch: the CG average over B/4-sample
    // losses equals the B-sample gradient.
    EXPECT_NEAR(g_node[i], g_ref[i], 1e-4f) << i;
  }
}

TEST(NodeRunnerTest, CoreGroupsStartFromTheMastersDraw) {
  // Only the master draws; the other core groups copy its weights, so every
  // group packs bit-identical to a standalone net at the same seed.
  const core::NetSpec spec = mlp(2, 4, 6, 2);
  const auto drawn = fixtures::packed_bits(core::Net(spec, 5));
  for (int cgs : {1, 4}) {
    NodeRunner runner(spec, cgs, 5);
    for (int cg = 0; cg < cgs; ++cg) {
      EXPECT_EQ(fixtures::packed_bits(runner.replica(cg)), drawn)
          << "core group " << cg << " of " << cgs;
    }
  }
}

TEST(NodeRunnerTest, BroadcastParamsSynchronizesReplicas) {
  NodeRunner runner(mlp(2, 4, 6, 2), 4, 1);
  // Perturb master params, broadcast, compare.
  auto params = runner.master().learnable_params();
  params[0]->data()[0] = 123.0f;
  runner.broadcast_params();
  for (int cg = 1; cg < 4; ++cg) {
    EXPECT_EQ(runner.replica(cg).learnable_params()[0]->data()[0], 123.0f);
  }
}

class SsgdAlgoTest : public ::testing::TestWithParam<AllreduceAlgo> {};

TEST_P(SsgdAlgoTest, AllNodesStayBitwiseIdentical) {
  SsgdOptions opt;
  opt.algo = GetParam();
  opt.supernode_size = 2;
  const int nodes = 4, sub_batch = 2, dim = 5, classes = 2;
  core::SolverSpec solver;
  solver.base_lr = 0.1f;
  solver.momentum = 0.9f;
  SsgdTrainer trainer(mlp(sub_batch, dim, 6, classes), nodes, solver, opt, 3);
  base::Rng rng(4);
  std::vector<float> data, labels;
  for (int it = 0; it < 5; ++it) {
    random_batch(data, labels, nodes * sub_batch, dim, classes, rng);
    trainer.step(data, labels);
  }
  std::vector<float> w0(trainer.node(0).param_count());
  trainer.node(0).pack_params(w0);
  for (int r = 1; r < nodes; ++r) {
    std::vector<float> wr(w0.size());
    trainer.node(r).pack_params(wr);
    EXPECT_EQ(wr, w0) << "rank " << r << " diverged under "
                      << allreduce_algo_name(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SsgdAlgoTest,
                         ::testing::Values(AllreduceAlgo::kRhdAdjacent,
                                           AllreduceAlgo::kRhdRoundRobin,
                                           AllreduceAlgo::kRing,
                                           AllreduceAlgo::kParamServer,
                                           AllreduceAlgo::kHierarchical),
                         [](const auto& info) {
                           std::string n = allreduce_algo_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(SsgdTest, DataParallelMatchesLargeBatchSingleNode) {
  // k nodes x sub-batch b with averaged gradients == one node with batch k*b
  // (up to float reduction order).
  const int nodes = 4, sub_batch = 2, dim = 5, classes = 2;
  SsgdOptions opt;
  opt.supernode_size = 2;
  core::SolverSpec solver;
  solver.base_lr = 0.05f;
  solver.momentum = 0.0f;
  SsgdTrainer trainer(mlp(sub_batch, dim, 6, classes), nodes, solver, opt, 9);

  core::Net big(mlp(nodes * sub_batch, dim, 6, classes), 9);
  big.copy_params_from(trainer.node(0));
  core::SgdSolver big_solver(big, solver);

  base::Rng rng(10);
  std::vector<float> data, labels;
  for (int it = 0; it < 3; ++it) {
    random_batch(data, labels, nodes * sub_batch, dim, classes, rng);
    trainer.step(data, labels);
    std::copy(data.begin(), data.end(), big.blob("data")->data().begin());
    std::copy(labels.begin(), labels.end(),
              big.blob("label")->data().begin());
    big_solver.step();
  }
  std::vector<float> w_dist(trainer.node(0).param_count()),
      w_big(big.param_count());
  trainer.node(0).pack_params(w_dist);
  big.pack_params(w_big);
  for (std::size_t i = 0; i < w_big.size(); ++i) {
    EXPECT_NEAR(w_dist[i], w_big[i], 1e-4f) << i;
  }
}

TEST(SsgdTest, TrainingLossDecreases) {
  SsgdOptions opt;
  opt.supernode_size = 2;
  core::SolverSpec solver;
  solver.base_lr = 0.2f;
  solver.momentum = 0.9f;
  SsgdTrainer trainer(mlp(4, 6, 12, 2), 4, solver, opt, 11);
  base::Rng rng(12);
  std::vector<float> data, labels;
  double first = 0.0, last = 0.0;
  for (int it = 0; it < 40; ++it) {
    random_batch(data, labels, 16, 6, 2, rng);
    const double loss = trainer.step(data, labels);
    if (it == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, 0.5 * first);
}

TEST(SsgdTest, CommCostReflectsPlacement) {
  const int nodes = 8;
  core::SolverSpec solver;
  base::Rng rng(13);
  std::vector<float> data, labels;
  random_batch(data, labels, nodes * 2, 5, 2, rng);

  SsgdOptions adjacent;
  adjacent.algo = AllreduceAlgo::kRhdAdjacent;
  adjacent.supernode_size = 4;
  SsgdTrainer t_adj(mlp(2, 5, 6, 2), nodes, solver, adjacent, 14);
  t_adj.step(data, labels);

  SsgdOptions rr;
  rr.algo = AllreduceAlgo::kRhdRoundRobin;
  rr.supernode_size = 4;
  SsgdTrainer t_rr(mlp(2, 5, 6, 2), nodes, solver, rr, 14);
  t_rr.step(data, labels);

  EXPECT_LT(t_rr.last_comm().beta2_bytes, t_adj.last_comm().beta2_bytes);
  EXPECT_LT(t_rr.last_comm().seconds, t_adj.last_comm().seconds);
}

TEST(SsgdTest, HierarchicalWeightsBitIdenticalToFlatRoundRobin) {
  // Engaging geometry (8 nodes, q = 2, s = 4, all powers of two): the
  // two-level algorithm's summation tree equals flat improved RHD's, so
  // trained weights must match BITWISE after several iterations.
  const int nodes = 8, sub_batch = 2, dim = 5, classes = 2;
  core::SolverSpec solver;
  solver.base_lr = 0.1f;
  solver.momentum = 0.9f;
  base::Rng rng(21);
  std::vector<float> data, labels;

  SsgdOptions flat;
  flat.algo = AllreduceAlgo::kRhdRoundRobin;
  flat.supernode_size = 2;
  SsgdTrainer t_flat(mlp(sub_batch, dim, 6, classes), nodes, solver, flat, 5);
  SsgdOptions hier = flat;
  hier.algo = AllreduceAlgo::kHierarchical;
  SsgdTrainer t_hier(mlp(sub_batch, dim, 6, classes), nodes, solver, hier, 5);

  for (int it = 0; it < 5; ++it) {
    random_batch(data, labels, nodes * sub_batch, dim, classes, rng);
    t_flat.step(data, labels);
    t_hier.step(data, labels);
  }
  std::vector<float> w_flat(t_flat.node(0).param_count()),
      w_hier(t_hier.node(0).param_count());
  t_flat.node(0).pack_params(w_flat);
  t_hier.node(0).pack_params(w_hier);
  EXPECT_EQ(w_flat, w_hier);
  // Cost parity too: same phase structure, same pricing.
  EXPECT_DOUBLE_EQ(t_hier.last_comm().seconds, t_flat.last_comm().seconds);
}

TEST(SsgdTest, CompressedTrainingBitwiseReproducible) {
  // The compressed path (EF residuals + codec) is a pure function of its
  // inputs: two trainers stepped through the same batches end bit-identical,
  // and every node agrees.
  for (topo::Compression c :
       {topo::Compression::kFp16, topo::Compression::kInt8}) {
    const int nodes = 4, sub_batch = 2, dim = 5, classes = 2;
    core::SolverSpec solver;
    solver.base_lr = 0.1f;
    SsgdOptions opt;
    opt.supernode_size = 2;
    opt.compression = c;
    opt.buckets = 2;
    SsgdTrainer a(mlp(sub_batch, dim, 6, classes), nodes, solver, opt, 17);
    SsgdTrainer b(mlp(sub_batch, dim, 6, classes), nodes, solver, opt, 17);
    base::Rng rng(18);
    std::vector<float> data, labels;
    for (int it = 0; it < 5; ++it) {
      random_batch(data, labels, nodes * sub_batch, dim, classes, rng);
      const double la = a.step(data, labels);
      const double lb = b.step(data, labels);
      EXPECT_EQ(la, lb) << topo::compression_name(c) << " iter " << it;
    }
    std::vector<float> wa(a.node(0).param_count()),
        wb(b.node(0).param_count());
    a.node(0).pack_params(wa);
    b.node(0).pack_params(wb);
    EXPECT_EQ(wa, wb) << topo::compression_name(c);
    for (int r = 1; r < nodes; ++r) {
      std::vector<float> wr(wa.size());
      a.node(r).pack_params(wr);
      EXPECT_EQ(wr, wa) << topo::compression_name(c) << " rank " << r;
    }
  }
}

TEST(SsgdTest, TracedStepRecordsEachBucketAllreduceOnce) {
  // Every algorithm x codec pair the comm rule accepts: one traced step
  // records exactly one allreduce.* span per bucket, at the breakdown the
  // trainer charged (the wire-byte pricing when compressed), each followed
  // by its four alpha/beta1/beta2/gamma counter samples.
  const int nodes = 4, sub_batch = 2, dim = 5, classes = 2;
  core::SolverSpec solver;
  int pairs = 0;
  for (const topo::AllreduceAlgo algo : topo::kAllreduceAlgos) {
    for (const topo::Compression codec :
         {topo::Compression::kNone, topo::Compression::kFp16,
          topo::Compression::kInt8}) {
      check::CommPlan plan;
      plan.algorithm = topo::allreduce_algo_name(algo);
      plan.compression = topo::compression_name(codec);
      plan.num_nodes = nodes;
      plan.supernode_size = 2;
      plan.buckets = 2;
      check::Report verdict;
      check::check_comm(plan, check::Options{}, "comm", &verdict);
      if (!verdict.ok()) continue;  // e.g. int8 over ring
      ++pairs;
      const std::string label = plan.algorithm + "/" + plan.compression;

      SsgdOptions opt;
      opt.algo = algo;
      opt.compression = codec;
      opt.supernode_size = 2;
      opt.buckets = 2;
      SsgdTrainer trainer(mlp(sub_batch, dim, 6, classes), nodes, solver, opt,
                          23);
      trace::Tracer tracer;
      trainer.set_tracer(&tracer, 0);
      base::Rng rng(24);
      std::vector<float> data, labels;
      random_batch(data, labels, nodes * sub_batch, dim, classes, rng);
      trainer.step(data, labels);

      const std::vector<sim::Event>& log = tracer.log().events();
      std::vector<std::size_t> spans;
      for (std::size_t i = 0; i < log.size(); ++i) {
        if (log[i].kind == sim::EventKind::kSpan) spans.push_back(i);
      }
      ASSERT_EQ(spans.size(), 2u) << label;
      for (std::size_t k = 0; k < spans.size(); ++k) {
        // Service order: the last bucket goes on the wire first.
        const topo::CostBreakdown& c = trainer.last_comm_buckets()[1 - k];
        const sim::Event& s = log[spans[k]];
        EXPECT_EQ(s.name, topo::allreduce_span_name(algo)) << label;
        EXPECT_EQ(s.category, "comm.allreduce") << label;
        EXPECT_DOUBLE_EQ(s.duration_s(), c.seconds) << label;
        ASSERT_LT(spans[k] + 4, log.size()) << label;
        const double terms[] = {static_cast<double>(c.alpha_terms),
                                c.beta1_bytes, c.beta2_bytes, c.gamma_bytes};
        const char* names[] = {trace::kCounterAlphaTerms,
                               trace::kCounterBeta1Bytes,
                               trace::kCounterBeta2Bytes,
                               trace::kCounterGammaBytes};
        for (int t = 0; t < 4; ++t) {
          const sim::Event& counter = log[spans[k] + 1 + t];
          EXPECT_EQ(counter.kind, sim::EventKind::kCounter) << label;
          EXPECT_EQ(counter.name, names[t]) << label;
          EXPECT_EQ(counter.value, terms[t]) << label;
        }
      }
    }
  }
  EXPECT_EQ(pairs, 13);  // 5 algorithms x 3 codecs, minus int8 over ring/ps
}

TEST(SsgdTest, CompressedTrainingStillLearns) {
  // Error feedback keeps the quantized gradients useful: the loss must
  // still drop under int8 (the harshest codec).
  SsgdOptions opt;
  opt.supernode_size = 2;
  opt.compression = topo::Compression::kInt8;
  core::SolverSpec solver;
  solver.base_lr = 0.2f;
  solver.momentum = 0.9f;
  SsgdTrainer trainer(mlp(4, 6, 12, 2), 4, solver, opt, 11);
  base::Rng rng(12);
  std::vector<float> data, labels;
  double first = 0.0, last = 0.0;
  for (int it = 0; it < 40; ++it) {
    random_batch(data, labels, 16, 6, 2, rng);
    const double loss = trainer.step(data, labels);
    if (it == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, 0.5 * first);
}

TEST(SsgdTest, CompressionShrinksPricedCommBytes) {
  const int nodes = 4, sub_batch = 2, dim = 5, classes = 2;
  core::SolverSpec solver;
  base::Rng rng(23);
  std::vector<float> data, labels;
  random_batch(data, labels, nodes * sub_batch, dim, classes, rng);

  SsgdOptions raw;
  raw.supernode_size = 2;
  SsgdTrainer t_raw(mlp(sub_batch, dim, 6, classes), nodes, solver, raw, 31);
  t_raw.step(data, labels);

  SsgdOptions fp16 = raw;
  fp16.compression = topo::Compression::kFp16;
  SsgdTrainer t16(mlp(sub_batch, dim, 6, classes), nodes, solver, fp16, 31);
  t16.step(data, labels);

  EXPECT_LT(t16.last_comm().beta1_bytes + t16.last_comm().beta2_bytes,
            t_raw.last_comm().beta1_bytes + t_raw.last_comm().beta2_bytes);
}

TEST(SsgdTest, Int8OverRingRejectedAtConstruction) {
  // swcheck's comm rule fires in the constructor, before any iteration:
  // re-quantizing partial sums at every ring hop has no error bound.
  SsgdOptions opt;
  opt.algo = AllreduceAlgo::kRing;
  opt.compression = topo::Compression::kInt8;
  opt.supernode_size = 2;
  core::SolverSpec solver;
  EXPECT_THROW(SsgdTrainer(mlp(2, 5, 6, 2), 4, solver, opt, 1),
               base::CheckError);
  opt.algo = AllreduceAlgo::kParamServer;
  EXPECT_THROW(SsgdTrainer(mlp(2, 5, 6, 2), 4, solver, opt, 1),
               base::CheckError);
  // The same codec composes fine with single-shot-encode collectives.
  opt.algo = AllreduceAlgo::kHierarchical;
  EXPECT_NO_THROW(SsgdTrainer(mlp(2, 5, 6, 2), 4, solver, opt, 1));
}

TEST(FullStackTest, NodeRunnerSsgdMatchesBigBatchTraining) {
  // The complete hierarchy of the paper: 2 nodes x 4 core groups x sub-batch
  // 2 = global batch 16, with intra-node gradient averaging (Algorithm 1
  // line 8) and inter-node all-reduce (line 9) — must track a single net
  // trained on the full batch.
  const int nodes = 2, cgs = 4, sub = 2, dim = 5, classes = 2;
  const core::NetSpec cg_spec = mlp(sub, dim, 6, classes);
  std::vector<std::unique_ptr<NodeRunner>> runners;
  for (int r = 0; r < nodes; ++r) {
    runners.push_back(std::make_unique<NodeRunner>(cg_spec, cgs, 21));
  }
  core::Net reference(mlp(nodes * cgs * sub, dim, 6, classes), 21);
  reference.copy_params_from(runners[0]->master());
  for (int r = 1; r < nodes; ++r) {
    runners[r]->master().copy_params_from(runners[0]->master());
    runners[r]->broadcast_params();
  }

  core::SolverSpec sspec;
  sspec.base_lr = 0.1f;
  sspec.momentum = 0.0f;
  std::vector<std::unique_ptr<core::SgdSolver>> solvers;
  for (auto& r : runners) {
    solvers.push_back(std::make_unique<core::SgdSolver>(r->master(), sspec));
  }
  core::SgdSolver ref_solver(reference, sspec);

  base::Rng rng(22);
  std::vector<float> data, labels;
  topo::Topology topo{nodes, 256};
  const std::size_t n = reference.param_count();
  for (int it = 0; it < 3; ++it) {
    random_batch(data, labels, nodes * cgs * sub, dim, classes, rng);
    const std::size_t per_node = data.size() / nodes;
    const std::size_t labels_per_node = labels.size() / nodes;
    std::vector<std::vector<float>> grads(nodes, std::vector<float>(n));
    for (int r = 0; r < nodes; ++r) {
      runners[r]->compute_gradients(
          std::span<const float>(data).subspan(r * per_node, per_node),
          std::span<const float>(labels).subspan(r * labels_per_node,
                                                 labels_per_node));
      runners[r]->master().pack_param_diffs(grads[r]);
    }
    fixtures::run_allreduce(topo::AllreduceAlgo::kRhdRoundRobin, topo, grads);
    for (int r = 0; r < nodes; ++r) {
      for (auto& v : grads[r]) v /= nodes;  // SSGD average
      runners[r]->master().unpack_param_diffs(grads[r]);
      solvers[r]->apply_update();
      runners[r]->broadcast_params();
    }
    // Reference trains on the same full batch in one shot.
    std::copy(data.begin(), data.end(),
              reference.blob("data")->data().begin());
    std::copy(labels.begin(), labels.end(),
              reference.blob("label")->data().begin());
    ref_solver.step();
  }
  std::vector<float> w_dist(n), w_ref(n);
  runners[0]->master().pack_params(w_dist);
  reference.pack_params(w_ref);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(w_dist[i], w_ref[i], 1e-4f) << i;
  }
  // Both nodes ended identical.
  std::vector<float> w_other(n);
  runners[1]->master().pack_params(w_other);
  EXPECT_EQ(w_dist, w_other);
}

TEST(SsgdTest, BucketedAllreduceBitIdenticalToSingleMessage) {
  // The bucketed all-reduce is elementwise identical to the single packed
  // message, so trained weights must match BIT FOR BIT for any bucket count.
  const int nodes = 4, sub_batch = 2, dim = 5, classes = 2;
  core::SolverSpec solver;
  solver.base_lr = 0.1f;
  solver.momentum = 0.9f;
  auto train = [&](int buckets) {
    SsgdOptions opt;
    opt.supernode_size = 2;
    opt.buckets = buckets;
    SsgdTrainer trainer(mlp(sub_batch, dim, 6, classes), nodes, solver, opt,
                        17);
    base::Rng rng(18);
    std::vector<float> data, labels;
    for (int it = 0; it < 4; ++it) {
      random_batch(data, labels, nodes * sub_batch, dim, classes, rng);
      trainer.step(data, labels);
    }
    std::vector<float> w(trainer.node(0).param_count());
    trainer.node(0).pack_params(w);
    return w;
  };
  const auto w1 = train(1);
  EXPECT_EQ(train(2), w1);
  EXPECT_EQ(train(5), w1);
}

TEST(SsgdTest, BucketLayoutTilesThePackedMessage) {
  SsgdOptions opt;
  opt.supernode_size = 2;
  opt.buckets = 3;
  core::SolverSpec solver;
  SsgdTrainer trainer(mlp(2, 5, 6, 2), 4, solver, opt, 19);
  const auto& layout = trainer.bucket_layout();
  // mlp has two parameterized layers (fc1, fc2): the request clamps to 2.
  ASSERT_EQ(layout.size(), 2u);
  std::int64_t bytes = 0;
  for (const auto& b : layout) bytes += b.bytes;
  EXPECT_EQ(bytes, static_cast<std::int64_t>(trainer.node(0).param_count() *
                                             sizeof(float)));
  // Per-bucket breakdowns sum to last_comm() (alpha terms are additive).
  base::Rng rng(20);
  std::vector<float> data, labels;
  random_batch(data, labels, 8, 5, 2, rng);
  trainer.step(data, labels);
  ASSERT_EQ(trainer.last_comm_buckets().size(), 2u);
  int alpha = 0;
  double seconds = 0.0;
  for (const auto& c : trainer.last_comm_buckets()) {
    alpha += c.alpha_terms;
    seconds += c.seconds;
  }
  EXPECT_EQ(alpha, trainer.last_comm().alpha_terms);
  EXPECT_DOUBLE_EQ(seconds, trainer.last_comm().seconds);
}

TEST(SsgdTest, ReplicasStartFromReplicaZerosDraw) {
  // Replica 0 draws at the trainer's seed and the others copy it: straight
  // after construction every replica packs bit-identical to a standalone net
  // at that seed, whatever the worker count.
  const core::NetSpec spec = mlp(2, 5, 6, 2);
  const auto drawn = fixtures::packed_bits(core::Net(spec, 11));
  for (int threads : {1, 4}) {
    SsgdOptions opt;
    opt.supernode_size = 2;
    opt.threads = threads;
    SsgdTrainer trainer(spec, 4, core::SolverSpec{}, opt, 11);
    for (int r = 0; r < trainer.num_nodes(); ++r) {
      EXPECT_EQ(fixtures::packed_bits(trainer.node(r)), drawn)
          << "replica " << r << " with " << threads << " threads";
    }
  }
}

TEST(SsgdTest, ReplicasDrawTheirOwnDropoutMasks) {
  // Algorithm 1: every node draws its own dropout masks, keyed by its
  // replica index and the solver iteration.
  core::NetSpec spec = mlp(2, 5, 64, 2);
  spec.layers.insert(spec.layers.begin() + 2,
                     core::dropout_spec("drop", "h_out", "h_drop", 0.5f));
  spec.layers[3].bottoms = {"h_drop"};
  SsgdOptions opt;
  opt.supernode_size = 2;
  opt.threads = 2;
  SsgdTrainer trainer(spec, 2, core::SolverSpec{}, opt, 13);
  auto mask = [&](int r) {
    return dynamic_cast<const core::DropoutLayer&>(
               *trainer.node(r).layer("drop"))
        .mask();
  };
  base::Rng rng(14);
  std::vector<float> data, labels;
  random_batch(data, labels, 4, 5, 2, rng);
  std::vector<std::vector<float>> grads(2);
  trainer.forward_backward_packed(data, labels, grads);
  const std::vector<float> first = mask(0);
  EXPECT_NE(mask(1), first);
  trainer.allreduce(grads);
  trainer.apply(grads);
  trainer.forward_backward_packed(data, labels, grads);
  EXPECT_NE(mask(0), first) << "iteration 1 draws new masks";
}

TEST(SsgdTest, ThreadedReplicasBitIdenticalToSerial) {
  // The worker pool only changes WHO runs each replica, never the math or
  // the gather order: losses and trained weights match serial bit for bit.
  const int nodes = 4, sub_batch = 2, dim = 5, classes = 2;
  core::SolverSpec solver;
  solver.base_lr = 0.1f;
  solver.momentum = 0.9f;
  auto train = [&](int threads, std::vector<double>& losses) {
    SsgdOptions opt;
    opt.supernode_size = 2;
    opt.threads = threads;
    SsgdTrainer trainer(mlp(sub_batch, dim, 6, classes), nodes, solver, opt,
                        23);
    base::Rng rng(24);
    std::vector<float> data, labels;
    for (int it = 0; it < 4; ++it) {
      random_batch(data, labels, nodes * sub_batch, dim, classes, rng);
      losses.push_back(trainer.step(data, labels));
    }
    std::vector<float> w(trainer.node(0).param_count());
    trainer.node(0).pack_params(w);
    return w;
  };
  std::vector<double> serial_losses, threaded_losses;
  const auto w_serial = train(1, serial_losses);
  const auto w_threaded = train(4, threaded_losses);
  EXPECT_EQ(w_threaded, w_serial);
  EXPECT_EQ(threaded_losses, serial_losses);
}

TEST(SsgdTest, PooledCodecAndCollectiveBitIdenticalToSerial) {
  // The error-feedback codec and the collective run block-parallel on the
  // replica pool. fc1's bucket spans three executor blocks, so the blocks
  // really spread over the lanes; the residual carries across steps.
  const int nodes = 4, sub_batch = 2, dim = 64, classes = 2;
  const core::NetSpec spec = mlp(sub_batch, dim, 512, classes);
  for (const auto algo :
       {AllreduceAlgo::kHierarchical, AllreduceAlgo::kRhdRoundRobin}) {
    for (const auto codec : {topo::Compression::kInt8,
                             topo::Compression::kFp16}) {
      auto train = [&](int threads, std::vector<double>& losses) {
        SsgdOptions opt;
        opt.algo = algo;
        opt.compression = codec;
        opt.supernode_size = 2;
        opt.buckets = 2;
        opt.threads = threads;
        SsgdTrainer trainer(spec, nodes, core::SolverSpec{}, opt, 31);
        base::Rng rng(32);
        std::vector<float> data, labels;
        for (int it = 0; it < 3; ++it) {
          random_batch(data, labels, nodes * sub_batch, dim, classes, rng);
          losses.push_back(trainer.step(data, labels));
        }
        return fixtures::packed_bits(trainer.node(0));
      };
      std::vector<double> serial_losses, pooled_losses;
      const auto serial = train(1, serial_losses);
      EXPECT_EQ(train(4, pooled_losses), serial)
          << topo::allreduce_algo_name(algo) << " "
          << topo::compression_name(codec);
      EXPECT_EQ(pooled_losses, serial_losses);
    }
  }
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  sim::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // Reusable across calls, including empty and single-element ranges.
  pool.parallel_for(5, 5, [&](int) { ADD_FAILURE() << "empty range ran"; });
  std::atomic<int> one{0};
  pool.parallel_for(7, 8, [&](int i) {
    EXPECT_EQ(i, 7);
    one.fetch_add(1);
  });
  EXPECT_EQ(one.load(), 1);
}

/// The AlexNet B=256 Fig. 10/11 curve under `opt` at `nodes`, priced as a
/// single-series sweep.
std::vector<ScalePoint> alexnet_curve(const hw::CostModel& cost,
                                      const SsgdOptions& opt,
                                      const std::vector<int>& nodes) {
  SweepSeries s;
  s.descs_per_cg = fixtures::alexnet_per_cg_descs();  // B/4
  s.param_bytes = fixtures::kAlexNetGradientBytes;
  s.options = opt;
  s.node_counts = nodes;
  return scalability_sweep(cost, {s}, 1)[0].points;
}

TEST(ScalabilityTest, SpeedupGrowsAndCommFractionRises) {
  hw::CostModel cost;
  SsgdOptions opt;
  const auto curve = alexnet_curve(cost, opt, {1, 4, 16, 64, 256, 1024});
  ASSERT_EQ(curve.size(), 6u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GT(curve[i].speedup, curve[i - 1].speedup);
    EXPECT_GE(curve[i].comm_fraction, curve[i - 1].comm_fraction - 1e-9);
  }
  // Sub-linear at scale: the paper reports 715x at 1024 nodes for B=256.
  EXPECT_LT(curve.back().speedup, 1024.0);
  EXPECT_GT(curve.back().speedup, 200.0);
}

TEST(ScalabilityTest, SingleBucketOverlapReproducesSerialModel) {
  hw::CostModel cost;
  SsgdOptions opt;  // buckets = 1
  const auto curve = alexnet_curve(cost, opt, {4, 64, 1024});
  for (const auto& pt : curve) {
    // Degenerate contract: one bucket means the collective starts exactly
    // at the compute end, so the overlapped time IS the serial time.
    EXPECT_EQ(pt.buckets, 1);
    EXPECT_EQ(pt.overlap_s, pt.comp_s + pt.comm_s) << pt.nodes;
    // exposed = finish - compute: one rounding step from comm_s itself.
    EXPECT_DOUBLE_EQ(pt.exposed_comm_s, pt.comm_s) << pt.nodes;
  }
}

TEST(ScalabilityTest, OverlappedSeriesNeverSlowerAndHidesCommAtScale) {
  hw::CostModel cost;
  SsgdOptions opt;
  opt.buckets = 8;
  const auto curve = alexnet_curve(cost, opt, {4, 16, 64, 256, 1024});
  for (const auto& pt : curve) {
    EXPECT_GT(pt.buckets, 1) << pt.nodes;
    // Overlap can only help: the bucketed finish never exceeds serial, and
    // exposed comm never exceeds the full collective.
    EXPECT_LE(pt.overlap_s, pt.comp_s + pt.comm_s + 1e-12) << pt.nodes;
    EXPECT_LE(pt.exposed_comm_s, pt.comm_s + 1e-12) << pt.nodes;
    EXPECT_GE(pt.overlap_speedup, pt.speedup - 1e-9) << pt.nodes;
    // Consistency: overlap_s = comp + exposed comm.
    EXPECT_NEAR(pt.overlap_s, pt.comp_s + pt.exposed_comm_s, 1e-9)
        << pt.nodes;
  }
  // At moderate scale comm fits under backward and some of it must
  // actually hide (strict win over the serial schedule).
  bool any_strict_win = false;
  for (const auto& pt : curve) {
    if (pt.overlap_s < pt.comp_s + pt.comm_s - 1e-12) any_strict_win = true;
  }
  EXPECT_TRUE(any_strict_win);
}

TEST(ScalabilityTest, HierarchicalCompressedNearLinearAtFullMachine) {
  // The headline claim: hierarchical + int8 + overlap keeps AlexNet B=256
  // near-linear all the way to 40,960 nodes, where the flat algorithm has
  // fallen off the linear trend.
  hw::CostModel cost;
  SsgdOptions flat;
  flat.buckets = 8;
  SsgdOptions hier = flat;
  hier.algo = AllreduceAlgo::kHierarchical;
  hier.compression = topo::Compression::kInt8;
  const std::vector<int> nodes = {1024, 4096, 40960};
  const auto c_flat = alexnet_curve(cost, flat, nodes);
  const auto c_hier = alexnet_curve(cost, hier, nodes);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_LE(c_hier[i].overlap_s, c_flat[i].overlap_s + 1e-12)
        << nodes[i] << " nodes";
    EXPECT_GT(c_hier[i].overlap_speedup / nodes[i], 0.9)
        << nodes[i] << " nodes";
  }
  // At 40,960 the flat serial collective is several times the hierarchical
  // one (the fold crosses the oversubscribed switch with the full message).
  EXPECT_GT(c_flat.back().comm_s, 2.0 * c_hier.back().comm_s);
}

TEST(ScalabilityTest, Int8RingRejectedBeforePricing) {
  hw::CostModel cost;
  SsgdOptions opt;
  opt.algo = AllreduceAlgo::kRing;
  opt.compression = topo::Compression::kInt8;
  EXPECT_THROW(alexnet_curve(cost, opt, {64}), base::CheckError);
}

}  // namespace
}  // namespace swcaffe::parallel
