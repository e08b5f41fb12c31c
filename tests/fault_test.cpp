// swfault: seeded fault injection and resilience.
//
// The contracts under test are the ones the subsystem sells:
//   * every injection decision is a pure function of (seed, site,
//     coordinates) — repeated runs produce byte-identical fault traces;
//   * eventual delivery — network faults change simulated time, never the
//     reduced gradients, so faulty weights equal fault-free weights bit for
//     bit;
//   * crash + restart from any checkpoint replays the uninterrupted
//     trajectory exactly;
//   * the versioned checkpoint format round-trips and rejects what it
//     cannot read.
//
// CI runs this binary under several SWC_FAULT_SEED values; tests that only
// need *some* schedule derive their seed from the environment so each CI
// seed exercises a different one. Tests pinned to golden data use fixed
// seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/log.h"
#include "core/net.h"
#include "core/spec.h"
#include "fault/checkpoint.h"
#include "fault/fault_spec.h"
#include "fault/ft_ssgd.h"
#include "fault/injector.h"
#include "fault/resilient_comm.h"
#include "hw/cost_model.h"
#include "hw/dma.h"
#include "parallel/ssgd.h"
#include "topo/allreduce.h"
#include "topo/compress.h"
#include "trace/chrome_trace.h"
#include "trace/tracer.h"

namespace swcaffe::fault {
namespace {

/// CI seed matrix hook: different SWC_FAULT_SEED values steer the tests that
/// only need *a* deterministic schedule onto different schedules.
std::uint64_t test_seed() {
  const char* env = std::getenv("SWC_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

/// Small BN-free MLP: crash/restart bit-identity needs every learnable
/// float to live in pack_params (batch-norm running stats do not).
core::NetSpec mlp(int batch, int in_dim = 8, int hidden = 16,
                  int classes = 4) {
  core::NetSpec net;
  net.name = "fault-mlp";
  net.inputs.push_back({"data", {batch, in_dim}});
  net.inputs.push_back({"label", {batch}});
  net.layers.push_back(core::ip_spec("fc1", "data", "h", hidden));
  net.layers.push_back(core::relu_spec("relu1", "h", "h_out"));
  net.layers.push_back(core::ip_spec("fc2", "h_out", "scores", classes));
  net.layers.push_back(
      core::softmax_loss_spec("loss", "scores", "label", "loss"));
  return net;
}

constexpr int kSubBatch = 4;
// Three nodes: with one permanent straggler the on-time quorum still has a
// collective to run (p=2), so network-fault sites stay reachable.
constexpr int kNodes = 3;
constexpr int kInDim = 8;
constexpr int kClasses = 4;

/// splitmix64-style pure batch generator: restarted runs must replay the
/// exact bytes, so no RNG stream.
float det_uniform(std::int64_t iter, std::int64_t idx, std::uint64_t salt) {
  std::uint64_t z = (static_cast<std::uint64_t>(iter) * 0x9e3779b97f4a7c15ull) ^
                    (static_cast<std::uint64_t>(idx) + salt);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<float>(z >> 11) * 0x1.0p-53f;
}

void det_batch(std::int64_t iter, std::vector<float>& data,
               std::vector<float>& labels) {
  const int global = kSubBatch * kNodes;
  data.resize(static_cast<std::size_t>(global) * kInDim);
  labels.resize(global);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = det_uniform(iter, static_cast<std::int64_t>(i), 0x5eed) - 0.5f;
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<float>(static_cast<int>(
        det_uniform(iter, static_cast<std::int64_t>(i), 0x1abe1) * kClasses));
  }
}

std::vector<float> weights(parallel::SsgdTrainer& t, int node = 0) {
  std::vector<float> w(t.node(node).param_count());
  t.node(node).pack_params(w);
  return w;
}

FtOptions ft_options(const FaultSpec& faults) {
  FtOptions o;
  o.faults = faults;
  return o;
}

/// Runs `iters` fault-tolerant steps (no crash handling) and returns the
/// accumulated StepResults.
std::vector<StepResult> run_steps(FtSsgdTrainer& t, int iters) {
  std::vector<StepResult> out;
  std::vector<float> data, labels;
  for (int i = 0; i < iters; ++i) {
    det_batch(t.iter(), data, labels);
    out.push_back(t.step(data, labels));
  }
  return out;
}

// --- FaultSpec grammar ------------------------------------------------------------

TEST(FaultSpecTest, ParsesEveryClause) {
  const FaultSpec s = parse_fault_spec(
      "drop=0.02;dup=0.01;delay=0.1;delay_s=0.0003;link=1.5;dma=0.05;"
      "dma_slow=2;straggler=1x4;straggler=3x2.5;crash=1@7;seed=42");
  EXPECT_DOUBLE_EQ(s.drop_p, 0.02);
  EXPECT_DOUBLE_EQ(s.dup_p, 0.01);
  EXPECT_DOUBLE_EQ(s.delay_p, 0.1);
  EXPECT_DOUBLE_EQ(s.delay_s, 0.0003);
  EXPECT_DOUBLE_EQ(s.link_degrade, 1.5);
  EXPECT_DOUBLE_EQ(s.dma_fail_p, 0.05);
  EXPECT_DOUBLE_EQ(s.dma_degrade, 2.0);
  ASSERT_EQ(s.stragglers.size(), 2u);
  EXPECT_EQ(s.stragglers[0].node, 1);
  EXPECT_DOUBLE_EQ(s.stragglers[0].factor, 4.0);
  EXPECT_EQ(s.stragglers[1].node, 3);
  EXPECT_DOUBLE_EQ(s.stragglers[1].factor, 2.5);
  EXPECT_EQ(s.crash_node, 1);
  EXPECT_EQ(s.crash_iter, 7);
  EXPECT_EQ(s.seed, 42u);
  EXPECT_TRUE(s.enabled());
  EXPECT_TRUE(s.crash_enabled());
}

TEST(FaultSpecTest, NoneAndEmptyAreDisabled) {
  EXPECT_FALSE(parse_fault_spec("none").enabled());
  EXPECT_FALSE(parse_fault_spec("").enabled());
  EXPECT_FALSE(FaultSpec{}.enabled());
}

TEST(FaultSpecTest, CanonicalRenderingRoundTrips) {
  const char* specs[] = {
      "none",
      "drop=0.02;delay=0.1;straggler=2x3.5;crash=1@40;seed=7",
      "dma=0.25;dma_slow=4;link=2",
  };
  for (const char* text : specs) {
    const FaultSpec once = parse_fault_spec(text);
    const FaultSpec twice = parse_fault_spec(to_string(once));
    EXPECT_EQ(to_string(once), to_string(twice)) << text;
  }
}

TEST(FaultSpecTest, RejectsMalformedClauses) {
  EXPECT_THROW(parse_fault_spec("warp=0.5"), base::CheckError);
  EXPECT_THROW(parse_fault_spec("straggler=abc"), base::CheckError);
  EXPECT_THROW(parse_fault_spec("crash=3"), base::CheckError);
}

// --- Injector determinism ---------------------------------------------------------

TEST(InjectorTest, ScheduleIsAPureFunctionOfCoordinates) {
  FaultSpec spec;
  spec.seed = test_seed();
  spec.drop_p = 0.3;
  spec.dup_p = 0.2;
  spec.delay_p = 0.25;
  const FaultInjector a(spec), b(spec);
  // Same coordinates => same fate, across instances, across repeated
  // queries, and regardless of query order (b iterates in reverse).
  std::vector<MessageFate> forward, backward;
  for (std::int64_t iter = 0; iter < 20; ++iter) {
    for (int round = 0; round < 8; ++round) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        forward.push_back(a.message_fate(iter, round, attempt));
      }
    }
  }
  for (std::int64_t iter = 19; iter >= 0; --iter) {
    for (int round = 7; round >= 0; --round) {
      for (int attempt = 2; attempt >= 0; --attempt) {
        backward.push_back(b.message_fate(iter, round, attempt));
      }
    }
  }
  ASSERT_EQ(forward.size(), backward.size());
  for (std::size_t i = 0; i < forward.size(); ++i) {
    const MessageFate& f = forward[i];
    const MessageFate& r = backward[backward.size() - 1 - i];
    EXPECT_EQ(f.dropped, r.dropped) << i;
    EXPECT_EQ(f.duplicated, r.duplicated) << i;
    EXPECT_EQ(f.delay_s, r.delay_s) << i;
  }
}

TEST(InjectorTest, DropRateTracksTheSpec) {
  FaultSpec spec;
  spec.seed = test_seed();
  spec.drop_p = 0.25;
  const FaultInjector inj(spec);
  int drops = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    drops += inj.message_fate(i / 16, i % 16, 0).dropped;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.25, 0.02);
}

TEST(InjectorTest, RetriesDrawFreshDropDecisions) {
  FaultSpec spec;
  spec.seed = test_seed();
  spec.drop_p = 0.5;
  const FaultInjector inj(spec);
  bool saw_retry_succeed = false;
  for (std::int64_t iter = 0; iter < 50 && !saw_retry_succeed; ++iter) {
    if (inj.message_fate(iter, 0, 0).dropped &&
        !inj.message_fate(iter, 0, 1).dropped) {
      saw_retry_succeed = true;
    }
  }
  EXPECT_TRUE(saw_retry_succeed)
      << "a retried send could never succeed; attempts are not independent";
}

TEST(InjectorTest, CrashAndStragglerSitesAreExact) {
  FaultSpec spec;
  spec.crash_node = 1;
  spec.crash_iter = 7;
  spec.stragglers.push_back({2, 4.0});
  const FaultInjector inj(spec);
  EXPECT_TRUE(inj.crashes_at(1, 7));
  EXPECT_FALSE(inj.crashes_at(1, 6));
  EXPECT_FALSE(inj.crashes_at(0, 7));
  EXPECT_DOUBLE_EQ(inj.straggler_factor(2), 4.0);
  EXPECT_DOUBLE_EQ(inj.straggler_factor(0), 1.0);
}

// --- DMA site ---------------------------------------------------------------------

TEST(DmaFaultTest, TransientFailuresReissueDeterministically) {
  FaultSpec spec;
  spec.seed = test_seed();
  spec.dma_fail_p = 0.3;
  spec.dma_degrade = 2.0;

  const hw::CostModel cost;
  std::vector<double> src(512), dst(512);

  auto run = [&](FaultInjector& inj) {
    DmaFaults hook(inj);
    hw::DmaEngine engine(cost);
    engine.set_fault_hook(&hook);
    for (int i = 0; i < 64; ++i) {
      engine.get(src, dst, 64);
      engine.put(dst, src, 64);
    }
    return engine.ledger();
  };

  FaultInjector a(spec), b(spec);
  const hw::TrafficLedger la = run(a), lb = run(b);
  // Per-engine sequence numbers restart at 0, so two engines over the same
  // spec see the identical re-issue schedule.
  EXPECT_EQ(la.dma_get_bytes, lb.dma_get_bytes);
  EXPECT_EQ(la.dma_put_bytes, lb.dma_put_bytes);
  EXPECT_EQ(la.elapsed_s, lb.elapsed_s);
  EXPECT_EQ(a.stats().dma_retries, b.stats().dma_retries);
  EXPECT_GT(a.stats().dma_transfers, 0);
  EXPECT_GT(a.stats().dma_retries, 0);

  // Against a clean engine: re-issues move extra bytes, degradation and
  // re-issues cost extra simulated time.
  hw::DmaEngine clean(cost);
  for (int i = 0; i < 64; ++i) {
    clean.get(src, dst, 64);
    clean.put(dst, src, 64);
  }
  EXPECT_GT(la.dma_get_bytes, clean.ledger().dma_get_bytes);
  EXPECT_GT(la.elapsed_s, clean.ledger().elapsed_s);
}

// --- Resilient delivery -----------------------------------------------------------

TEST(ResilientCommTest, RecoveryIsDeterministicAndEscalationBounded) {
  topo::CostBreakdown base;
  base.seconds = 1e-3;
  base.alpha_terms = 12;

  FaultSpec spec;
  spec.seed = test_seed();
  spec.drop_p = 0.9;  // most rounds need the ladder; some exhaust it
  const RetryPolicy policy;

  FaultInjector a(spec), b(spec);
  const RecoveryCost ra = charge_recovery(base, /*iter=*/0, a, policy);
  const RecoveryCost rb = charge_recovery(base, /*iter=*/0, b, policy);
  EXPECT_EQ(ra.seconds, rb.seconds);
  EXPECT_EQ(ra.retries, rb.retries);
  EXPECT_EQ(ra.escalations, rb.escalations);
  EXPECT_GT(ra.retries, 0);
  EXPECT_GT(ra.seconds, 0.0);
  // Every escalation charges the full timeout; eventual delivery is never
  // cheaper than the fault-free wire but always finite.
  EXPECT_GE(ra.seconds, ra.escalations * policy.timeout_s);
  EXPECT_LT(ra.seconds,
            base.alpha_terms * (policy.timeout_s + policy.backoff_base_s *
                                                       (1 << policy.max_attempts)) +
                base.seconds);

  // A clean schedule charges nothing at all.
  FaultInjector clean{FaultSpec{}};
  const RecoveryCost rc = charge_recovery(base, 0, clean, policy);
  EXPECT_EQ(rc.seconds, 0.0);
  EXPECT_EQ(rc.retries + rc.escalations + rc.duplicates + rc.delays, 0);
}

// --- Fault-tolerant trainer: bit-identity -----------------------------------------

TEST(FtSsgdTest, DisabledFaultsAreBitIdenticalToPlainSsgd) {
  // The faults-disabled fault-tolerant path IS SsgdTrainer::step(): same
  // call sequence, same float-summation order, bit-identical weights.
  const core::SolverSpec solver;
  parallel::SsgdTrainer plain(mlp(kSubBatch), kNodes, solver, {}, /*seed=*/9);
  FtSsgdTrainer ft(mlp(kSubBatch), kNodes, solver, ft_options(FaultSpec{}),
                   /*seed=*/9);

  std::vector<float> data, labels;
  for (int i = 0; i < 6; ++i) {
    det_batch(i, data, labels);
    const double plain_loss = plain.step(data, labels);
    const StepResult r = ft.step(data, labels);
    EXPECT_EQ(plain_loss, r.loss) << "iter " << i;
    EXPECT_EQ(r.recovery_s, 0.0);
    EXPECT_EQ(r.late_nodes, 0);
  }
  for (int node = 0; node < kNodes; ++node) {
    EXPECT_EQ(weights(plain, node), weights(ft.ssgd(), node)) << node;
  }
}

TEST(FtSsgdTest, EventualDeliveryKeepsWeightsBitIdentical) {
  // Network faults (drops, duplicates, delays, a degraded link) may only
  // cost simulated time: the reduced gradients — and therefore the weights —
  // must equal the fault-free run bit for bit.
  const core::SolverSpec solver;
  FaultSpec faults;
  faults.seed = test_seed();
  faults.drop_p = 0.3;
  faults.dup_p = 0.2;
  faults.delay_p = 0.3;
  faults.link_degrade = 1.5;

  FtSsgdTrainer clean(mlp(kSubBatch), kNodes, solver, ft_options(FaultSpec{}),
                      /*seed=*/9);
  FtSsgdTrainer faulty(mlp(kSubBatch), kNodes, solver, ft_options(faults),
                       /*seed=*/9);
  const auto clean_steps = run_steps(clean, 8);
  const auto faulty_steps = run_steps(faulty, 8);

  double clean_time = 0.0, faulty_time = 0.0, recovery = 0.0;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(clean_steps[i].loss, faulty_steps[i].loss) << "iter " << i;
    clean_time += clean_steps[i].sim_seconds;
    faulty_time += faulty_steps[i].sim_seconds;
    recovery += faulty_steps[i].recovery_s;
  }
  EXPECT_EQ(weights(clean.ssgd()), weights(faulty.ssgd()));
  EXPECT_GT(recovery, 0.0);
  EXPECT_GT(faulty_time, clean_time);
  EXPECT_GT(faulty.stats().drops + faulty.stats().duplicates +
                faulty.stats().delays,
            0);
  EXPECT_EQ(faulty.stats().drops, faulty.stats().retries +
                                      faulty.stats().escalations);
}

// --- Crash + restart --------------------------------------------------------------

TEST(FtSsgdTest, CrashRestartReproducesTheUninterruptedTrajectory) {
  const core::SolverSpec solver;
  constexpr std::int64_t kMaxIter = 8;

  // Uninterrupted baseline (same network faults, no crash).
  FaultSpec base_faults;
  base_faults.seed = 11;
  base_faults.drop_p = 0.1;
  FtOptions base_opts = ft_options(base_faults);
  FtSsgdTrainer baseline(mlp(kSubBatch), kNodes, solver, base_opts,
                         /*seed=*/9);
  RunResult base_run = run_with_restarts(baseline, det_batch, kMaxIter);
  ASSERT_EQ(base_run.restarts, 0);
  const std::vector<float> expected = weights(baseline.ssgd());

  for (const int k : {1, 3, 6}) {
    FaultSpec faults = base_faults;
    faults.crash_node = 0;
    faults.crash_iter = k;
    FtOptions opts = ft_options(faults);
    opts.checkpoint_every = 1;
    opts.checkpoint_prefix = testing::TempDir() + "/swfault_crash_" +
                             std::to_string(k) + ".ckpt";
    FtSsgdTrainer t(mlp(kSubBatch), kNodes, solver, opts, /*seed=*/9);
    const RunResult run = run_with_restarts(t, det_batch, kMaxIter);
    EXPECT_EQ(run.restarts, 1) << "crash at " << k;
    EXPECT_EQ(run.iters, kMaxIter);
    EXPECT_EQ(t.stats().crashes, 1) << "crash at " << k;
    EXPECT_EQ(weights(t.ssgd()), expected)
        << "crash at iteration " << k << " changed the trajectory";
    EXPECT_EQ(base_run.final_loss, run.final_loss);
  }
}

TEST(FtSsgdTest, CrashWithoutCheckpointsRestartsFromInitialState) {
  const core::SolverSpec solver;
  FaultSpec faults;
  faults.crash_node = 0;
  faults.crash_iter = 2;
  FtOptions opts = ft_options(faults);  // checkpoint_every = 0: none written
  FtSsgdTrainer t(mlp(kSubBatch), kNodes, solver, opts, /*seed=*/9);
  const RunResult run = run_with_restarts(t, det_batch, 5);
  EXPECT_EQ(run.restarts, 1);
  EXPECT_EQ(run.iters, 5);
  EXPECT_TRUE(t.last_checkpoint().empty());

  // The replayed run equals a crash-free run (batches are pure in iter).
  FtSsgdTrainer clean(mlp(kSubBatch), kNodes, solver, ft_options(FaultSpec{}),
                      /*seed=*/9);
  run_with_restarts(clean, det_batch, 5);
  EXPECT_EQ(weights(t.ssgd()), weights(clean.ssgd()));
}

// --- Stragglers and bounded staleness ---------------------------------------------

TEST(FtSsgdTest, StragglerTriggersBoundedStalenessCarry) {
  const core::SolverSpec solver;
  FaultSpec faults;
  faults.stragglers.push_back({1, 10.0});  // 10x the 2.5x deadline
  FtSsgdTrainer t(mlp(kSubBatch), kNodes, solver, ft_options(faults),
                  /*seed=*/9);
  const auto steps = run_steps(t, 4);
  EXPECT_EQ(steps[0].late_nodes, 1);
  EXPECT_FALSE(steps[0].stale_applied);
  // The late gradient joins the NEXT iteration's aggregate.
  EXPECT_TRUE(steps[1].stale_applied);
  EXPECT_EQ(t.stats().straggler_iters, 4);
  for (const StepResult& r : steps) {
    EXPECT_TRUE(std::isfinite(r.loss));
    EXPECT_GT(r.sim_seconds, 0.0);
  }
}

TEST(FtSsgdTest, AllNodesLateDegeneratesToSynchronous) {
  // When every node blows the deadline there is no one to proceed without;
  // the step must fall back to a plain synchronous aggregate.
  const core::SolverSpec solver;
  FaultSpec faults;
  faults.stragglers.push_back({0, 10.0});
  faults.stragglers.push_back({1, 10.0});
  faults.stragglers.push_back({2, 10.0});
  FtSsgdTrainer slow(mlp(kSubBatch), kNodes, solver, ft_options(faults),
                     /*seed=*/9);
  FtSsgdTrainer clean(mlp(kSubBatch), kNodes, solver, ft_options(FaultSpec{}),
                      /*seed=*/9);
  run_steps(slow, 4);
  run_steps(clean, 4);
  EXPECT_EQ(weights(slow.ssgd()), weights(clean.ssgd()));
  EXPECT_EQ(slow.stale_count(), 0);
}

TEST(FtSsgdTest, ZeroStalenessAlwaysWaits) {
  const core::SolverSpec solver;
  FaultSpec faults;
  faults.stragglers.push_back({1, 10.0});
  FtOptions opts = ft_options(faults);
  opts.max_staleness = 0;  // wait for stragglers, never aggregate without
  FtSsgdTrainer waiting(mlp(kSubBatch), kNodes, solver, opts, /*seed=*/9);
  FtSsgdTrainer clean(mlp(kSubBatch), kNodes, solver, ft_options(FaultSpec{}),
                      /*seed=*/9);
  const auto steps = run_steps(waiting, 3);
  run_steps(clean, 3);
  for (const StepResult& r : steps) EXPECT_EQ(r.late_nodes, 0);
  EXPECT_EQ(weights(waiting.ssgd()), weights(clean.ssgd()));
}

TEST(FtSsgdTest, StragglerDeadlineIsTwoAndAHalfTimesNodeCompute) {
  // A healthy node computes for 1 ms per iteration; a node is late only when
  // it takes MORE than 2.5x that, so exactly 2.5x is still on time and the
  // barrier waits for it.
  const core::SolverSpec solver;
  FaultSpec at_deadline;
  at_deadline.stragglers.push_back({1, 2.5});
  FtSsgdTrainer on_time(mlp(kSubBatch), kNodes, solver,
                        ft_options(at_deadline), /*seed=*/9);
  const StepResult r = run_steps(on_time, 1)[0];
  EXPECT_EQ(r.late_nodes, 0);
  EXPECT_EQ(r.sim_seconds,
            1e-3 * 2.5 + on_time.ssgd().last_comm().seconds + r.recovery_s);

  // At 2.6x the survivors commit at the 2.5 ms deadline, plus the
  // all-reduce over the two on-time nodes and its recovery.
  FaultSpec past_deadline;
  past_deadline.stragglers.push_back({1, 2.6});
  FtSsgdTrainer late(mlp(kSubBatch), kNodes, solver,
                     ft_options(past_deadline), /*seed=*/9);
  const StepResult l = run_steps(late, 1)[0];
  EXPECT_EQ(l.late_nodes, 1);
  topo::Topology survivors;
  survivors.num_nodes = kNodes - 1;
  const topo::CostBreakdown comm = topo::allreduce_cost(
      topo::AllreduceAlgo::kRhdRoundRobin, topo::Compression::kNone,
      static_cast<std::int64_t>(late.ssgd().node(0).param_count()) * 4,
      survivors, topo::sunway_network());
  EXPECT_EQ(l.sim_seconds, 1e-3 * 2.5 + comm.seconds + l.recovery_s);
}

// --- Checkpoint format ------------------------------------------------------------

Checkpoint sample_checkpoint() {
  Checkpoint c;
  c.iter = 42;
  c.fault_seed = 7;
  c.params = {1.0f, -2.5f, 0.0f, 3.25f};
  c.history = {{0.5f, 0.25f}, {-1.0f}};
  c.stale_grad = {0.125f, 0.0f, -0.75f};
  c.stale_count = 1;
  c.plan_cache = "plans/alexnet.cache";
  return c;
}

TEST(CheckpointTest, RoundTripIsExact) {
  const std::string path = testing::TempDir() + "/swfault_roundtrip.ckpt";
  const Checkpoint a = sample_checkpoint();
  save_checkpoint(path, a);
  const Checkpoint b = load_checkpoint(path);
  EXPECT_EQ(a.iter, b.iter);
  EXPECT_EQ(a.fault_seed, b.fault_seed);
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.stale_grad, b.stale_grad);
  EXPECT_EQ(a.stale_count, b.stale_count);
  EXPECT_EQ(a.plan_cache, b.plan_cache);
}

TEST(CheckpointTest, RejectsGarbageMissingAndFutureVersions) {
  const std::string garbage = testing::TempDir() + "/swfault_garbage.ckpt";
  std::ofstream(garbage) << "definitely not a checkpoint";
  EXPECT_THROW(load_checkpoint(garbage), base::CheckError);
  EXPECT_THROW(load_checkpoint(testing::TempDir() + "/swfault_missing.ckpt"),
               base::CheckError);

  // Patch the version word (right after the 8-byte magic) to a future one.
  const std::string future = testing::TempDir() + "/swfault_future.ckpt";
  save_checkpoint(future, sample_checkpoint());
  {
    std::fstream f(future,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    const std::uint32_t v = kCheckpointVersion + 1;
    f.write(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  EXPECT_THROW(load_checkpoint(future), base::CheckError);
}

TEST(CheckpointTest, RejectsLengthsBeyondTheFile) {
  // Magic, version, iter and seed, then a params length of one million
  // floats followed by only 16 bytes: the loader must refuse the length
  // before it allocates for it.
  const std::string path = testing::TempDir() + "/swfault_overlong.ckpt";
  {
    std::ofstream f(path, std::ios::binary);
    f.write("SWFCKPT", 8);  // the 8-byte magic, NUL included
    const std::uint32_t version = kCheckpointVersion;
    const std::int64_t iter = 0;
    const std::uint64_t seed = 0;
    const std::uint64_t params = 1000000;
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    f.write(reinterpret_cast<const char*>(&iter), sizeof(iter));
    f.write(reinterpret_cast<const char*>(&seed), sizeof(seed));
    f.write(reinterpret_cast<const char*>(&params), sizeof(params));
    const char payload[16] = {};
    f.write(payload, sizeof(payload));
  }
  try {
    load_checkpoint(path);
    ADD_FAILURE() << "an over-long params length loaded";
  } catch (const base::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("params length"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointTest, RestoreRejectsADifferentParameterCount) {
  const core::SolverSpec solver;
  FtSsgdTrainer narrow(mlp(kSubBatch, kInDim, /*hidden=*/16), kNodes, solver,
                       ft_options(FaultSpec{}), 9);
  FtSsgdTrainer wide(mlp(kSubBatch, kInDim, /*hidden=*/32), kNodes, solver,
                     ft_options(FaultSpec{}), 9);
  const std::string path = testing::TempDir() + "/swfault_wide.ckpt";
  wide.save_checkpoint(path);
  const std::vector<float> before = weights(narrow.ssgd());
  EXPECT_THROW(narrow.restore_checkpoint(path), base::CheckError);
  EXPECT_EQ(weights(narrow.ssgd()), before);  // nothing was half-restored
}

TEST(CheckpointTest, JobNamespacedPaths) {
  // Empty job keeps the single-job legacy layout the pre-v2 runs used.
  EXPECT_EQ(checkpoint_path("run/model.ckpt", "", 40), "run/model.ckpt.40");
  EXPECT_EQ(checkpoint_path("run/cluster", "alexnet-b256-n8.j3", 40),
            "run/cluster.alexnet-b256-n8.j3.ckpt.40");
}

TEST(CheckpointTest, RejectsWrongJobLoads) {
  const std::string path = testing::TempDir() + "/swfault_job.ckpt";
  Checkpoint c = sample_checkpoint();
  c.job_id = "vgg16-b64-n4.j2";
  save_checkpoint(path, c);

  // Unconstrained loads and the owning job both succeed.
  EXPECT_EQ(load_checkpoint(path).job_id, c.job_id);
  EXPECT_EQ(load_checkpoint(path, c.job_id).iter, c.iter);
  // Any other tenant's job is rejected instead of resuming foreign weights.
  EXPECT_THROW(load_checkpoint(path, "resnet50-b32-n8.j9"), base::CheckError);

  // A legacy (job-less) checkpoint also refuses a namespaced load: it
  // cannot prove it belongs to the requesting job.
  const std::string legacy = testing::TempDir() + "/swfault_legacyjob.ckpt";
  save_checkpoint(legacy, sample_checkpoint());
  EXPECT_THROW(load_checkpoint(legacy, "vgg16-b64-n4.j2"), base::CheckError);
}

TEST(CheckpointTest, PeriodicCheckpointsAreJobNamespaced) {
  const core::SolverSpec solver;
  FtOptions opts = ft_options(FaultSpec{});
  opts.checkpoint_every = 2;
  opts.checkpoint_prefix = testing::TempDir() + "/swfault_nsrun";
  opts.job_id = "mlp.j1";
  FtSsgdTrainer t(mlp(kSubBatch), kNodes, solver, opts, 9);
  run_steps(t, 2);
  EXPECT_EQ(t.last_checkpoint(), opts.checkpoint_prefix + ".mlp.j1.ckpt.2");

  // The owning job resumes; a different job id refuses the same file.
  FtSsgdTrainer same(mlp(kSubBatch), kNodes, solver, opts, 9);
  same.restore_checkpoint(t.last_checkpoint());
  EXPECT_EQ(same.iter(), 2);
  EXPECT_EQ(weights(same.ssgd()), weights(t.ssgd()));
  FtOptions other = opts;
  other.job_id = "mlp.j2";
  FtSsgdTrainer stranger(mlp(kSubBatch), kNodes, solver, other, 9);
  EXPECT_THROW(stranger.restore_checkpoint(t.last_checkpoint()),
               base::CheckError);
}

// --- Trace determinism ------------------------------------------------------------

/// A scenario exercising every injection site that reaches the trace:
/// drops/dups/delays (net), a straggler, and a crash with restart.
FtOptions scenario_options(std::uint64_t seed, const std::string& prefix) {
  FaultSpec faults;
  faults.seed = seed;
  faults.drop_p = 0.5;  // high enough that every seed draws some retries
  faults.dup_p = 0.1;
  faults.delay_p = 0.2;
  faults.stragglers.push_back({1, 5.0});
  faults.crash_node = 0;
  faults.crash_iter = 2;
  FtOptions opts = ft_options(faults);
  opts.checkpoint_every = 1;
  opts.checkpoint_prefix = prefix;
  return opts;
}

void run_scenario(std::uint64_t seed, const std::string& prefix,
                  trace::Tracer* tracer) {
  const core::SolverSpec solver;
  FtSsgdTrainer t(mlp(kSubBatch), kNodes, solver,
                  scenario_options(seed, prefix), /*seed=*/9);
  if (tracer != nullptr) {
    tracer->set_track_name(0, "node");
    t.set_tracer(tracer, 0);
  }
  run_with_restarts(t, det_batch, 5);
}

TEST(FaultTraceTest, RepeatedRunsEmitIdenticalTraces) {
  trace::Tracer first, second;
  run_scenario(test_seed(), testing::TempDir() + "/swfault_trace_a.ckpt",
               &first);
  run_scenario(test_seed(), testing::TempDir() + "/swfault_trace_b.ckpt",
               &second);

  // Every recorded event — spans, instants, counters — matches in kind,
  // name, category and bit-identical simulated time.
  const auto& a_log = first.log().events();
  const auto& b_log = second.log().events();
  ASSERT_EQ(a_log.size(), b_log.size());
  bool saw_inject = false, saw_retry = false, saw_restart = false;
  for (std::size_t i = 0; i < a_log.size(); ++i) {
    const sim::Event& a = a_log[i];
    const sim::Event& b = b_log[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.category, b.category) << i;
    EXPECT_EQ(a.begin_s, b.begin_s) << i;  // bit-identical simulated time
    EXPECT_EQ(a.end_s, b.end_s) << i;
    if (a.kind != sim::EventKind::kInstant) continue;
    saw_inject |= a.name == "fault.inject";
    saw_retry |= a.name == "fault.retry";
    saw_restart |= a.name == "fault.restart";
  }
  EXPECT_TRUE(saw_inject);
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_restart);
}

// --- Golden trace -----------------------------------------------------------------

/// Structural skeleton of a chrome trace: the (ph, name, cat) triple of
/// every event in emission order, one per line. Timestamps and args are
/// deliberately excluded — the golden pin is about which spans/instants/
/// counters appear and in what order, not about cost-model retunes.
std::vector<std::string> trace_structure(const std::string& json) {
  std::vector<std::string> out;
  std::istringstream lines(json);
  std::string line;
  auto field = [&line](const char* key) -> std::string {
    const std::string tag = std::string("\"") + key + "\":\"";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos) return "";
    const std::size_t begin = at + tag.size();
    return line.substr(begin, line.find('"', begin) - begin);
  };
  while (std::getline(lines, line)) {
    const std::string ph = field("ph");
    if (ph.empty()) continue;
    out.push_back(ph + " " + field("name") + " " + field("cat"));
  }
  return out;
}

TEST(FaultTraceTest, GoldenScenarioStructureMatches) {
  // Fixed seed: the golden file pins one concrete schedule. Regenerate with
  //   SWC_UPDATE_GOLDEN=1 ./fault_test --gtest_filter='*GoldenScenario*'
  // and commit the diff when the trace structure changes intentionally.
  trace::Tracer tracer;
  run_scenario(/*seed=*/3, testing::TempDir() + "/swfault_golden.ckpt",
               &tracer);
  std::ostringstream json;
  trace::write_chrome_trace(tracer, json);

  const std::string golden_path =
      std::string(SWC_TEST_DATA_DIR) + "/fault_scenario_trace.json";
  if (std::getenv("SWC_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << golden_path;
    out << json.str();
    GTEST_SKIP() << "golden trace regenerated at " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with SWC_UPDATE_GOLDEN=1)";
  std::stringstream golden;
  golden << in.rdbuf();

  const auto expected = trace_structure(golden.str());
  const auto actual = trace_structure(json.str());
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "event " << i;
  }
}

// --- Bucketed all-reduce under the fault-tolerant path -----------------------

TEST(FtSsgdTest, BucketedFaultFreePathIsBitIdenticalToSingleMessage) {
  // The per-bucket retry/replay composition may not change the math: with
  // faults disabled, a bucketed FT trainer matches the single-message one
  // bit for bit (the reduction is elementwise either way).
  const core::SolverSpec solver;
  FtSsgdTrainer single(mlp(kSubBatch), kNodes, solver,
                       ft_options(FaultSpec{}), /*seed=*/9);
  FtOptions bucketed_opts = ft_options(FaultSpec{});
  bucketed_opts.ssgd.buckets = 3;
  FtSsgdTrainer bucketed(mlp(kSubBatch), kNodes, solver, bucketed_opts,
                         /*seed=*/9);
  EXPECT_GT(bucketed.ssgd().num_buckets(), 1);

  const auto single_steps = run_steps(single, 6);
  const auto bucketed_steps = run_steps(bucketed, 6);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(single_steps[i].loss, bucketed_steps[i].loss) << "iter " << i;
  }
  EXPECT_EQ(weights(single.ssgd()), weights(bucketed.ssgd()));
}

TEST(FtSsgdTest, BucketedEventualDeliveryKeepsWeightsBitIdentical) {
  // Network faults against the bucketed collective: every bucket's rounds
  // draw their own fates (distinct round offsets), recovery costs time, and
  // the reduced gradients still match the fault-free bucketed run exactly.
  const core::SolverSpec solver;
  FaultSpec faults;
  faults.seed = test_seed();
  faults.drop_p = 0.3;
  faults.dup_p = 0.2;

  FtOptions clean_opts = ft_options(FaultSpec{});
  clean_opts.ssgd.buckets = 3;
  FtOptions faulty_opts = ft_options(faults);
  faulty_opts.ssgd.buckets = 3;
  FtSsgdTrainer clean(mlp(kSubBatch), kNodes, solver, clean_opts,
                      /*seed=*/9);
  FtSsgdTrainer faulty(mlp(kSubBatch), kNodes, solver, faulty_opts,
                       /*seed=*/9);
  const auto clean_steps = run_steps(clean, 8);
  const auto faulty_steps = run_steps(faulty, 8);
  double recovery = 0.0;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(clean_steps[i].loss, faulty_steps[i].loss) << "iter " << i;
    recovery += faulty_steps[i].recovery_s;
  }
  EXPECT_EQ(weights(clean.ssgd()), weights(faulty.ssgd()));
  EXPECT_GT(recovery, 0.0);
  EXPECT_EQ(faulty.stats().drops,
            faulty.stats().retries + faulty.stats().escalations);
}

TEST(FtSsgdTest, BucketedCrashRestartReproducesTheTrajectory) {
  // Checkpoint/restart across the bucketed collective: a crash mid-run must
  // replay onto the exact uninterrupted trajectory, buckets and all.
  const core::SolverSpec solver;
  constexpr std::int64_t kMaxIter = 6;
  FtOptions base_opts = ft_options(FaultSpec{});
  base_opts.ssgd.buckets = 3;
  FtSsgdTrainer baseline(mlp(kSubBatch), kNodes, solver, base_opts,
                         /*seed=*/9);
  const RunResult base_run = run_with_restarts(baseline, det_batch, kMaxIter);
  ASSERT_EQ(base_run.restarts, 0);

  FaultSpec faults;
  faults.crash_node = 0;
  faults.crash_iter = 3;
  FtOptions opts = ft_options(faults);
  opts.ssgd.buckets = 3;
  opts.checkpoint_every = 1;
  opts.checkpoint_prefix = testing::TempDir() + "/swfault_bucketed.ckpt";
  FtSsgdTrainer t(mlp(kSubBatch), kNodes, solver, opts, /*seed=*/9);
  const RunResult run = run_with_restarts(t, det_batch, kMaxIter);
  EXPECT_EQ(run.restarts, 1);
  EXPECT_EQ(run.iters, kMaxIter);
  EXPECT_EQ(weights(t.ssgd()), weights(baseline.ssgd()));
  EXPECT_EQ(run.final_loss, base_run.final_loss);
}

}  // namespace
}  // namespace swcaffe::fault
