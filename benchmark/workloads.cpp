// The five workloads of swc_benchmark. Each builds its inputs from the seed
// before anything is timed, sets up through the program's constructors,
// runs a closed loop (the next op starts when the previous one returns) and
// checks every op outside its timed window. README.md gives the reasons for
// each workload and the metric each layer call should move.
#include <stdlib.h>

#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "core/models.h"
#include "fault/checkpoint.h"
#include "fault/ft_ssgd.h"
#include "harness.h"
#include "hw/cost_model.h"
#include "parallel/ssgd.h"
#include "sched/scheduler.h"
#include "sched/workload.h"
#include "serve/arrival.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/stats.h"
#include "topo/compress.h"

namespace swcbench {

using namespace swcaffe;

namespace {

// --- Training (train_dense, train_ft) ---------------------------------------
// Reduced AlexNet-BN: 21.6 M parameters, so the packed gradient is 86.5 MB
// while a step stays under a second on four host threads.
constexpr int kReplicas = 4;
constexpr int kSubBatch = 2;
constexpr int kClasses = 10;
constexpr int kImage = 67;
constexpr int kBuckets = 4;
constexpr int kBatchPool = 4;
/// Replica parameters are compared bitwise every this many ops.
constexpr int kParamCheckEvery = 4;
/// Keeps the loss finite (and below the softmax clamp) at seeds 1 and 2.
constexpr float kBaseLr = 1e-4f;
/// The loss of this iteration is reported: with the arithmetic unchanged it
/// must not move by a bit. The warm-up retires iteration 0, so every run
/// retires it within its first kLossIter ops.
constexpr int kLossIter = 3;

core::NetSpec train_net() {
  return core::alexnet_bn(kSubBatch, kClasses, kImage);
}

core::SolverSpec train_solver() {
  core::SolverSpec s;
  s.base_lr = kBaseLr;
  return s;
}

struct Batch {
  std::vector<float> data;
  std::vector<float> labels;
};

/// The global batches the loop cycles through (all replicas' sub-batches).
std::vector<Batch> make_batches(std::uint64_t seed, const core::NetSpec& spec) {
  std::size_t per_node = 1;
  for (int d : spec.inputs.at(0).second) {
    per_node *= static_cast<std::size_t>(d);
  }
  std::vector<Batch> pool(kBatchPool);
  for (std::size_t b = 0; b < pool.size(); ++b) {
    pool[b].data.resize(per_node * kReplicas);
    pool[b].labels.resize(static_cast<std::size_t>(kSubBatch) * kReplicas);
    for (std::size_t i = 0; i < pool[b].data.size(); ++i) {
      pool[b].data[i] = static_cast<float>(2.0 * unit(seed, 2 * b, i) - 1.0);
    }
    for (std::size_t i = 0; i < pool[b].labels.size(); ++i) {
      pool[b].labels[i] = static_cast<float>(
          static_cast<int>(unit(seed, 2 * b + 1, i) * kClasses));
    }
  }
  return pool;
}

/// True when every replica holds bit-identical parameters.
bool replicas_agree(parallel::SsgdTrainer& tr) {
  const std::size_t n = tr.node(0).param_count();
  std::vector<float> ref(n), other(n);
  tr.node(0).pack_params(ref);
  for (int r = 1; r < tr.num_nodes(); ++r) {
    tr.node(r).pack_params(other);
    if (std::memcmp(ref.data(), other.data(), n * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool same_cost(const topo::CostBreakdown& a, const topo::CostBreakdown& b) {
  return a.seconds == b.seconds && a.alpha_terms == b.alpha_terms &&
         a.beta1_bytes == b.beta1_bytes && a.beta2_bytes == b.beta2_bytes &&
         a.gamma_bytes == b.gamma_bytes;
}

double wire_bytes_per_step(const parallel::SsgdTrainer& tr) {
  double bytes = 0.0;
  for (const auto& b : tr.bucket_layout()) {
    bytes += static_cast<double>(
        topo::wire_bytes(tr.options().compression, b.bytes));
  }
  return bytes;
}

void train_dense(const Config& cfg, Timer& timer, Result& res) {
  const core::NetSpec spec = train_net();
  parallel::SsgdOptions opts;
  opts.algo = parallel::AllreduceAlgo::kRhdRoundRobin;
  opts.buckets = kBuckets;
  opts.threads = cfg.threads;
  const std::vector<Batch> batches = make_batches(cfg.seed, spec);

  auto tr = setup(cfg, timer, res, [&](Timer& t) {
    return t.call("parallel.trainer_ctor", [&] {
      return std::make_unique<parallel::SsgdTrainer>(
          spec, kReplicas, train_solver(), opts, cfg.seed);
    });
  });

  std::vector<std::vector<float>> grads(kReplicas);
  run_ops(cfg, timer, res, /*warmup=*/true, kLossIter, [&](Op& op) {
    const Batch& b = batches[static_cast<std::size_t>(op.index) % kBatchPool];
    const int it = tr->iter();
    double loss = 0.0;
    op.timed([&] {
      loss = op.call("core.fwd_bwd", [&] {
        return tr->forward_backward_packed(b.data, b.labels, grads);
      });
      op.call("topo.allreduce", [&] { tr->allreduce(grads); });
      op.call("core.apply", [&] { tr->apply(grads); });
    });
    op.items = kReplicas * kSubBatch;
    op.check(std::isfinite(loss), "loss is not finite");
    if (it == kLossIter) res.metric("core.loss_iter3", loss, "loss");
    if ((op.index + 1) % kParamCheckEvery == 0) {
      op.check(replicas_agree(*tr), "replica parameters differ");
    }
  });

  // Independent oracle: the functional all-reduce must charge exactly what
  // the timing-only pricing path prices for the same trainer.
  const hw::CostModel cost;
  const parallel::TimedIteration it =
      tr->price_iteration(cost, core::describe_net_spec(spec));
  res.check(same_cost(tr->last_comm(), it.comm),
            "functional all-reduce charges differ from price_iteration");
  res.check(replicas_agree(*tr), "replica parameters differ after the run");

  res.metric("topo.wire_bytes_per_step", wire_bytes_per_step(*tr), "B");
  res.metric("topo.messages_per_step", tr->last_comm().alpha_terms, "count");
  res.metric("sim.step", it.overlap.finish_s, "sim_s");
  res.metric("sim.comp", it.comp_s, "sim_s");
  res.metric("sim.comm", it.comm.seconds, "sim_s");
  res.metric("sim.exposed_comm", it.overlap.exposed_comm_s, "sim_s");
}

// train_ft: checkpoints every kCkptEvery iterations and node 0 crashes on
// reaching kCrashIter. After the warm-up retires iteration 0, the first
// kFtWindowOps ops write a checkpoint (op 1), crash and restore (op 3),
// replay iteration 3 (op 4) and retire iteration 4 (op 5). Every run runs
// them, and the simulated outputs and fault counts are taken over the
// warm-up and these ops, so they do not depend on host speed.
constexpr int kCkptEvery = 3;
constexpr int kCrashIter = 4;
constexpr int kFtWindowOps = 6;

/// A mkdtemp directory that is removed with everything in it.
struct ScratchDir {
  explicit ScratchDir(const std::string& parent) {
    std::string tmpl = parent + "/swc_benchmark.XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + parent);
    }
    path = tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string path;
};

void train_ft(const Config& cfg, Timer& timer, Result& res) {
  const ScratchDir dir(cfg.scratch);
  const core::NetSpec spec = train_net();
  fault::FtOptions opts;
  opts.ssgd.algo = parallel::AllreduceAlgo::kHierarchical;
  opts.ssgd.supernode_size = 2;  // two supernodes of two: the two-level path
  opts.ssgd.compression = topo::Compression::kInt8;
  opts.ssgd.buckets = kBuckets;
  opts.ssgd.threads = cfg.threads;
  opts.faults.seed = cfg.seed;
  opts.faults.drop_p = 0.2;
  opts.faults.crash_node = 0;
  opts.faults.crash_iter = kCrashIter;
  opts.checkpoint_every = kCkptEvery;
  opts.checkpoint_prefix = dir.path + "/ckpt";
  const std::vector<Batch> batches = make_batches(cfg.seed, spec);

  auto tr = setup(cfg, timer, res, [&](Timer& t) {
    return t.call("fault.trainer_ctor", [&] {
      return std::make_unique<fault::FtSsgdTrainer>(spec, kReplicas,
                                                    train_solver(), opts,
                                                    cfg.seed);
    });
  });

  std::map<int, double> first_loss;  // iteration -> loss when first retired
  bool crashed = false;
  int mismatches = 0;
  // Over the window (the warm-up and the first kFtWindowOps ops):
  fault::FaultStats window;
  int steps = 0;      // step() calls that retired an iteration
  int op_steps = 0;   // ... inside timed ops
  int new_iters = 0;  // ... retiring an iteration for the first time
  std::vector<double> sim_step, sim_recovery;  // per new iteration
  run_ops(cfg, timer, res, /*warmup=*/true, kFtWindowOps, [&](Op& op) {
    const bool in_window = op.warmup || op.index < kFtWindowOps;
    const int it = tr->iter();
    // The batch is a pure function of the iteration, so a replay sees the
    // same data (the run_with_restarts contract).
    const Batch& b = batches[static_cast<std::size_t>(it) % kBatchPool];
    bool crash_expected = false;
    for (int node = 0; node < kReplicas && !crashed; ++node) {
      crash_expected = crash_expected || tr->injector().crashes_at(node, it);
    }
    const bool ckpt_expected = !crash_expected && (it + 1) % kCkptEvery == 0;
    const std::string ckpt_before = tr->last_checkpoint();
    fault::StepResult r;
    op.timed([&] {
      r = op.call(ckpt_expected ? "fault.ckpt_step" : "fault.step",
                  [&] { return tr->step(b.data, b.labels); });
      if (r.crashed) op.call("fault.restore", [&] { tr->restore_latest(); });
    });
    op.check(r.crashed == crash_expected, "crash site disagrees with the spec");
    if (in_window) window = tr->stats();
    if (r.crashed) {
      crashed = true;
      return;
    }
    op.check(std::isfinite(r.loss), "loss is not finite");
    const std::string ckpt_after =
        ckpt_expected ? fault::checkpoint_path(opts.checkpoint_prefix, "",
                                               it + 1)
                      : ckpt_before;
    op.check(tr->last_checkpoint() == ckpt_after,
             "checkpoint schedule disagrees with checkpoint_every");
    const auto [pos, fresh] = first_loss.emplace(it, r.loss);
    if (fresh && !op.warmup) op.items = kReplicas * kSubBatch;
    if (!fresh && std::memcmp(&r.loss, &pos->second, sizeof r.loss) != 0) {
      // A replay after restore_latest() should retrace the lost iteration
      // bit for bit. It does not today; counted, not failed.
      ++mismatches;
    }
    if (in_window) {
      ++steps;
      if (!op.warmup) {
        ++op_steps;
        new_iters += fresh;
      }
      if (fresh) {
        sim_step.push_back(r.sim_seconds);
        sim_recovery.push_back(r.recovery_s);
      }
    }
    if (!op.warmup && (op.index + 1) % kParamCheckEvery == 0) {
      op.check(replicas_agree(tr->ssgd()), "replica parameters differ");
    }
  });
  res.check(replicas_agree(tr->ssgd()),
            "replica parameters differ after the run");
  if (first_loss.count(kLossIter)) {
    res.metric("core.loss_iter3", first_loss[kLossIter], "loss");
  }

  const double per_step = steps > 0 ? 1.0 / steps : 0.0;
  res.metric("fault.retries_per_step", window.retries * per_step, "count");
  res.metric("fault.drops_per_step", window.drops * per_step, "count");
  res.metric("fault.escalations_per_step", window.escalations * per_step,
             "count");
  res.metric("fault.restarts", static_cast<double>(window.restarts), "count");
  res.metric("fault.replay_loss_mismatches", mismatches, "count");
  res.metric("fault.useful_step_ratio",
             op_steps > 0 ? static_cast<double>(new_iters) / op_steps : 0.0,
             "ratio");
  if (!tr->last_checkpoint().empty()) {
    res.metric("fault.ckpt_bytes",
               static_cast<double>(
                   std::filesystem::file_size(tr->last_checkpoint())),
               "B");
  }
  res.metric("topo.wire_bytes_per_step", wire_bytes_per_step(tr->ssgd()), "B");
  res.metric("topo.messages_per_step", tr->ssgd().last_comm().alpha_terms,
             "count");
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  res.metric("sim.step", mean(sim_step), "sim_s");
  res.metric("sim.recovery", mean(sim_recovery), "sim_s");
}

// --- whatif ------------------------------------------------------------------
// One op answers two what-if questions the way swcaffe_train --timing-only
// does: the timing-only SsgdTrainer constructor, price_iteration over
// describe_net_spec, and the destructor. The questions use the
// configurations its callers use: the CLI defaults (flat round-robin RHD,
// no codec, one bucket) at a node count the seed orders, and the smoke
// test's full machine (40,960 nodes, hierarchical, fp16, four buckets). They
// take about 0.5 and 1.1 s, so the op is the pair and a run's median stays
// on one population. The net is GoogLeNet, the paper model whose questions
// are cheapest, so a run holds six to eight ops; at two images per node a question
// stays within 0.9 GB (the prototype replica is allocated at the per-node
// batch, and the paper's 32-64 images need several GB).
constexpr int kWhatifBatch = 2;
constexpr int kFlatNodes[] = {64, 1024, 4096, 40960};
constexpr int kFullMachine = 40960;
/// Ops every run makes; sim.query is taken over their questions.
constexpr int kSimRounds = 2;

struct Question {
  int nodes = 0;
  parallel::SsgdOptions options;
};

struct WhatifInputs {
  core::NetSpec spec;
  std::vector<Question> flat;  // op k asks flat[k % flat.size()]
  Question full;               // every op asks it
};

bool same_pricing(const parallel::TimedIteration& a,
                  const parallel::TimedIteration& b) {
  return a.comp_s == b.comp_s && same_cost(a.comm, b.comm) &&
         a.overlap.finish_s == b.overlap.finish_s &&
         a.overlap.exposed_comm_s == b.overlap.exposed_comm_s &&
         a.serial_s == b.serial_s;
}

void whatif(const Config& cfg, Timer& timer, Result& res) {
  const hw::CostModel cost;
  auto in = setup(cfg, timer, res, [&](Timer& t) {
    auto w = std::make_unique<WhatifInputs>();
    w->spec = t.call("core.model_spec",
                     [&] { return core::googlenet(kWhatifBatch); });
    parallel::SsgdOptions defaults;
    defaults.timing_only = true;
    for (int nodes : kFlatNodes) w->flat.push_back({nodes, defaults});
    for (std::size_t i = w->flat.size() - 1; i > 0; --i) {  // Fisher-Yates
      const auto j = static_cast<std::size_t>(unit(cfg.seed, i, 0) * (i + 1));
      std::swap(w->flat[i], w->flat[j]);
    }
    w->full = {kFullMachine, defaults};
    w->full.options.algo = parallel::AllreduceAlgo::kHierarchical;
    w->full.options.compression = topo::Compression::kFp16;
    w->full.options.buckets = 4;
    return w;
  });

  const core::SolverSpec solver;
  double prototype_params = 0.0;
  std::vector<double> sim_queries;
  std::optional<parallel::TimedIteration> first_full;
  run_ops(cfg, timer, res, /*warmup=*/false, kSimRounds, [&](Op& op) {
    const std::array<const Question*, 2> questions = {
        &in->flat[static_cast<std::size_t>(op.index) % in->flat.size()],
        &in->full};
    std::array<parallel::TimedIteration, 2> it;
    op.timed([&] {
      for (std::size_t q = 0; q < questions.size(); ++q) {
        auto tr = op.call("parallel.trainer_ctor", [&] {
          return std::make_unique<parallel::SsgdTrainer>(
              in->spec, questions[q]->nodes, solver, questions[q]->options,
              cfg.seed);
        });
        const auto descs = op.call(
            "core.describe", [&] { return core::describe_net_spec(in->spec); });
        it[q] = op.call("parallel.price_iteration",
                        [&] { return tr->price_iteration(cost, descs); });
        prototype_params = static_cast<double>(tr->node(0).param_count());
        op.call("parallel.trainer_free", [&] { tr.reset(); });
      }
    });
    op.items = static_cast<double>(questions.size());
    for (const parallel::TimedIteration& x : it) {
      op.check(std::isfinite(x.comp_s) && std::isfinite(x.comm.seconds) &&
                   std::isfinite(x.overlap.finish_s) &&
                   std::isfinite(x.overlap.exposed_comm_s) &&
                   std::isfinite(x.serial_s),
               "priced iteration is not finite");
      op.check(x.comp_s <= x.overlap.finish_s &&
                   x.overlap.finish_s <= x.serial_s,
               "priced times violate comp <= overlapped <= serial");
      if (op.index < kSimRounds) sim_queries.push_back(x.overlap.finish_s);
    }
    if (!first_full) first_full = it[1];
    op.check(same_pricing(*first_full, it[1]),
             "repriced full-machine question differs");
  });

  res.metric("core.prototype_params", prototype_params, "count");
  res.metric("sim.query", geomean(sim_queries), "sim_s");
}

// --- serve -------------------------------------------------------------------
// One op serves the same Poisson trace set at 1x, 2x, 4x and 8x the
// unbatched capacity 1/f(1). A single call ranges from ~15 ms (1x) to
// ~300 ms (8x); timing the round keeps the median on one population. Every
// run serves each of the kTraceSets sets, and the simulated outputs and
// counts pool each set once.
constexpr int kMaxBatch = 8;
constexpr double kLoads[] = {1.0, 2.0, 4.0, 8.0};
constexpr const char* kLoadCall[] = {
    "serve.simulate.load1", "serve.simulate.load2", "serve.simulate.load4",
    "serve.simulate.load8"};
constexpr int kTraceSets = 8;

struct ServeInputs {
  std::unique_ptr<serve::InferenceEngine> engine;
  double f1 = 0.0, f8 = 0.0;
  std::vector<std::array<std::vector<double>, 4>> arrivals;  // [set][load]
};

struct ServeSummary {
  int admitted, rejected;
  std::size_t batches;
  double makespan, p50, p99, max;
  bool operator==(const ServeSummary&) const = default;
};

ServeSummary summarize(const serve::ServeResult& r) {
  return {r.admitted,     r.rejected,      r.batches.size(), r.makespan_s,
          r.latency.p50_s, r.latency.p99_s, r.latency.max_s};
}

void serve_wl(const Config& cfg, Timer& timer, Result& res) {
  const hw::CostModel cost;
  auto in = setup(cfg, timer, res, [&](Timer& t) {
    auto s = std::make_unique<ServeInputs>();
    t.call("serve.engine_ctor", [&] {
      serve::EngineOptions eo;
      eo.max_batch = kMaxBatch;
      s->engine = std::make_unique<serve::InferenceEngine>(
          cost, "resnet50", [](int b) { return core::resnet50(b); }, eo);
      s->f1 = s->engine->batch_time(1);
      s->f8 = s->engine->batch_time(kMaxBatch);
    });
    s->arrivals.resize(kTraceSets);
    for (int j = 0; j < kTraceSets; ++j) {
      for (int l = 0; l < 4; ++l) {
        serve::ArrivalSpec a;
        a.rate = kLoads[l] / s->f1;
        a.duration_s = 2000.0 * s->f1;
        a.seed = mix(cfg.seed * 64 + static_cast<std::uint64_t>(j * 4 + l));
        s->arrivals[j][l] = t.call("serve.generate_arrivals",
                                   [&] { return serve::generate_arrivals(a); });
      }
    }
    return s;
  });

  serve::ServeOptions so;
  so.batcher.max_batch = kMaxBatch;
  so.batcher.max_delay_s = in->f1;
  // bench_serving's SLO: three worst-case batches plus the formation wait.
  so.admission.slo_s = 3.0 * in->f8 + in->f1;

  std::map<std::pair<int, int>, ServeSummary> first;  // (set, load)
  std::vector<double> lat1, lat8;  // admitted latencies
  double admitted8 = 0, makespan8 = 0, offered8 = 0, rejected8 = 0;
  double batches8 = 0, mean_batch8 = 0, sets8 = 0;
  std::array<double, 4> load_s{}, load_requests{};
  run_ops(cfg, timer, res, /*warmup=*/true, kTraceSets, [&](Op& op) {
    const int j = op.index % kTraceSets;
    std::array<serve::ServeResult, 4> r;
    op.timed([&] {
      for (int l = 0; l < 4; ++l) {
        const double t0 = now_s();
        r[l] = op.call(kLoadCall[l], [&] {
          return serve::simulate_serving(*in->engine, in->arrivals[j][l], so);
        });
        if (!op.warmup) load_s[l] += now_s() - t0;
      }
    });
    for (int l = 0; l < 4; ++l) {
      const serve::ServeResult& x = r[l];
      const std::string at = " at load " + std::to_string(l);
      op.check(x.offered == static_cast<int>(in->arrivals[j][l].size()) &&
                   x.offered == x.admitted + x.rejected,
               "offered != admitted + rejected" + at);
      op.check(x.latency.count == 0 || x.latency.max_s <= so.admission.slo_s,
               "an admitted request missed the SLO" + at);
      const auto [pos, fresh] =
          first.emplace(std::make_pair(j, l), summarize(x));
      op.check(fresh || pos->second == summarize(x),
               "rerun of the same trace differs" + at);
      op.items += x.offered;
      if (!op.warmup) load_requests[l] += x.offered;
      if (!fresh) continue;
      for (const serve::RequestRecord& q : x.requests) {
        if (!q.admitted) continue;
        if (l == 0) lat1.push_back(q.latency_s());
        if (l == 3) lat8.push_back(q.latency_s());
      }
      if (l == 3) {
        admitted8 += x.admitted;
        makespan8 += x.makespan_s;
        offered8 += x.offered;
        rejected8 += x.rejected;
        batches8 += static_cast<double>(x.batches.size());
        mean_batch8 += x.mean_batch_size;
        sets8 += 1;
      }
    }
  });

  res.metric("serve.requests.load8", offered8 / sets8, "count");
  res.metric("serve.batches.load8", batches8 / sets8, "count");
  res.metric("serve.mean_batch.load8", mean_batch8 / sets8, "count");
  if (load_requests[0] > 0 && load_requests[3] > 0) {
    // Host cost per request at 8x over that at 1x: above 1 means the
    // simulator slows down per request as the queue deepens.
    res.metric("serve.superlinearity",
               (load_s[3] / load_requests[3]) / (load_s[0] / load_requests[0]),
               "x");
  }
  res.metric("sim.latency_p50.load1", serve::latency_stats(lat1).p50_s,
             "sim_s");
  res.metric("sim.latency_p99.load8", serve::latency_stats(lat8).p99_s,
             "sim_s");
  res.metric("sim.goodput.load8", makespan8 > 0 ? admitted8 / makespan8 : 0.0,
             "req/sim_s");
  res.metric("sim.reject_rate.load8", offered8 > 0 ? rejected8 / offered8 : 0.0,
             "ratio");
}

// --- sched -------------------------------------------------------------------
// One op schedules one 200-job trace under each policy and verifies each
// schedule the way swcaffe_sched --verify does. Traces are cut to exactly
// 200 jobs: priority and fair-share cost grows steeply with the job count,
// and each op takes a fresh trace so a run's median spans many of them.
// Simulated outputs and counts come from the first kSimTraces traces, which
// every run schedules.
constexpr int kJobs = 200;
constexpr int kSchedTraces = 64;
constexpr int kSimTraces = 8;
constexpr int kClusterNodes = 32;
constexpr sched::Policy kPolicies[] = {sched::Policy::kFifo,
                                       sched::Policy::kPriority,
                                       sched::Policy::kFairShare};
constexpr const char* kSimCall[] = {
    "sched.simulate.fifo", "sched.simulate.priority", "sched.simulate.fair"};
constexpr const char* kVerifyCall[] = {"check.timeline_verify.fifo",
                                       "check.timeline_verify.priority",
                                       "check.timeline_verify.fair"};

struct SchedSummary {
  int finished, preemptions, resizes;
  std::size_t spans;
  double horizon, busy, wait_p95, slowdown_p95;
  bool operator==(const SchedSummary&) const = default;
};

SchedSummary summarize(const sched::ScheduleResult& r) {
  const sched::SchedMetrics& m = r.metrics;
  return {m.finished,  m.preemptions, m.resizes,    r.spans.size(),
          m.horizon_s, m.busy_node_s, m.wait_p95_s, m.slowdown_p95};
}

void sched_wl(const Config& cfg, Timer& timer, Result& res) {
  const hw::CostModel cost;
  auto traces = setup(cfg, timer, res, [&](Timer& t) {
    auto tr = std::make_unique<std::vector<std::vector<sched::JobSpec>>>();
    for (int j = 0; j < kSchedTraces; ++j) {
      sched::WorkloadSpec w;
      w.arrivals.rate = 0.2;
      w.arrivals.duration_s = 1300.0;  // ~260 arrivals, cut to kJobs
      w.arrivals.seed = mix(cfg.seed * 64 + static_cast<std::uint64_t>(2 * j));
      w.seed = mix(cfg.seed * 64 + static_cast<std::uint64_t>(2 * j + 1));
      tr->push_back(t.call("sched.generate_workload",
                           [&] { return sched::generate_workload(w); }));
      if (tr->back().size() > kJobs) tr->back().resize(kJobs);
    }
    return tr;
  });

  std::map<std::pair<int, int>, SchedSummary> first;  // (trace, policy)
  std::vector<double> wait95, slow95, util;            // fair-share
  std::vector<double> spans, preemptions, resizes;     // fair-share
  run_ops(cfg, timer, res, /*warmup=*/true, kSimTraces, [&](Op& op) {
    const int j = op.index % kSchedTraces;
    const std::vector<sched::JobSpec>& jobs = (*traces)[j];
    std::array<sched::ScheduleResult, 3> r;
    std::array<check::Report, 3> report;
    op.timed([&] {
      for (int p = 0; p < 3; ++p) {
        sched::SchedOptions so;
        so.cluster_nodes = kClusterNodes;
        so.supernode_size = 8;
        so.quantum_iters = 25;
        so.elastic = true;
        so.policy = kPolicies[p];
        r[p] = op.call(kSimCall[p], [&] {
          return sched::simulate_schedule(cost, jobs, so);
        });
        report[p] = op.call(kVerifyCall[p], [&] {
          return check::verify_timeline(check::timeline_from_schedule(
              kSimCall[p], kClusterNodes, r[p].spans, r[p].jobs));
        });
      }
    });
    for (int p = 0; p < 3; ++p) {
      const sched::SchedMetrics& m = r[p].metrics;
      const std::string at = std::string(" under ") + kSimCall[p];
      op.check(m.finished == static_cast<int>(jobs.size()),
               "not every job finished" + at);
      op.check(m.busy_node_s == m.run_node_s + m.overhead_node_s,
               "busy != run + overhead" + at);
      op.check(report[p].empty(), "timeline diagnostics" + at);
      const auto [pos, fresh] =
          first.emplace(std::make_pair(j, p), summarize(r[p]));
      op.check(fresh || pos->second == summarize(r[p]),
               "rerun of the same trace differs" + at);
      op.items += static_cast<double>(jobs.size());
      if (p == 2 && fresh && j < kSimTraces) {
        wait95.push_back(m.wait_p95_s);
        slow95.push_back(m.slowdown_p95);
        util.push_back(m.utilization);
        spans.push_back(static_cast<double>(r[p].spans.size()));
        preemptions.push_back(m.preemptions);
        resizes.push_back(m.resizes);
      }
    }
  });

  res.metric("sched.spans.fair", median(spans), "count");
  res.metric("sched.preemptions.fair", median(preemptions), "count");
  res.metric("sched.resizes.fair", median(resizes), "count");
  res.metric("sim.wait_p95.fair", median(wait95), "sim_s");
  res.metric("sim.slowdown_p95.fair", median(slow95), "x");
  res.metric("sim.utilization.fair", median(util), "ratio");
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"train_dense", train_dense}, {"train_ft", train_ft},
      {"whatif", whatif},           {"serve", serve_wl},
      {"sched", sched_wl},
  };
  return all;
}

}  // namespace swcbench
