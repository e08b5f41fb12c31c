#include "fault/ft_ssgd.h"

#include <algorithm>

#include "base/log.h"
#include "check/timeline_extract.h"
#include "check/verify.h"

namespace swcaffe::fault {

namespace {

/// Simulated per-iteration compute time of a healthy node (stretched by
/// straggler factors).
constexpr double kNodeComputeS = 1e-3;
/// A node is late when its compute exceeds kNodeComputeS * this factor.
constexpr double kStragglerDeadline = 2.5;

/// Cost-only pricing of the configured collective over `nodes` nodes (the
/// straggler path reduces over the on-time subset, so the functional
/// trainer's full-width all-reduce doesn't apply).
topo::CostBreakdown comm_cost(const parallel::SsgdOptions& o, int nodes,
                              std::int64_t bytes) {
  topo::Topology topo;
  topo.num_nodes = nodes;
  topo.supernode_size = o.supernode_size;
  // `bytes` here is the RAW gradient slice; allreduce_cost prices the
  // codec'ed wire bytes exactly as SsgdTrainer does.
  return topo::allreduce_cost(o.algo, o.compression, bytes, topo,
                              topo::sunway_network());
}

}  // namespace

FtSsgdTrainer::FtSsgdTrainer(const core::NetSpec& spec, int num_nodes,
                             const core::SolverSpec& solver,
                             const FtOptions& options, std::uint64_t seed)
    : options_(options),
      ssgd_(spec, num_nodes, solver, options.ssgd, seed),
      injector_(options.faults) {
  SWC_CHECK_GE(options_.max_staleness, 0);

  // Static retry-plan check (swcheck): rounds up to the eager limit are
  // staged in the LDM resend buffer; larger rounds go rendezvous and re-send
  // from the source buffer, so the eager slice is what must fit.
  check::RetryPlan plan;
  plan.name = "ft-resend";
  const auto msg_bytes =
      static_cast<std::int64_t>(ssgd_.node(0).param_count()) * 4;
  const topo::NetParams net = topo::sunway_network();
  plan.round_bytes =
      std::min(msg_bytes, static_cast<std::int64_t>(net.eager_limit));
  plan.resend_buffer_bytes = options_.retry.resend_buffer_bytes;
  plan.max_attempts = options_.retry.max_attempts;
  plan.backoff_base_s = options_.retry.backoff_base_s;
  plan.round_time_s =
      net.alpha + static_cast<double>(plan.round_bytes) / net.link_bw;
  plan.timeout_s = options_.retry.timeout_s;
  const check::Report report = check::verify_retry(plan);
  SWC_CHECK_MSG(report.ok(),
                "swcheck rejected the retry plan: " << report.summary());
  if (report.warning_count() > 0) {
    SWC_LOG(kWarning, "swcheck: " << report.summary());
  }

  // swsched: lay two consecutive rounds' worst-case retry ladders on the
  // network lane and verify the timeline. A ladder that outlives its
  // escalation timeout surfaces as a timeline-deadline warning (same
  // severity contract as retry-timeout above); structural breaks are errors.
  const check::Report rt_report =
      check::verify_timeline(check::timeline_from_retry(plan, /*rounds=*/2));
  SWC_CHECK_MSG(rt_report.ok(),
                "swsched rejected the retry timeline: " << rt_report.summary());
  if (rt_report.warning_count() > 0) {
    SWC_LOG(kWarning, "swsched: " << rt_report.summary());
  }

  // The trainer already verified its bucket layout geometrically; re-verify
  // here WITH the resend buffer so a bucket whose buffered round cannot be
  // staged for retry is rejected before any iteration runs.
  check::BucketPlan bplan;
  bplan.name = "ft-buckets";
  bplan.num_layers = 0;
  for (const auto& b : ssgd_.bucket_layout()) {
    bplan.num_layers = std::max(bplan.num_layers, b.last_layer + 1);
    bplan.buckets.push_back({b.first_layer, b.last_layer, b.bytes});
  }
  bplan.total_bytes = msg_bytes;
  bplan.eager_limit = net.eager_limit;
  bplan.resend_buffer_bytes = options_.retry.resend_buffer_bytes;
  const check::Report breport = check::verify_buckets(bplan);
  SWC_CHECK_MSG(breport.ok(),
                "swcheck rejected the bucket plan: " << breport.summary());

  initial_ = capture();
}

Checkpoint FtSsgdTrainer::capture() {
  // All replicas hold identical parameters and solver state outside of
  // step(), so node 0 is the canonical copy.
  Checkpoint ckpt;
  ckpt.iter = ssgd_.iter();
  ckpt.fault_seed = injector_.spec().seed;
  ckpt.params.resize(ssgd_.node(0).param_count());
  ssgd_.node(0).pack_params(ckpt.params);
  ckpt.history = ssgd_.solver(0).history();
  ckpt.stale_grad = stale_sum_;
  ckpt.stale_count = stale_count_;
  ckpt.plan_cache = options_.plan_cache;
  ckpt.job_id = options_.job_id;
  return ckpt;
}

void FtSsgdTrainer::restore(const Checkpoint& ckpt) {
  SWC_CHECK_EQ(ckpt.params.size(), ssgd_.node(0).param_count());
  for (int r = 0; r < ssgd_.num_nodes(); ++r) {
    ssgd_.node(r).unpack_params(ckpt.params);
    ssgd_.solver(r).set_state(static_cast<int>(ckpt.iter), ckpt.history);
  }
  stale_sum_ = ckpt.stale_grad;
  stale_count_ = static_cast<int>(ckpt.stale_count);
}

void FtSsgdTrainer::save_checkpoint(const std::string& path) {
  fault::save_checkpoint(path, capture());
}

void FtSsgdTrainer::restore_checkpoint(const std::string& path) {
  restore(load_checkpoint(path, options_.job_id));
}

void FtSsgdTrainer::restore_latest() {
  if (!last_checkpoint_.empty()) {
    restore_checkpoint(last_checkpoint_);
  } else {
    restore(initial_);
  }
  injector_.stats().restarts += 1;
  injector_.trace_restart();
}

StepResult FtSsgdTrainer::step(std::span<const float> data,
                               std::span<const float> labels) {
  StepResult res;
  const std::int64_t it = ssgd_.iter();
  const int p = ssgd_.num_nodes();

  // --- Crash site ----------------------------------------------------------
  if (!crash_fired_) {
    for (int node = 0; node < p; ++node) {
      if (injector_.crashes_at(node, it)) {
        // The process dies before the update lands; state is untouched. The
        // guard keeps the (deterministic) schedule from re-killing the
        // replayed iteration after restart.
        crash_fired_ = true;
        injector_.stats().crashes += 1;
        injector_.trace_inject("fault.crash");
        res.crashed = true;
        return res;
      }
    }
  }

  // The packed gradients live across steps: sized once, then overwritten.
  grads_.resize(static_cast<std::size_t>(p));
  std::vector<std::vector<float>>& grads = grads_;
  res.loss = ssgd_.forward_backward_packed(data, labels, grads);
  const std::size_t n = grads[0].size();

  // --- Straggler site ------------------------------------------------------
  const double deadline = kNodeComputeS * kStragglerDeadline;
  std::vector<int> late;
  double slowest = kNodeComputeS;
  for (int node = 0; node < p; ++node) {
    const double t = kNodeComputeS * injector_.straggler_factor(node);
    if (t > deadline && options_.max_staleness > 0) {
      late.push_back(node);
    } else {
      slowest = std::max(slowest, t);
    }
  }
  if (static_cast<int>(late.size()) == p) {
    // Everyone is late: there is no on-time quorum to proceed with, so the
    // barrier degenerates to plain synchronous SGD on the slow machine.
    for (int node : late) {
      slowest =
          std::max(slowest, kNodeComputeS * injector_.straggler_factor(node));
    }
    late.clear();
  }
  res.late_nodes = static_cast<int>(late.size());

  if (late.empty()) {
    // --- Synchronous path (the common case) --------------------------------
    // The REAL functional all-reduce runs, so float-summation order — and
    // therefore every weight bit — matches the fault-free trainer. With
    // buckets the collective is replayed bucket by bucket in network service
    // order, each against its own slice of the fault schedule (cumulative
    // round offsets keep the coordinates distinct); one bucket reproduces
    // the unbucketed recovery bit-for-bit.
    RecoveryCost rec;
    int round_offset = 0;
    for (int b = ssgd_.num_buckets() - 1; b >= 0; --b) {
      const topo::CostBreakdown& bc = ssgd_.allreduce_bucket(grads, b);
      const RecoveryCost r =
          charge_recovery(bc, it, injector_, options_.retry, round_offset);
      rec.seconds += r.seconds;
      rec.retries += r.retries;
      rec.escalations += r.escalations;
      rec.duplicates += r.duplicates;
      rec.delays += r.delays;
      round_offset += bc.alpha_terms;
    }
    const topo::CostBreakdown& comm = ssgd_.last_comm();
    res.recovery_s = rec.seconds;
    res.retries = rec.retries;
    res.sim_seconds = slowest + comm.seconds + rec.seconds;
    if (stale_sum_.empty()) {
      ssgd_.apply(grads);
    } else {
      // A straggler's gradient from the previous iteration joins now
      // (staleness 1); every contribution is weighted equally.
      std::vector<float> agg = grads[0];
      for (std::size_t i = 0; i < n; ++i) agg[i] += stale_sum_[i];
      const float inv = 1.0f / static_cast<float>(p + stale_count_);
      for (auto& v : agg) v *= inv;
      ssgd_.apply_aggregate(agg);
      stale_sum_.clear();
      stale_count_ = 0;
      res.stale_applied = true;
    }
  } else {
    // --- Bounded-staleness path --------------------------------------------
    injector_.stats().straggler_iters += late.size();
    for (std::size_t i = 0; i < late.size(); ++i) {
      injector_.trace_inject("fault.straggler");
    }
    // Survivors aggregate at the deadline instead of waiting out the
    // stragglers; the late gradients are buffered for the next step.
    std::vector<float> agg(n, 0.0f);
    std::vector<bool> is_late(p, false);
    for (int node : late) is_late[node] = true;
    int ontime = 0;
    for (int r = 0; r < p; ++r) {
      if (is_late[r]) continue;
      for (std::size_t i = 0; i < n; ++i) agg[i] += grads[r][i];
      ++ontime;
    }
    const int contributions = ontime + stale_count_;
    if (!stale_sum_.empty()) {
      for (std::size_t i = 0; i < n; ++i) agg[i] += stale_sum_[i];
      res.stale_applied = true;
    }
    // Buffer this iteration's late gradients (consumed next step).
    stale_sum_.assign(n, 0.0f);
    for (int node : late) {
      for (std::size_t i = 0; i < n; ++i) stale_sum_[i] += grads[node][i];
    }
    stale_count_ = static_cast<int>(late.size());
    if (contributions > 0) {
      const float inv = 1.0f / static_cast<float>(contributions);
      for (auto& v : agg) v *= inv;
    }
    const topo::CostBreakdown comm =
        comm_cost(options_.ssgd, std::max(ontime, 1),
                  static_cast<std::int64_t>(n) * 4);
    const RecoveryCost rec = charge_recovery(comm, it, injector_,
                                             options_.retry);
    res.recovery_s = rec.seconds;
    res.retries = rec.retries;
    // The survivors commit at the deadline — that is the whole point.
    res.sim_seconds = deadline + comm.seconds + rec.seconds;
    ssgd_.apply_aggregate(agg);
  }

  // --- Periodic checkpoint -------------------------------------------------
  if (options_.checkpoint_every > 0 &&
      ssgd_.iter() % options_.checkpoint_every == 0) {
    SWC_CHECK_MSG(!options_.checkpoint_prefix.empty(),
                  "checkpoint_every set without checkpoint_prefix");
    last_checkpoint_ = checkpoint_path(options_.checkpoint_prefix,
                                       options_.job_id, ssgd_.iter());
    save_checkpoint(last_checkpoint_);
  }
  return res;
}

RunResult run_with_restarts(FtSsgdTrainer& trainer, const BatchFn& next_batch,
                            std::int64_t max_iter) {
  RunResult out;
  std::vector<float> data, labels;
  while (trainer.iter() < max_iter) {
    next_batch(trainer.iter(), data, labels);
    const StepResult r = trainer.step(data, labels);
    out.sim_seconds += r.sim_seconds;
    if (r.crashed) {
      trainer.restore_latest();
      out.restarts += 1;
      continue;
    }
    out.final_loss = r.loss;
  }
  out.iters = trainer.iter();
  return out;
}

}  // namespace swcaffe::fault
