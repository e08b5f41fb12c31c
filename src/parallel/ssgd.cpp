#include "parallel/ssgd.h"

#include <algorithm>

#include "base/log.h"
#include "check/rules.h"
#include "check/timeline_extract.h"
#include "check/verify.h"
#include "parallel/sweep.h"
#include "sim/event.h"
#include "swdnn/layer_estimate.h"
#include "topo/hierarchical.h"

namespace swcaffe::parallel {

SsgdTrainer::SsgdTrainer(const core::NetSpec& spec, int num_nodes,
                         const core::SolverSpec& solver,
                         const SsgdOptions& options, std::uint64_t seed)
    : options_(options) {
  SWC_CHECK_GT(num_nodes, 0);
  SWC_CHECK_GT(options.buckets, 0);
  SWC_CHECK_GT(options.threads, 0);
  topo_.num_nodes = num_nodes;
  topo_.supernode_size = options.supernode_size;
  // Topology placement depends only on the configured algorithm; computed
  // once here and reused by every allreduce() call.
  placement_ = topo::placement_for(options_.algo);
  // Timing-only mode materializes one prototype replica: the bucket layout
  // and its verification read the live layers, but no gradients ever move.
  const int replicas = options_.timing_only ? 1 : num_nodes;
  for (int i = 0; i < replicas; ++i) {
    nets_.push_back(std::make_unique<core::Net>(spec, seed));
  }
  for (int i = 1; i < replicas; ++i) nets_[i]->copy_params_from(*nets_[0]);
  for (int i = 0; i < replicas; ++i) {
    solvers_.push_back(std::make_unique<core::SgdSolver>(*nets_[i], solver));
  }

  // Bucket layout over the replica's LIVE layers (pack_param_diffs packs in
  // layer order, so cumulative per-layer counts are exactly the bucket
  // offsets into the packed message).
  std::vector<std::int64_t> layer_bytes;
  std::vector<std::size_t> layer_offset;  // float offset of each layer
  std::size_t off = 0;
  for (const auto& l : nets_[0]->layers()) {
    std::int64_t count = 0;
    for (const auto& p : l->params()) count += p->count();
    layer_offset.push_back(off);
    layer_bytes.push_back(count * 4);
    off += static_cast<std::size_t>(count);
  }
  SWC_CHECK_EQ(off, nets_[0]->param_count());
  buckets_ = topo::make_buckets(layer_bytes, options_.buckets);
  for (const auto& b : buckets_) {
    bucket_offset_.push_back(layer_offset[b.first_layer]);
  }
  last_comm_buckets_.resize(buckets_.size());

  // swcheck: the layout must tile the layers in order and conserve the
  // packed-message bytes (a broken layout would silently corrupt slices).
  check::BucketPlan plan;
  plan.name = "ssgd-buckets";
  plan.num_layers = static_cast<int>(layer_bytes.size());
  plan.total_bytes = static_cast<std::int64_t>(nets_[0]->param_count()) * 4;
  plan.eager_limit = net_.eager_limit;
  for (const auto& b : buckets_) {
    plan.buckets.push_back({b.first_layer, b.last_layer, b.bytes});
  }
  const check::Report report = check::verify_buckets(plan);
  SWC_CHECK_MSG(report.ok(),
                "swcheck rejected the bucket layout: " << report.summary());

  // swsched: schedule the layout's collectives against a unit-time backward
  // pass and verify the whole timeline — network exclusivity, per-gradient
  // happens-before, packed-byte conservation. Structural, not priced: any
  // schedule_overlap invariant break or layout/edge mismatch fails
  // construction before an iteration runs.
  const std::vector<double> unit_bwd(layer_bytes.size(), 1.0);
  const double unit_compute = 2.0 * static_cast<double>(layer_bytes.size());
  const topo::OverlapTimeline overlap = topo::schedule_overlap(
      buckets_, unit_bwd, unit_compute, [](std::int64_t bytes) {
        topo::CostBreakdown c;
        c.seconds = 1e-6 + static_cast<double>(bytes) * 1e-9;
        c.alpha_terms = 1;
        return c;
      });
  const check::Report treport = check::verify_timeline(
      check::timeline_from_overlap("ssgd-overlap", unit_bwd, unit_compute,
                                   overlap, plan.total_bytes));
  SWC_CHECK_MSG(treport.ok(),
                "swsched rejected the overlap timeline: " << treport.summary());

  // swcheck: algorithm x compression legality plus wire-byte conservation
  // (each bucket's claimed wire bytes must follow from the codec and the
  // bucket's raw bytes — a mismatch means the pricing is lying about what
  // goes on the network).
  check::CommPlan cplan;
  cplan.name = "ssgd-comm";
  cplan.algorithm = topo::allreduce_algo_name(options_.algo);
  cplan.compression = topo::compression_name(options_.compression);
  // verify_comm expands the hierarchical algorithm into its full per-node
  // message schedule (about 2.3 M ops at 40,960 nodes) and checks each
  // phase and their composition: 0.04 s and 15 MB at the 2048-node cap,
  // 1.4 s and 310 MB at 40,960 nodes on a 4-vCPU Xeon, which the
  // timing-only fast path cannot afford per question. The schedule
  // invariants are per-phase-structure, not per-count, so past the cap
  // verify a representative sub-machine: the largest supernode multiple within the
  // cap when the real topology engages the two-level algorithm (keeping
  // its phase structure engaged in the verified plan too), the cap itself
  // otherwise. The byte math (raw vs wire) stays the real, uncapped one.
  constexpr int kVerifyNodeCap = 2048;
  int verify_nodes = num_nodes;
  if (verify_nodes > kVerifyNodeCap) {
    const int q = options_.supernode_size;
    if (topo::hierarchical_applicable(topo_) && q < kVerifyNodeCap) {
      verify_nodes = (kVerifyNodeCap / q) * q;
    } else {
      verify_nodes = kVerifyNodeCap;
    }
  }
  cplan.num_nodes = verify_nodes;
  cplan.supernode_size = options_.supernode_size;
  cplan.buckets = num_buckets();
  cplan.raw_bytes = plan.total_bytes;
  cplan.wire_bytes = 0;
  for (const auto& b : buckets_) {
    cplan.wire_bytes += topo::wire_bytes(options_.compression, b.bytes);
  }
  const check::Report creport = check::verify_comm(cplan);
  SWC_CHECK_MSG(creport.ok(),
                "swcheck rejected the comm config: " << creport.summary());

  if (options_.compression != topo::Compression::kNone) {
    // One persistent residual vector per node; zero-initialized, carried
    // across iterations by ef_encode. Timing-only mode never encodes, so it
    // skips the (num_nodes x param_count) allocation but still verifies the
    // error-feedback dataflow below.
    if (!options_.timing_only) {
      residual_.assign(static_cast<std::size_t>(num_nodes),
                       std::vector<float>(nets_[0]->param_count(), 0.0f));
    }
    // swsched: the error-feedback dataflow (encode writes the residual each
    // iteration, next iteration's encode reads it) must form a causal chain
    // per bucket and conserve the compressed wire bytes.
    std::vector<std::int64_t> bucket_wire;
    for (const auto& b : buckets_) {
      bucket_wire.push_back(topo::wire_bytes(options_.compression, b.bytes));
    }
    const check::Report ereport = check::verify_timeline(
        check::timeline_from_ef("ssgd-ef", 3, bucket_wire));
    SWC_CHECK_MSG(ereport.ok(), "swsched rejected the error-feedback timeline: "
                                    << ereport.summary());
  }

  if (options_.threads > 1 && !options_.timing_only) {
    pool_ = std::make_unique<sim::ThreadPool>(
        std::min(options_.threads, num_nodes));
  }
}

double SsgdTrainer::step(std::span<const float> data,
                         std::span<const float> labels) {
  std::vector<std::vector<float>> grads(num_nodes());
  const double loss = forward_backward_packed(data, labels, grads);
  allreduce(grads);
  apply(grads);
  return loss;
}

double SsgdTrainer::forward_backward_packed(
    std::span<const float> data, std::span<const float> labels,
    std::vector<std::vector<float>>& grads) {
  SWC_CHECK_MSG(!options_.timing_only,
                "timing-only trainer has no replica tensors; use "
                "price_iteration()");
  const int p = num_nodes();
  const std::size_t data_per_node = nets_[0]->blob("data")->count();
  const std::size_t labels_per_node = nets_[0]->blob("label")->count();
  SWC_CHECK_EQ(data.size(), data_per_node * p);
  SWC_CHECK_EQ(labels.size(), labels_per_node * p);
  SWC_CHECK_EQ(grads.size(), static_cast<std::size_t>(p));

  const std::size_t n = nets_[0]->param_count();
  // Replicas are independent (each body touches only replica r's net and
  // buffers), so the loop runs on the worker pool when configured. Losses
  // land in per-replica slots and are summed in index order after the join,
  // so the result is bit-identical to the serial loop for any thread count.
  std::vector<double> losses(p, 0.0);
  auto body = [&](int r) {
    core::Net& net = *nets_[r];
    const auto d = net.blob("data")->data();
    const auto l = net.blob("label")->data();
    std::copy_n(data.begin() + r * data_per_node, data_per_node, d.begin());
    std::copy_n(labels.begin() + r * labels_per_node, labels_per_node,
                l.begin());
    losses[r] = net.forward_backward();
    // Pack ALL layers' gradients into one message (Sec. V-A: per-layer
    // messages waste both network and memory bandwidth on small layers).
    grads[r].resize(n);
    net.pack_param_diffs(grads[r]);
  };
  if (pool_) {
    pool_->parallel_for(0, p, body);
  } else {
    for (int r = 0; r < p; ++r) body(r);
  }
  double loss = 0.0;
  for (int r = 0; r < p; ++r) loss += losses[r];
  return loss / p;
}

const topo::CostBreakdown& SsgdTrainer::allreduce(
    std::vector<std::vector<float>>& grads) {
  // Network service order: backward produces the highest layers' gradients
  // first, so the last bucket goes on the wire first (matches the analytic
  // schedule in topo::schedule_overlap).
  for (int b = num_buckets() - 1; b >= 0; --b) allreduce_bucket(grads, b);
  return last_comm_;
}

const topo::CostBreakdown& SsgdTrainer::allreduce_bucket(
    std::vector<std::vector<float>>& grads, int b) {
  SWC_CHECK_MSG(!options_.timing_only,
                "timing-only trainer has no replica tensors; use "
                "price_iteration()");
  const int p = num_nodes();
  SWC_CHECK_EQ(grads.size(), static_cast<std::size_t>(p));
  SWC_CHECK_GE(b, 0);
  SWC_CHECK_LT(b, num_buckets());
  const std::size_t offset = bucket_offset_[b];
  const std::size_t count =
      static_cast<std::size_t>(buckets_[b].bytes) / sizeof(float);
  std::vector<std::span<float>> slices;
  slices.reserve(p);
  for (int r = 0; r < p; ++r) {
    SWC_CHECK_EQ(grads[r].size(), nets_[0]->param_count());
    slices.push_back(std::span<float>(grads[r]).subspan(offset, count));
  }
  // Compress at the source: every node quantizes its own slice (with the
  // bucket's error-feedback residual folded in) BEFORE the collective, and
  // the collective then reduces the decoded floats. The summation tree —
  // and therefore bitwise determinism — is exactly the uncompressed
  // algorithm's; only the wire pricing changes below.
  const topo::Compression comp = options_.compression;
  if (comp != topo::Compression::kNone) {
    for (int r = 0; r < p; ++r) {
      auto res = std::span<float>(residual_[r]).subspan(offset, count);
      topo::ef_encode(comp, slices[r], res);
    }
  }

  // The functional collective prices the RAW bytes it actually moves; with
  // compression that breakdown is replaced by the wire-byte pricing.
  topo::CostBreakdown& slot = last_comm_buckets_[b];
  switch (options_.algo) {
    case AllreduceAlgo::kRhdAdjacent:
    case AllreduceAlgo::kRhdRoundRobin:
      slot = topo::allreduce_rhd(slices, topo_, net_, placement_);
      break;
    case AllreduceAlgo::kRing:
      slot = topo::allreduce_ring(slices, topo_, net_, placement_);
      break;
    case AllreduceAlgo::kParamServer:
      slot = topo::allreduce_param_server(slices, topo_, net_, /*servers=*/1);
      break;
    case AllreduceAlgo::kHierarchical:
      slot = topo::allreduce_hierarchical(slices, topo_, net_);
      break;
  }
  if (comp != topo::Compression::kNone) slot = bucket_cost(buckets_[b].bytes);
  topo::trace_allreduce(tracer_, trace_track_,
                        topo::allreduce_span_name(options_.algo), slot);
  // Iteration totals: every bucket's collective is identical across
  // iterations, so summing the per-bucket slots is correct even when the
  // caller reduces buckets one at a time.
  last_comm_ = topo::CostBreakdown{};
  for (const auto& c : last_comm_buckets_) last_comm_ += c;
  return slot;
}

TimedIteration SsgdTrainer::price_iteration(
    const hw::CostModel& cost, const std::vector<core::LayerDesc>& descs_per_cg,
    const std::map<std::string, dnn::ConvEstimate>* conv_overrides) const {
  SWC_CHECK_EQ(descs_per_cg.size(), nets_[0]->layers().size());
  static const std::map<std::string, dnn::ConvEstimate> kNoOverrides;
  const dnn::NetTimeline tl = dnn::estimate_net_timeline(
      cost, descs_per_cg, conv_overrides ? *conv_overrides : kNoOverrides);

  TimedIteration it;
  it.comp_s = tl.total_s;
  // Per-bucket totals accumulate in layer order — the same order
  // allreduce_bucket() sums last_comm_buckets_ — so the serial-model comm
  // equals the functional step()'s last_comm() bit for bit.
  // bucket_cost is the exact pricing allreduce_bucket() charges (the
  // functional collectives return the analytic breakdown bit for bit).
  for (const auto& b : buckets_) it.comm += bucket_cost(b.bytes);
  sim::EventLog log;
  it.overlap = topo::schedule_overlap(
      buckets_, tl.bwd_s, tl.total_s,
      [this](std::int64_t bytes) { return bucket_cost(bytes); }, &log);
  it.serial_s = it.comp_s + it.comm.seconds;
  // swsched: the engine's own event log IS the timeline — extract it
  // directly (no per-subsystem re-derivation) and verify exclusive network
  // occupancy before the priced times are trusted.
  const check::Report report = check::verify_timeline(check::timeline_from_events(
      "ssgd-priced-iteration", {"compute", "network"}, {"network"}, log));
  SWC_CHECK_MSG(report.ok(), "swsched rejected the priced iteration timeline: "
                                 << report.summary());
  return it;
}

void SsgdTrainer::apply(std::vector<std::vector<float>>& grads) {
  SWC_CHECK_MSG(!options_.timing_only,
                "timing-only trainer has no replica tensors; use "
                "price_iteration()");
  const int p = num_nodes();
  SWC_CHECK_EQ(grads.size(), static_cast<std::size_t>(p));
  const float inv = 1.0f / p;
  for (auto& g : grads) {
    for (auto& v : g) v *= inv;
  }
  for (int r = 0; r < p; ++r) {
    nets_[r]->unpack_param_diffs(grads[r]);
    solvers_[r]->apply_update();
  }
}

void SsgdTrainer::apply_aggregate(std::span<const float> grad) {
  SWC_CHECK_MSG(!options_.timing_only,
                "timing-only trainer has no replica tensors; use "
                "price_iteration()");
  SWC_CHECK_EQ(grad.size(), nets_[0]->param_count());
  for (int r = 0; r < num_nodes(); ++r) {
    nets_[r]->unpack_param_diffs(grad);
    solvers_[r]->apply_update();
  }
}

}  // namespace swcaffe::parallel
