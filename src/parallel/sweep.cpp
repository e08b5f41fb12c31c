#include "parallel/sweep.h"

#include "base/log.h"
#include "check/rules.h"
#include "check/timeline_extract.h"
#include "sim/thread_pool.h"

namespace swcaffe::parallel {

namespace {

/// Per-series prep, computed once and reused by every node count: the
/// per-layer compute timeline and the layer-aligned bucket layout of the
/// packed gradient message.
struct SeriesTiming {
  dnn::NetTimeline timeline;
  std::vector<topo::GradientBucket> buckets;
};

SeriesTiming prepare_series(
    const hw::CostModel& cost, const std::vector<core::LayerDesc>& descs_per_cg,
    std::int64_t param_bytes, const SsgdOptions& options,
    const std::map<std::string, dnn::ConvEstimate>* conv_overrides) {
  static const std::map<std::string, dnn::ConvEstimate> kNoOverrides;
  SeriesTiming st;
  st.timeline = dnn::estimate_net_timeline(
      cost, descs_per_cg, conv_overrides ? *conv_overrides : kNoOverrides);

  // Bucket the packed message along the descriptors' parameter layout; the
  // descriptors may describe a sub-batch replica of the same architecture,
  // so the per-layer bytes are rescaled to sum exactly to `param_bytes`.
  std::vector<std::int64_t> layer_bytes;
  layer_bytes.reserve(descs_per_cg.size());
  for (const auto& d : descs_per_cg) layer_bytes.push_back(d.param_bytes());
  layer_bytes = topo::scale_layer_bytes(layer_bytes, param_bytes);
  st.buckets = topo::make_buckets(layer_bytes, options.buckets);
  return st;
}

ScalePoint price_scale_point(const SeriesTiming& series,
                             std::int64_t param_bytes,
                             const SsgdOptions& options, int nodes) {
  const double comp = series.timeline.total_s;
  topo::Topology topo;
  topo.num_nodes = nodes;
  topo.supernode_size = options.supernode_size;
  // swcheck: the direct rule (not the full phase-composition verifier —
  // the curve runs to 40,960 nodes, where materializing the hierarchical
  // schedules would dwarf the pricing itself). Illegal algorithm x
  // compression combos are rejected before any cost is computed.
  check::CommPlan cplan;
  cplan.name = "scalability-comm";
  cplan.algorithm = topo::allreduce_algo_name(options.algo);
  cplan.compression = topo::compression_name(options.compression);
  cplan.num_nodes = nodes;
  cplan.supernode_size = options.supernode_size;
  cplan.buckets = static_cast<int>(series.buckets.size());
  cplan.raw_bytes = param_bytes;
  check::Report creport;
  check::check_comm(cplan, check::Options{}, cplan.name, &creport);
  SWC_CHECK_MSG(creport.ok(), "swcheck rejected the comm config at "
                                  << nodes << " nodes: " << creport.summary());
  // Wire pricing: the codec-wrapped collective (identity wrapper with
  // kNone), the same topo::allreduce_cost the trainer charges.
  const auto bucket_cost = [&](std::int64_t bytes) {
    return topo::allreduce_cost(options.algo, options.compression, bytes, topo,
                                topo::sunway_network());
  };
  const topo::CostBreakdown comm = bucket_cost(param_bytes);
  const topo::OverlapTimeline overlap = topo::schedule_overlap(
      series.buckets, series.timeline.bwd_s, comp, bucket_cost);
  // swsched: every overlapped timeline the curve reports must verify
  // silent before its numbers are trusted.
  const check::Report treport = check::verify_timeline(
      check::timeline_from_overlap("scalability-overlap", series.timeline.bwd_s,
                                   comp, overlap, param_bytes));
  SWC_CHECK_MSG(treport.ok(), "swsched rejected the overlap timeline at "
                                  << nodes << " nodes: " << treport.summary());
  ScalePoint pt;
  pt.nodes = nodes;
  pt.comp_s = comp;
  pt.comm_s = comm.seconds;
  pt.speedup = nodes * comp / (comp + comm.seconds);
  pt.comm_fraction = comm.seconds / (comp + comm.seconds);
  pt.overlap_s = overlap.finish_s;
  pt.exposed_comm_s = overlap.exposed_comm_s;
  pt.overlap_speedup = nodes * comp / overlap.finish_s;
  pt.buckets = static_cast<int>(series.buckets.size());
  return pt;
}

}  // namespace

std::vector<SweepResult> scalability_sweep(const hw::CostModel& cost,
                                           const std::vector<SweepSeries>& series,
                                           int threads) {
  SWC_CHECK_GT(threads, 0);
  std::vector<SweepResult> out(series.size());
  std::vector<SeriesTiming> prep(series.size());
  for (std::size_t s = 0; s < series.size(); ++s) {
    out[s].label = series[s].label;
    out[s].points.resize(series[s].node_counts.size());
    prep[s] = prepare_series(cost, series[s].descs_per_cg,
                             series[s].param_bytes, series[s].options,
                             series[s].conv_overrides);
  }
  // Flatten to independent (series, node) jobs. Each job reads only the
  // prepared series state and writes its own index-order slot, so the fan
  // is race-free and the results carry no trace of the thread count.
  struct Job {
    std::size_t series = 0;
    std::size_t point = 0;
  };
  std::vector<Job> jobs;
  for (std::size_t s = 0; s < series.size(); ++s) {
    for (std::size_t k = 0; k < series[s].node_counts.size(); ++k) {
      jobs.push_back({s, k});
    }
  }
  sim::simulate_actors(static_cast<int>(jobs.size()), threads, [&](int j) {
    const Job& job = jobs[static_cast<std::size_t>(j)];
    const SweepSeries& ss = series[job.series];
    out[job.series].points[job.point] = price_scale_point(
        prep[job.series], ss.param_bytes, ss.options,
        ss.node_counts[job.point]);
  });
  return out;
}

}  // namespace swcaffe::parallel
