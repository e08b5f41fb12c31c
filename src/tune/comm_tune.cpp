#include "tune/comm_tune.h"

#include <numeric>

#include "base/log.h"
#include "check/plan_model.h"
#include "check/rules.h"
#include "topo/overlap.h"
#include "topo/topology.h"
#include "tune/search_space.h"

namespace swcaffe::tune {

CommChoice tune_comm(const std::vector<double>& layer_bwd_s, double compute_s,
                     const std::vector<std::int64_t>& layer_bytes,
                     int num_nodes) {
  constexpr int kMaxBuckets = 32;
  SWC_CHECK_GT(num_nodes, 0);
  SWC_CHECK_EQ(layer_bytes.size(), layer_bwd_s.size());
  const std::int64_t total_bytes =
      std::accumulate(layer_bytes.begin(), layer_bytes.end(),
                      static_cast<std::int64_t>(0));

  topo::Topology topo;
  topo.num_nodes = num_nodes;
  const topo::NetParams net = topo::sunway_network();

  // Menu order is the tie-break order: the paper's baseline algorithm first,
  // then uncompressed before lossy codecs, then fewer buckets. The argmin
  // below only replaces on strict improvement, so among equals the earliest
  // (most conservative) configuration wins — deterministically.
  using topo::AllreduceAlgo;
  static constexpr AllreduceAlgo kAlgorithms[] = {
      AllreduceAlgo::kRhdRoundRobin, AllreduceAlgo::kRhdAdjacent,
      AllreduceAlgo::kHierarchical, AllreduceAlgo::kRing,
      AllreduceAlgo::kParamServer};
  static const topo::Compression kCodecs[] = {topo::Compression::kNone,
                                              topo::Compression::kFp16,
                                              topo::Compression::kInt8};

  CommChoice choice;
  bool seeded = false;
  for (AllreduceAlgo algorithm : kAlgorithms) {
    for (topo::Compression codec : kCodecs) {
      int seen_effective = 0;  // layout sizes grow with k; skip repeats
      for (int k : bucket_count_candidates(kMaxBuckets)) {
        const std::vector<topo::GradientBucket> layout =
            topo::make_buckets(layer_bytes, k);
        const int effective = static_cast<int>(layout.size());
        if (effective == seen_effective) continue;
        seen_effective = effective;

        CommCandidate cand;
        cand.algorithm = algorithm;
        cand.compression = codec;
        cand.requested_buckets = k;
        cand.buckets = effective;

        // Legality BEFORE pricing: the swcheck comm rule rejects unsupported
        // algorithm x codec compositions and wire-byte claims that don't
        // follow from the codec.
        check::CommPlan plan;
        plan.name = "tune-comm";
        plan.algorithm = topo::allreduce_algo_name(algorithm);
        plan.compression = topo::compression_name(codec);
        plan.num_nodes = num_nodes;
        plan.supernode_size = topo.supernode_size;
        plan.buckets = effective;
        plan.raw_bytes = total_bytes;
        plan.wire_bytes = 0;
        for (const auto& b : layout) {
          plan.wire_bytes += topo::wire_bytes(codec, b.bytes);
        }
        check::Report report;
        check::check_comm(plan, check::Options{}, plan.name, &report);
        if (!report.ok()) {
          cand.legal = false;
          choice.candidates.push_back(cand);
          continue;
        }

        const auto bucket_cost = [&](std::int64_t bytes) {
          return topo::allreduce_cost(algorithm, codec, bytes, topo, net);
        };
        const topo::OverlapTimeline tl =
            topo::schedule_overlap(layout, layer_bwd_s, compute_s,
                                   bucket_cost);
        cand.finish_s = tl.finish_s;
        cand.exposed_comm_s = tl.exposed_comm_s;
        choice.candidates.push_back(cand);

        const bool is_baseline = algorithm == AllreduceAlgo::kRhdRoundRobin &&
                                 codec == topo::Compression::kNone && k == 1;
        if (is_baseline) choice.baseline_s = tl.finish_s;
        if (!seeded || tl.finish_s < choice.overlapped_s) {
          seeded = true;
          choice.algorithm = cand.algorithm;
          choice.compression = codec;
          choice.buckets = effective;
          choice.overlapped_s = tl.finish_s;
          choice.exposed_comm_s = tl.exposed_comm_s;
        }
      }
    }
  }
  SWC_CHECK_MSG(seeded && !choice.candidates.empty() &&
                    choice.candidates.front().legal &&
                    choice.candidates.front().requested_buckets == 1,
                "comm search lost its baseline candidate");
  return choice;
}

}  // namespace swcaffe::tune
