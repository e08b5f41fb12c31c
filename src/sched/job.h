// swsched-svc job model: what a tenant submits to the cluster scheduler.
//
// A job is data-parallel SSGD training of one model-zoo network: a fixed
// count of logical replicas (`replicas`, the requested gang width) running
// `iters` iterations. Elastic jobs may execute on fewer physical nodes than
// replicas — the scheduler folds ceil(replicas/width) replicas onto each
// node — which changes wall-clock pricing but NOT the math: the functional
// trainer always steps the same `replicas` model copies, so final weights
// are bit-identical at any width (sched/elastic.h proves this with real
// floats; the simulator prices it analytically here).
#pragma once

#include <cstdint>
#include <string>

#include "hw/cost_model.h"
#include "topo/allreduce.h"

namespace swcaffe::sched {

/// The model-zoo slice heterogeneous workloads draw from (paper Sec. VI
/// networks at their bench batch sizes).
enum class ModelKind { kAlexNet, kVgg16, kResNet50 };

const char* model_kind_name(ModelKind kind);

/// The collective every job's iterations are priced at: the paper's
/// production all-reduce (Sec. V-A, improved RHD with round-robin rank
/// placement), uncompressed, on the TaihuLight network with 256-node
/// supernodes. The scheduler places gangs at this collective's placement.
///
/// Open modelling question: the pricing assumes the 256-node TaihuLight
/// supernode whatever SchedOptions::supernode_size is; that setting shapes
/// only gang placement on the simulated partition.
inline constexpr topo::AllreduceAlgo kJobAllreduce =
    topo::AllreduceAlgo::kRhdRoundRobin;

/// One training job submission.
struct JobSpec {
  int id = 0;
  ModelKind model = ModelKind::kAlexNet;
  int batch = 256;          ///< per-replica mini-batch (paper Algorithm 1)
  int replicas = 4;         ///< logical data-parallel replicas = max gang width
  int min_nodes = 4;        ///< elastic floor (== replicas: rigid gang)
  std::int64_t iters = 100; ///< iterations to retire
  int priority = 0;         ///< larger = more urgent (kPriority policy)
  int tenant = 0;           ///< fair-share accounting bucket
  double submit_s = 0.0;    ///< arrival time in the cluster clock

  bool elastic() const { return min_nodes < replicas; }
  /// Human label, also the checkpoint namespace ("alexnet-b256-n8.j3").
  std::string name() const;
};

/// Analytic per-iteration price list of one job, built once from the model
/// zoo descriptors (batch/4 per core group, Algorithm 1) and then evaluated
/// at every candidate gang width by the scheduler.
struct JobProfile {
  double replica_iter_s = 0.0;   ///< one replica's fwd+bwd on one node
  std::int64_t param_bytes = 0;  ///< packed gradient message (all-reduce)

  /// One SSGD iteration at physical gang width `width`: folded replica
  /// compute (ceil(replicas/width) rounds) plus the kJobAllreduce of the
  /// packed message across `width` nodes.
  double iter_s(int width, int replicas) const;

  /// Checkpoint capture / restore wall-clock: params + solver history
  /// (2x param bytes, the swfault Checkpoint payload) at 4 GB/s.
  double checkpoint_s() const;
};

/// Prices `spec` on the SW26010 cost model. Descriptor construction is
/// cached per (model, batch) inside the scheduler — this call does full
/// shape inference and is not cheap.
JobProfile profile_job(const hw::CostModel& cost, const JobSpec& spec);

}  // namespace swcaffe::sched
