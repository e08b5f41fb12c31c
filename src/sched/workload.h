// Heterogeneous workload generation for the cluster scheduler.
//
// Job ARRIVAL TIMES come from the swserve open-loop arrival models
// (Poisson / bursty / trace replay) — the same generators the serving bench
// uses, at jobs-per-second scale. Job ATTRIBUTES (model, width, length,
// priority, tenant) are sampled per job index from the keyed splitmix64
// chain of base/rng.h over (seed, job, field): no RNG stream, so the
// workload is a pure function of the spec and two same-spec runs are
// bit-identical — which is what makes BENCH_sched.json byte-reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/job.h"
#include "serve/arrival.h"

namespace swcaffe::sched {

/// Job priorities are drawn from [0, kJobPriorities).
inline constexpr int kJobPriorities = 3;

struct WorkloadSpec {
  /// Arrival process of job submissions (rate = jobs/s of cluster time).
  serve::ArrivalSpec arrivals;
  /// Attribute sampling seed (independent of arrivals.seed).
  std::uint64_t seed = 1;

  /// Candidate pools; each job draws uniformly (hash-indexed) among the
  /// three model-zoo networks and these widths.
  std::vector<int> widths = {2, 4, 8};  ///< requested replicas per job
  std::int64_t min_iters = 20;
  std::int64_t max_iters = 200;
  int tenants = 3;
  /// Elastic jobs may shrink to half their requested width (floor >= 1);
  /// false pins min_nodes == replicas (rigid gangs only).
  bool elastic = true;
};

/// Per-replica batch each model trains at (the paper's bench batches).
int model_batch(ModelKind kind);

/// Materializes the job list, ordered by submit time, ids 0..n-1.
std::vector<JobSpec> generate_workload(const WorkloadSpec& spec);

}  // namespace swcaffe::sched
