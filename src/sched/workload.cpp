#include "sched/workload.h"

#include <algorithm>
#include <iterator>

#include "base/log.h"
#include "base/rng.h"

namespace swcaffe::sched {
namespace {

/// Pure per-(seed, job, field) draw in [0, n).
std::uint64_t draw(std::uint64_t seed, int job, int field, std::uint64_t n) {
  const std::uint64_t bits = base::Key(seed, 0x5c4ed5c4ed5c4ed5ULL)
                                 .then(static_cast<std::uint64_t>(job))
                                 .bits(static_cast<std::uint64_t>(field));
  return static_cast<std::uint64_t>(
      base::uniform_int(bits, 0, static_cast<std::int64_t>(n) - 1));
}

}  // namespace

int model_batch(ModelKind kind) {
  switch (kind) {
    case ModelKind::kAlexNet:
      return 256;  // paper Sec. VI-A bench batch
    case ModelKind::kVgg16:
      return 64;
    case ModelKind::kResNet50:
      return 32;
  }
  return 4;
}

std::vector<JobSpec> generate_workload(const WorkloadSpec& spec) {
  static constexpr ModelKind kModels[] = {
      ModelKind::kAlexNet, ModelKind::kVgg16, ModelKind::kResNet50};
  SWC_CHECK(!spec.widths.empty());
  SWC_CHECK_GT(spec.tenants, 0);
  SWC_CHECK_GE(spec.max_iters, spec.min_iters);
  SWC_CHECK_GT(spec.min_iters, 0);
  const std::vector<double> arrivals = serve::generate_arrivals(spec.arrivals);
  std::vector<JobSpec> jobs;
  jobs.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const int id = static_cast<int>(i);
    JobSpec job;
    job.id = id;
    job.submit_s = arrivals[i];
    job.model = kModels[draw(spec.seed, id, 0, std::size(kModels))];
    job.batch = model_batch(job.model);
    job.replicas =
        spec.widths[draw(spec.seed, id, 1, spec.widths.size())];
    job.min_nodes =
        spec.elastic ? std::max(1, job.replicas / 2) : job.replicas;
    job.iters =
        spec.min_iters +
        static_cast<std::int64_t>(draw(
            spec.seed, id, 2,
            static_cast<std::uint64_t>(spec.max_iters - spec.min_iters + 1)));
    job.priority = static_cast<int>(
        draw(spec.seed, id, 3, static_cast<std::uint64_t>(kJobPriorities)));
    job.tenant = static_cast<int>(
        draw(spec.seed, id, 4, static_cast<std::uint64_t>(spec.tenants)));
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace swcaffe::sched
