#include "sched/job.h"

#include <sstream>

#include "base/log.h"
#include "core/models.h"
#include "swdnn/layer_estimate.h"
#include "topo/compress.h"

namespace swcaffe::sched {

const char* model_kind_name(ModelKind kind) {
  switch (kind) {
    case ModelKind::kAlexNet:
      return "alexnet";
    case ModelKind::kVgg16:
      return "vgg16";
    case ModelKind::kResNet50:
      return "resnet50";
  }
  return "?";
}

std::string JobSpec::name() const {
  std::ostringstream out;
  out << model_kind_name(model) << "-b" << batch << "-n" << replicas << ".j"
      << id;
  return out.str();
}

double JobProfile::iter_s(int width, int replicas) const {
  SWC_CHECK_GT(width, 0);
  SWC_CHECK_GE(replicas, width);
  // Folded compute: each node hosts ceil(replicas/width) replicas and runs
  // them back to back before the gang synchronizes.
  const std::int64_t folds = (replicas + width - 1) / width;
  const double compute_s = replica_iter_s * static_cast<double>(folds);
  if (width == 1) return compute_s;  // no network phase on a 1-node gang
  topo::Topology topo;
  topo.num_nodes = width;
  const topo::CostBreakdown comm =
      topo::allreduce_cost(kJobAllreduce, topo::Compression::kNone,
                           param_bytes, topo, topo::sunway_network());
  return compute_s + comm.seconds;
}

double JobProfile::checkpoint_s() const {
  constexpr double kCheckpointBw = 4.0e9;  // B/s, write and restore alike
  return 2.0 * static_cast<double>(param_bytes) / kCheckpointBw;
}

JobProfile profile_job(const hw::CostModel& cost, const JobSpec& spec) {
  SWC_CHECK_GT(spec.batch, 0);
  SWC_CHECK_MSG(spec.batch % 4 == 0,
                "per-replica batch must split over the chip's 4 core groups");
  // Algorithm 1: node time == one core group processing batch/4.
  core::NetSpec net;
  switch (spec.model) {
    case ModelKind::kAlexNet:
      net = core::alexnet_bn(spec.batch / 4);
      break;
    case ModelKind::kVgg16:
      net = core::vgg(16, spec.batch / 4);
      break;
    case ModelKind::kResNet50:
      net = core::resnet50(spec.batch / 4);
      break;
  }
  const std::vector<core::LayerDesc> descs = core::describe_net_spec(net);
  JobProfile profile;
  profile.replica_iter_s = dnn::estimate_net_sw(cost, descs);
  profile.param_bytes = core::total_param_bytes(descs);
  return profile;
}

}  // namespace swcaffe::sched
