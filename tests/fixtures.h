// Canonical paper-configuration fixtures shared by tests/ and bench/.
//
// The evaluation section prices AlexNet and VGG at fixed geometries (full
// ImageNet shapes, the Table III batch sizes, the 232.6 MB packed gradient
// message). Before this header those numbers were retyped in every test and
// bench that needed them; now there is exactly one definition of each, so a
// fixture change (or a typo) cannot silently fork the suite.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/layer_desc.h"
#include "core/models.h"
#include "core/net.h"

namespace swcaffe::fixtures {

// Paper batch configurations (Table III / Figs. 8-11): a full node trains
// batch B, each of the 4 core groups runs B/4 (Algorithm 1).
inline constexpr int kAlexNetBatch = 256;
inline constexpr int kAlexNetBatchPerCg = kAlexNetBatch / 4;
inline constexpr int kVggBatch = 64;
inline constexpr int kVggBatchPerCg = kVggBatch / 4;
inline constexpr int kResNet50Batch = 32;
inline constexpr int kResNet50BatchPerCg = kResNet50Batch / 4;

/// Packed gradient messages of the scalability experiments (Sec. V /
/// Fig. 10): AlexNet 232.6 MB, ResNet-50 97.7 MB.
inline constexpr std::int64_t kAlexNetGradientBytes = 232600000;
inline constexpr std::int64_t kResNet50GradientBytes = 97700000;

/// Bytes of one ImageNet input batch (B x 3 x 227 x 227 floats), the volume
/// device-throughput comparisons charge for host transfers.
inline std::int64_t imagenet_input_bytes(int batch) {
  return 4LL * batch * 3 * 227 * 227;
}

/// AlexNet-BN at the paper's ImageNet geometry (227x227, 1000 classes).
inline core::NetSpec alexnet_spec(int batch = kAlexNetBatch) {
  return core::alexnet_bn(batch);
}
inline std::vector<core::LayerDesc> alexnet_descs(int batch = kAlexNetBatch) {
  return core::describe_net_spec(alexnet_spec(batch));
}
/// One core group's share of the full-node AlexNet batch.
inline std::vector<core::LayerDesc> alexnet_per_cg_descs() {
  return alexnet_descs(kAlexNetBatchPerCg);
}

/// VGG-16/VGG-19 at the paper's geometry (224x224, 1000 classes).
inline core::NetSpec vgg_spec(int depth, int batch = kVggBatch) {
  return core::vgg(depth, batch);
}
inline std::vector<core::LayerDesc> vgg_descs(int depth,
                                              int batch = kVggBatch) {
  return core::describe_net_spec(vgg_spec(depth, batch));
}
inline std::vector<core::LayerDesc> vgg_per_cg_descs(int depth) {
  return vgg_descs(depth, kVggBatchPerCg);
}

/// ResNet-50 at the paper's geometry (224x224, 1000 classes).
inline core::NetSpec resnet50_spec(int batch = kResNet50Batch) {
  return core::resnet50(batch);
}
inline std::vector<core::LayerDesc> resnet50_descs(int batch = kResNet50Batch) {
  return core::describe_net_spec(resnet50_spec(batch));
}
inline std::vector<core::LayerDesc> resnet50_per_cg_descs() {
  return resnet50_descs(kResNet50BatchPerCg);
}

/// The bit patterns of a net's packed parameters: the form in which tests
/// compare replicas bitwise (0.0f and -0.0f differ here).
inline std::vector<std::uint32_t> packed_bits(const core::Net& net) {
  std::vector<float> params(net.param_count());
  net.pack_params(params);
  std::vector<std::uint32_t> bits;
  for (float v : params) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

}  // namespace swcaffe::fixtures
