// swcheck drivers: build the symbolic plans a layer/net would execute and
// run every applicable rule over them.
//
// Entry points mirror how the rest of the stack consumes kernels:
//  * verify_net        — whole network description (Trainer/NodeRunner hook,
//                        swcaffe_check CLI)
//  * verify_layer      — one LayerDesc (conv, FC/LSTM, pool, elementwise, ...)
//  * verify_conv       — one convolution, optionally forcing a strategy the
//                        auto-tuner would not pick (tests / what-if linting)
//  * verify_gemm       — one blocked mesh GEMM (m, n, k)
//  * verify_mesh_gemm  — one *unblocked* mesh_gemm kernel launch: predicts
//                        exactly when the functional kernel would throw
//  * verify_allreduce  — the executed all-reduce schedule of one algorithm
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/diagnostic.h"
#include "check/rules.h"
#include "core/layer_desc.h"
#include "hw/cost_model.h"
#include "swgemm/estimate.h"
#include "topo/allreduce.h"

namespace swcaffe::check {

/// Which convolution strategy to verify. kAuto follows estimate_conv's
/// per-direction winner (what a simulation would actually run) and
/// cross-checks the tuner's choice against the support predicates.
enum class ConvStrategy { kAuto, kExplicit, kImplicit };

Report verify_gemm(const hw::CostModel& cost, std::int64_t m, std::int64_t n,
                   std::int64_t k, const std::string& layer = "gemm",
                   const Options& opts = {});

/// Candidate-blocking variant: judges the LDM/DMA contracts of the blocked
/// GEMM at an arbitrary blocking (swtune's legality filter — a candidate is
/// legal iff the returned report is empty, warnings included).
Report verify_gemm(const hw::CostModel& cost, std::int64_t m, std::int64_t n,
                   std::int64_t k, const gemm::GemmBlocking& blocking,
                   const std::string& layer = "gemm",
                   const Options& opts = {});

/// Contract check of one raw mesh_gemm(m, n, k) launch: mesh divisibility
/// plus the single-buffered three-tile LDM budget. A passing report implies
/// the functional kernel will not throw; a kLdmOverflow/kGeomInvalid error
/// implies it will (pinned by tests/check_test.cpp).
Report verify_mesh_gemm(const hw::HwParams& hp, std::int64_t m, std::int64_t n,
                        std::int64_t k,
                        const std::string& layer = "mesh_gemm");

Report verify_conv(const hw::CostModel& cost, const core::ConvGeom& g,
                   const std::string& layer = "conv",
                   const Options& opts = {},
                   ConvStrategy strategy = ConvStrategy::kAuto,
                   bool first_conv = false);

Report verify_layer(const hw::CostModel& cost, const core::LayerDesc& d,
                    bool first_conv = false, const Options& opts = {});

/// Verifies every layer of a network description plus the shared RLC
/// schedules (mesh GEMM, implicit conv). This is what the Trainer asserts on
/// in debug builds and what swcaffe_check prints.
Report verify_net(const hw::CostModel& cost,
                  const std::vector<core::LayerDesc>& descs,
                  const Options& opts = {});

/// All-reduce schedule check of `algo`: check_collective over
/// topo::collective_schedule, the range-op schedule the trainer executes
/// (both RHD placements share one; kHierarchical's three phases are one
/// schedule, and geometries where the hierarchy cannot engage check the
/// flat RHD schedule the runtime falls back to).
Report verify_allreduce(topo::AllreduceAlgo algo, int num_nodes,
                        const Options& opts = {}, int supernode_size = 256);

/// Communication-config check (algorithm x compression x buckets): the
/// check_comm legality rules, plus — for hierarchical plans that engage —
/// the schedule check of verify_allreduce. swtune rejects candidates
/// here before pricing them; the trainers assert it on construction.
Report verify_comm(const CommPlan& plan, const Options& opts = {});

/// Retry-plan check (swfault resilient sends): verifies the plan against
/// the default SW26010 LDM budget. See check_retry for the rules.
Report verify_retry(const RetryPlan& plan, const Options& opts = {});

/// Bucketed all-reduce plan check (topo/overlap bucket layouts): verifies
/// against the default SW26010 LDM budget. See check_buckets for the rules.
Report verify_buckets(const BucketPlan& plan, const Options& opts = {});

}  // namespace swcaffe::check
