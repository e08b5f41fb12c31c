// swcheck rules: the hardware contracts verified against symbolic plans.
//
// Each rule takes a plan from plan_model.h and appends diagnostics to a
// Report. Rules never execute anything — they reason about the plan data
// only, which is what lets the checker run before any simulation starts.
#pragma once

#include <string>

#include "check/diagnostic.h"
#include "check/plan_model.h"
#include "hw/params.h"
#include "topo/collective.h"

namespace swcaffe::check {

/// Knobs shared by rules and the verify_* drivers.
struct Options {
  /// Emit kNote-severity advisories (e.g. dma-short-run on legal but
  /// bandwidth-degraded plans). Off by default so clean paper configurations
  /// produce an empty report.
  bool pedantic = false;
};

/// LDM budget: resident bytes must fit the CPE scratchpad outright
/// (ldm-overflow, error) and ideally with the double-buffer multiplier
/// (ldm-double-buffer, warning).
void check_ldm(const LdmPlan& plan, const hw::HwParams& hp,
               const Options& opts, const std::string& layer, Report* report);

/// DMA legality: positive element-aligned runs, non-overlapping strides, and
/// byte conservation between the enumerated ops and charged_bytes. Under
/// pedantic, also flags runs below the 256 B bandwidth knee (Fig. 2).
void check_dma(const DmaPlan& plan, const Options& opts,
               const std::string& layer, Report* report);

/// RLC schedule soundness: P2P legality (mesh schedules must communicate
/// along a shared row/column), FIFO send/receive matching, and
/// deadlock-freedom via cycle detection over program-order + message edges.
void check_schedule(const CommSchedule& sched, const hw::HwParams& hp,
                    const Options& opts, const std::string& layer,
                    Report* report);

/// Composition soundness: `phases` run back to back (every rank executes
/// phase 0's ops, then phase 1's, ...) are one longer schedule, their op
/// lists concatenated, so program order and FIFO matching span the whole
/// composition. A cycle that appears only when individually sound phases
/// interleave is an rlc-deadlock. All phases must share one `mesh` flag
/// (geom-invalid otherwise).
void check_schedule(const std::vector<CommSchedule>& phases,
                    const hw::HwParams& hp, const Options& opts,
                    const std::string& layer, Report* report);

/// Executed-collective soundness: the send/receive schedule comm_schedule
/// derives from `collective` must pass check_schedule, and in every round
/// each rank may be the source of at most one message and the destination
/// of at most one — one network port per rank and step (collective-port,
/// error). Scratch rows (the parameter server's sum) are exempt: their port
/// bottleneck is priced, not forbidden.
void check_collective(const topo::RangeSchedule& collective,
                      const std::string& name, const Options& opts,
                      const std::string& layer, Report* report);

/// Retry-plan soundness (swfault): the buffered round must fit its resend
/// buffer, the buffer must fit the CPE scratchpad (retry-buffer-overflow,
/// error), and the full retry ladder must complete before the escalation
/// timeout makes it dead code (retry-timeout, warning). Non-positive
/// attempt counts / negative sizes are kGeomInvalid errors.
void check_retry(const RetryPlan& plan, const hw::HwParams& hp,
                 const Options& opts, const std::string& layer,
                 Report* report);

/// Bucketed all-reduce soundness (topo/overlap): buckets must tile the
/// net's layers in order — contiguous, non-overlapping, covering exactly
/// [0, num_layers) — with positive byte volumes that sum to the packed
/// message (bucket-order, error). When the plan composes with a resilient
/// send path (resend_buffer_bytes > 0), each bucket's buffered round
/// min(bytes, eager_limit) must fit the resend buffer and the buffer must
/// fit the CPE scratchpad (bucket-resend-overflow, error).
void check_buckets(const BucketPlan& plan, const hw::HwParams& hp,
                   const Options& opts, const std::string& layer,
                   Report* report);

/// Communication-config legality (topo hierarchy + compression): the
/// algorithm and compression names must be canonical and the geometry sane
/// (geom-invalid, error); int8 quantization may only compose with
/// single-shot-encode collectives — ring and parameter-server re-transmit
/// partially reduced values and would re-quantize at every hop, compounding
/// unbounded error (comm-compress-combo, error); and the claimed wire bytes
/// must conserve the codec encoding of the raw gradient bytes, scale
/// headers included (comm-compress-bytes, error). Rejection happens here —
/// BEFORE any candidate is priced by swtune or run by a trainer.
void check_comm(const CommPlan& plan, const Options& opts,
                const std::string& layer, Report* report);

}  // namespace swcaffe::check
