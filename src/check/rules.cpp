#include "check/rules.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/log.h"
#include "check/comm_graph.h"
#include "topo/compress.h"

namespace swcaffe::check {

namespace {

constexpr std::size_t kElemBytes = 4;
/// Fig. 2: DMA bandwidth is "satisfactory" only from 256 B runs upward.
constexpr std::size_t kShortRunBytes = 256;

std::string human_bytes(std::size_t b) {
  return std::to_string(b) + " B";
}

}  // namespace

void check_ldm(const LdmPlan& plan, const hw::HwParams& hp,
               const Options& opts, const std::string& layer, Report* report) {
  (void)opts;
  const std::size_t capacity = hp.ldm_bytes;
  const std::size_t resident = plan.resident_bytes();
  const std::size_t buffered = plan.buffered_bytes();
  if (resident > capacity) {
    std::string detail;
    for (const LdmItem& item : plan.items) {
      if (!detail.empty()) detail += " + ";
      detail += item.name + " " + human_bytes(item.bytes);
    }
    report->add(Code::kLdmOverflow, Severity::kError, layer,
                plan.kernel + ": per-CPE working set " + human_bytes(resident) +
                    " exceeds LDM capacity " + human_bytes(capacity) + " (" +
                    detail + ")");
  } else if (buffered > capacity) {
    report->add(Code::kLdmDoubleBuffer, Severity::kWarning, layer,
                plan.kernel + ": working set " + human_bytes(resident) +
                    " fits only single-buffered (" + human_bytes(buffered) +
                    " with double-buffering vs " + human_bytes(capacity) +
                    "); DMA cannot overlap compute");
  }
}

void check_dma(const DmaPlan& plan, const Options& opts,
               const std::string& layer, Report* report) {
  double planned = 0.0;
  for (const DmaOp& op : plan.ops) {
    const std::string where = plan.kernel + "/" + op.name;
    if (op.run_bytes == 0 || op.total_bytes <= 0.0) {
      report->add(Code::kDmaEmptyRun, Severity::kError, layer,
                  where + ": zero-length DMA (" +
                      std::to_string(op.run_bytes) + " B runs, " +
                      std::to_string(op.total_bytes) + " B total)");
      continue;
    }
    if (op.run_bytes % kElemBytes != 0 || op.stride_bytes % kElemBytes != 0) {
      report->add(Code::kDmaMisaligned, Severity::kError, layer,
                  where + ": run " + human_bytes(op.run_bytes) + " / stride " +
                      human_bytes(op.stride_bytes) +
                      " not a multiple of the 4 B element size");
    }
    if (op.stride_bytes > 0 && op.stride_bytes < op.run_bytes) {
      report->add(Code::kDmaOverlap, Severity::kError, layer,
                  where + ": stride " + human_bytes(op.stride_bytes) +
                      " shorter than run " + human_bytes(op.run_bytes) +
                      "; successive runs overlap in memory");
    }
    if (opts.pedantic && op.run_bytes < kShortRunBytes) {
      report->add(Code::kDmaShortRun, Severity::kNote, layer,
                  where + ": " + human_bytes(op.run_bytes) +
                      " runs sit below the 256 B bandwidth knee (Fig. 2); "
                      "expect degraded DMA throughput");
    }
    planned += op.total_bytes;
  }
  const double charged = plan.charged_bytes;
  const double diff = std::abs(planned - charged);
  if (diff > 1.0 && diff > 1e-6 * std::max(std::abs(planned), std::abs(charged))) {
    report->add(Code::kDmaBytesMismatch, Severity::kError, layer,
                plan.kernel + ": enumerated DMA ops move " +
                    std::to_string(planned) + " B but the cost model charges " +
                    std::to_string(charged) +
                    " B; plan and model disagree on traffic");
  }
}

void check_schedule(const CommSchedule& sched, const hw::HwParams& hp,
                    const Options& opts, const std::string& layer,
                    Report* report) {
  (void)opts;
  const CommMatching m = match_comm(sched.ops, sched.mesh, hp);
  if (!m.diagonal.empty()) {
    report->add(Code::kRlcIllegalPair, Severity::kError, layer,
                sched.name + ": " + describe_op(sched.ops[m.diagonal[0]]) +
                    " crosses the mesh diagonally; RLC reaches only CPEs "
                    "sharing a row or column");
  }
  if (m.diagonal.size() > 1) {
    report->add(Code::kRlcIllegalPair, Severity::kError, layer,
                sched.name + ": " + std::to_string(m.diagonal.size() - 1) +
                    " further diagonal P2P op(s)");
  }

  for (const CommQueue& q : m.queues) {
    if (q.receives.size() > q.sends.size()) {
      const CommOp& op = sched.ops[q.receives[q.sends.size()]];
      report->add(Code::kRlcUnmatched, Severity::kError, layer,
                  sched.name + ": " +
                      std::to_string(q.receives.size() - q.sends.size()) +
                      " receive(s) with no matching send, first " +
                      describe_op(op));
    }
  }
  for (const CommQueue& q : m.queues) {
    if (q.sends.size() > q.receives.size()) {
      report->add(Code::kRlcUnmatched, Severity::kError, layer,
                  sched.name + ": " +
                      std::to_string(q.sends.size() - q.receives.size()) +
                      " message(s) to CPE(" + std::to_string(q.row) + "," +
                      std::to_string(q.col) + ") never received (" +
                      (q.column_bus ? "column" : "row") +
                      " bus left non-empty)");
    }
  }

  // Every op must become runnable; a leftover set is a dependency cycle,
  // i.e. the schedule deadlocks on hardware.
  const std::vector<int> order = topological_order(m.succ);
  if (order.size() < sched.ops.size()) {
    std::vector<bool> runs(sched.ops.size(), false);
    for (const int i : order) runs[static_cast<std::size_t>(i)] = true;
    std::size_t first = 0;
    while (runs[first]) ++first;
    report->add(Code::kRlcDeadlock, Severity::kError, layer,
                sched.name + ": " +
                    std::to_string(sched.ops.size() - order.size()) +
                    " op(s) in a send/receive dependency cycle (e.g. " +
                    describe_op(sched.ops[first]) + "); schedule deadlocks");
  }
}

void check_schedule(const std::vector<CommSchedule>& phases,
                    const hw::HwParams& hp, const Options& opts,
                    const std::string& layer, Report* report) {
  CommSchedule composed;
  for (const CommSchedule& phase : phases) {
    if (phase.mesh != phases.front().mesh) {
      report->add(Code::kGeomInvalid, Severity::kError, layer,
                  phase.name + ": a composition mixes mesh and cluster "
                               "phases; no single RLC legality rule applies");
      return;
    }
    composed.name += (composed.name.empty() ? "" : "+") + phase.name;
    composed.mesh = phase.mesh;
    composed.ops.insert(composed.ops.end(), phase.ops.begin(),
                        phase.ops.end());
  }
  check_schedule(composed, hp, opts, layer, report);
}

void check_collective(const topo::RangeSchedule& collective,
                      const std::string& name, const Options& opts,
                      const std::string& layer, Report* report) {
  const hw::HwParams hp;  // cluster schedules use no mesh geometry
  check_schedule(comm_schedule(collective, name), hp, opts, layer, report);

  const std::size_t ranks = static_cast<std::size_t>(collective.ranks);
  int rounds = 0;
  for (const topo::RangeOp& op : collective.ops) {
    SWC_CHECK_GE(op.round, 0);
    rounds = std::max(rounds, op.round + 1);
  }
  // busy[2 * (round * ranks + rank) + receiving]: the rank's port is taken.
  std::vector<bool> busy(2 * ranks * static_cast<std::size_t>(rounds));
  std::size_t conflicts = 0;
  std::string first;
  const auto take = [&](int rank, int round, bool receiving) {
    if (rank >= collective.ranks) return;  // scratch row
    auto port = busy[2 * (static_cast<std::size_t>(round) * ranks +
                          static_cast<std::size_t>(rank)) +
                     (receiving ? 1 : 0)];
    if (port && conflicts++ == 0) {
      first = "rank ";
      first += std::to_string(rank);
      first += receiving ? " receives" : " sends";
      first += " more than one message in round ";
      first += std::to_string(round);
    }
    port = true;
  };
  for (const topo::RangeOp& op : collective.ops) {
    if (op.src == op.dst) continue;
    take(op.src, op.round, false);
    take(op.dst, op.round, true);
  }
  if (conflicts > 0) {
    report->add(Code::kCollectivePort, Severity::kError, layer,
                name + ": " + first + " (" + std::to_string(conflicts) +
                    " port conflict(s)); a rank sends and receives at most "
                    "one message per round");
  }
}

void check_retry(const RetryPlan& plan, const hw::HwParams& hp,
                 const Options& opts, const std::string& layer,
                 Report* report) {
  if (plan.max_attempts < 1 || plan.round_bytes < 0 ||
      plan.resend_buffer_bytes < 0 || plan.backoff_base_s < 0.0 ||
      plan.round_time_s < 0.0 || plan.timeout_s < 0.0) {
    report->add(Code::kGeomInvalid, Severity::kError, layer,
                plan.name + ": retry plan needs max_attempts >= 1 and "
                            "non-negative sizes/times");
    return;
  }
  if (plan.round_bytes > plan.resend_buffer_bytes) {
    report->add(Code::kRetryBufferOverflow, Severity::kError, layer,
                plan.name + ": buffered round is " +
                    std::to_string(plan.round_bytes) + " B but only " +
                    std::to_string(plan.resend_buffer_bytes) +
                    " B of resend buffer is reserved; a dropped round could "
                    "not be re-sent");
  }
  if (plan.resend_buffer_bytes > static_cast<std::int64_t>(hp.ldm_bytes)) {
    report->add(Code::kRetryBufferOverflow, Severity::kError, layer,
                plan.name + ": resend buffer of " +
                    std::to_string(plan.resend_buffer_bytes) +
                    " B exceeds the " + std::to_string(hp.ldm_bytes) +
                    " B CPE scratchpad");
  }
  // Retries beyond the escalation deadline are dead code: the reliable
  // fallback fires first, so the configured ladder silently shrinks.
  if (plan.timeout_s > 0.0 && plan.max_attempts > 1 &&
      plan.worst_case_seconds() > plan.timeout_s) {
    report->add(Code::kRetryTimeout, Severity::kWarning, layer,
                plan.name + ": full retry ladder needs " +
                    std::to_string(plan.worst_case_seconds()) +
                    " s but escalation fires after " +
                    std::to_string(plan.timeout_s) +
                    " s; later attempts can never run");
  }
  (void)opts;
}

void check_buckets(const BucketPlan& plan, const hw::HwParams& hp,
                   const Options& opts, const std::string& layer,
                   Report* report) {
  if (plan.num_layers <= 0 || plan.buckets.empty() || plan.eager_limit < 0 ||
      plan.resend_buffer_bytes < 0) {
    report->add(Code::kGeomInvalid, Severity::kError, layer,
                plan.name + ": bucket plan needs num_layers >= 1, at least "
                            "one bucket and non-negative buffer sizes");
    return;
  }
  int expect = 0;  // next layer a bucket must start at
  std::int64_t sum_bytes = 0;
  for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
    const BucketSpan& s = plan.buckets[b];
    const std::string tag = plan.name + ": bucket " + std::to_string(b);
    if (s.first_layer != expect || s.last_layer < s.first_layer ||
        s.last_layer >= plan.num_layers) {
      report->add(Code::kBucketOrder, Severity::kError, layer,
                  tag + " spans layers [" + std::to_string(s.first_layer) +
                      ", " + std::to_string(s.last_layer) +
                      "] but must start at layer " + std::to_string(expect) +
                      "; buckets have to tile the net in layer order "
                      "(gradients of a layer belong to exactly one bucket)");
      return;  // later order checks would cascade off a broken boundary
    }
    // A zero-byte bucket is an empty collective (pure alpha waste) — but a
    // parameterless net (total_bytes == 0) legitimately degenerates to one
    // empty bucket, so only a plan that HAS bytes to distribute is held to
    // the non-empty rule.
    if (s.bytes < 0 || (s.bytes == 0 && plan.total_bytes > 0)) {
      report->add(Code::kBucketOrder, Severity::kError, layer,
                  tag + " carries " + std::to_string(s.bytes) +
                      " gradient bytes; an empty bucket is a zero-byte "
                      "collective and must be merged with a neighbour");
    }
    sum_bytes += s.bytes;
    expect = s.last_layer + 1;
  }
  if (expect != plan.num_layers) {
    report->add(Code::kBucketOrder, Severity::kError, layer,
                plan.name + ": buckets cover layers [0, " +
                    std::to_string(expect) + ") of " +
                    std::to_string(plan.num_layers) +
                    "; every layer's gradient needs a bucket");
  }
  if (plan.total_bytes > 0 && sum_bytes != plan.total_bytes) {
    report->add(Code::kBucketOrder, Severity::kError, layer,
                plan.name + ": buckets sum to " + std::to_string(sum_bytes) +
                    " B but the packed message is " +
                    std::to_string(plan.total_bytes) +
                    " B; bucketing must conserve gradient bytes");
  }
  if (plan.resend_buffer_bytes > 0) {
    // Composition with the resilient send path: what must stay buffered per
    // round is the eager slice of the LARGEST bucket (bigger rounds go
    // rendezvous and re-send from the source buffer, same as check_retry).
    for (std::size_t b = 0; b < plan.buckets.size(); ++b) {
      const std::int64_t round =
          plan.eager_limit > 0
              ? std::min(plan.buckets[b].bytes, plan.eager_limit)
              : plan.buckets[b].bytes;
      if (round > plan.resend_buffer_bytes) {
        report->add(Code::kBucketResendOverflow, Severity::kError, layer,
                    plan.name + ": bucket " + std::to_string(b) +
                        " buffers a " + std::to_string(round) +
                        " B round but the resend buffer holds " +
                        std::to_string(plan.resend_buffer_bytes) +
                        " B; a dropped bucket round could not be re-sent");
      }
    }
    if (plan.resend_buffer_bytes > static_cast<std::int64_t>(hp.ldm_bytes)) {
      report->add(Code::kBucketResendOverflow, Severity::kError, layer,
                  plan.name + ": resend buffer of " +
                      std::to_string(plan.resend_buffer_bytes) +
                      " B exceeds the " + std::to_string(hp.ldm_bytes) +
                      " B CPE scratchpad");
    }
  }
  (void)opts;
}

void check_comm(const CommPlan& plan, const Options& opts,
                const std::string& layer, Report* report) {
  topo::AllreduceAlgo algo{};
  const bool known_algo =
      topo::allreduce_algo_from_name(plan.algorithm.c_str(), &algo);
  if (!known_algo) {
    report->add(Code::kGeomInvalid, Severity::kError, layer,
                plan.name + ": unknown all-reduce algorithm \"" +
                    plan.algorithm + "\"");
  }
  topo::Compression codec{};
  const bool known_codec =
      topo::compression_from_name(plan.compression.c_str(), &codec);
  if (!known_codec) {
    report->add(Code::kGeomInvalid, Severity::kError, layer,
                plan.name + ": unknown compression \"" + plan.compression +
                    "\"");
  }
  if (plan.num_nodes <= 0 || plan.supernode_size <= 0 || plan.buckets <= 0 ||
      plan.raw_bytes < 0 || plan.raw_bytes % 4 != 0) {
    report->add(Code::kGeomInvalid, Severity::kError, layer,
                plan.name + ": invalid geometry (" +
                    std::to_string(plan.num_nodes) + " nodes, supernode " +
                    std::to_string(plan.supernode_size) + ", " +
                    std::to_string(plan.buckets) + " buckets, " +
                    std::to_string(plan.raw_bytes) + " raw bytes)");
    return;
  }
  if (!known_algo || !known_codec) return;

  // int8 carries a per-message scale chosen from the values encoded at the
  // source. Ring and parameter-server forward PARTIALLY REDUCED values, so
  // every hop would have to re-quantize at a fresh scale — T hops compound
  // T quantization errors with no error-feedback residual to absorb them.
  // RHD variants and the hierarchy encode exactly once at the source.
  if (codec == topo::Compression::kInt8 &&
      (algo == topo::AllreduceAlgo::kRing ||
       algo == topo::AllreduceAlgo::kParamServer)) {
    report->add(Code::kCommCompressCombo, Severity::kError, layer,
                plan.name + ": int8 quantization cannot compose with " +
                    plan.algorithm +
                    " (partial sums re-quantized at every hop compound "
                    "unbounded error)");
  }

  // Codec byte conservation: the wire total must equal the codec's encoding
  // of the raw bytes — halved floats for fp16, quartered for int8 plus one
  // scale header per bucket message. A plan that claims fewer wire bytes
  // invents bandwidth; one that claims more double-charges the network.
  if (plan.wire_bytes > 0) {
    std::int64_t expected = plan.raw_bytes;
    if (codec == topo::Compression::kFp16) {
      expected = plan.raw_bytes / 2;
    } else if (codec == topo::Compression::kInt8) {
      expected = plan.raw_bytes / 4 + plan.buckets * topo::kInt8ScaleBytes;
    }
    if (plan.wire_bytes != expected) {
      report->add(Code::kCommCompressBytes, Severity::kError, layer,
                  plan.name + ": claims " + std::to_string(plan.wire_bytes) +
                      " wire bytes but " + plan.compression + " over " +
                      std::to_string(plan.raw_bytes) + " raw bytes in " +
                      std::to_string(plan.buckets) + " buckets encodes to " +
                      std::to_string(expected) + " B");
    }
  }
  (void)opts;
}

}  // namespace swcaffe::check
