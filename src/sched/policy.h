// Pluggable admission/preemption policies of the cluster scheduler.
//
// The scheduler owns the event loop and the mechanics (gang placement,
// checkpoint/restore pricing, elastic re-dispatch); the policy only answers
// three questions, all pure functions of the visible state:
//
//  * pick()        — which pending job to try to place next: the first in
//                    the policy's pick order (before()),
//  * may_preempt() — whether taking nodes from a running job for a
//                    candidate is allowed, and
//  * rebalances()  — whether the policy shrinks running elastic gangs to
//                    admit starved candidates (fair-share only).
//
// Policies:
//  * kFifo      — strict arrival order, head-of-line blocking, never
//                 preempts. The baseline every queueing paper compares to.
//  * kPriority  — highest priority first; preempts strictly-lower-priority
//                 victims when the candidate cannot be placed.
//  * kFairShare — tenants with the least retired node-seconds go first;
//                 preempts and shrinks gangs of over-served tenants.
#pragma once

#include <string>
#include <vector>

#include "sched/job.h"

namespace swcaffe::sched {

enum class Policy { kFifo, kPriority, kFairShare };

const char* policy_name(Policy policy);
/// Parses "fifo" / "priority" / "fair"; throws base::CheckError otherwise.
Policy parse_policy(const std::string& name);

class PolicyEngine {
 public:
  explicit PolicyEngine(Policy policy) : policy_(policy) {}

  Policy policy() const { return policy_; }
  /// FIFO serves strictly in order: a blocked head blocks everyone behind
  /// it (no backfilling, or arrival order would stop meaning anything).
  bool head_of_line() const { return policy_ == Policy::kFifo; }
  bool preemptive() const { return policy_ != Policy::kFifo; }
  bool rebalances() const { return policy_ == Policy::kFairShare; }

  /// Pick order: does pending job `a` go before `b`? `tenant_usage[t]` is
  /// tenant t's retired node-seconds so far. The order is lexicographic: a
  /// key read only from (priority, tenant) — higher priority first under
  /// kPriority, the less-served tenant first under kFairShare, none under
  /// kFifo — then submit order (submit_s, then id). So jobs that share
  /// priority and tenant keep their submit order under every policy, and
  /// the scheduler need only offer the first pending job of each such
  /// group.
  bool before(const JobSpec& a, const JobSpec& b,
              const std::vector<double>& tenant_usage) const;

  /// Index into `pending` (never empty, any order) of the job to place
  /// next: the first in pick order. The scheduler offers only the bucket
  /// heads: the first not-yet-offered pending job of each class.
  int pick(const std::vector<const JobSpec*>& pending,
           const std::vector<double>& tenant_usage) const;

  /// May `victim` (running) be evicted to place `candidate`?
  bool may_preempt(const JobSpec& candidate, const JobSpec& victim,
                   const std::vector<double>& tenant_usage) const;

 private:
  Policy policy_;
};

}  // namespace swcaffe::sched
