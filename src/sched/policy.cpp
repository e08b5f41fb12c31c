#include "sched/policy.h"

#include "base/log.h"

namespace swcaffe::sched {

const char* policy_name(Policy policy) {
  switch (policy) {
    case Policy::kFifo:
      return "fifo";
    case Policy::kPriority:
      return "priority";
    case Policy::kFairShare:
      return "fair";
  }
  return "?";
}

Policy parse_policy(const std::string& name) {
  if (name == "fifo") return Policy::kFifo;
  if (name == "priority") return Policy::kPriority;
  if (name == "fair" || name == "fair-share") return Policy::kFairShare;
  SWC_CHECK_MSG(false, "unknown policy '" << name
                                          << "' (fifo | priority | fair)");
  return Policy::kFifo;
}

bool PolicyEngine::before(const JobSpec& a, const JobSpec& b,
                          const std::vector<double>& tenant_usage) const {
  switch (policy_) {
    case Policy::kFifo:
      break;
    case Policy::kPriority:
      if (a.priority != b.priority) return a.priority > b.priority;
      break;
    case Policy::kFairShare: {
      // Most under-served tenant first; within a tenant, submit order.
      const double ua = tenant_usage[a.tenant];
      const double ub = tenant_usage[b.tenant];
      if (ua != ub) return ua < ub;
      break;
    }
  }
  if (a.submit_s != b.submit_s) return a.submit_s < b.submit_s;
  return a.id < b.id;
}

int PolicyEngine::pick(const std::vector<const JobSpec*>& pending,
                       const std::vector<double>& tenant_usage) const {
  SWC_CHECK(!pending.empty());
  int best = 0;
  for (int i = 1; i < static_cast<int>(pending.size()); ++i) {
    if (before(*pending[i], *pending[best], tenant_usage)) best = i;
  }
  return best;
}

bool PolicyEngine::may_preempt(const JobSpec& candidate, const JobSpec& victim,
                               const std::vector<double>& tenant_usage) const {
  switch (policy_) {
    case Policy::kFifo:
      return false;
    case Policy::kPriority:
      return candidate.priority > victim.priority;
    case Policy::kFairShare:
      // Take nodes only from tenants that already consumed strictly more
      // than the candidate's tenant; same-tenant jobs never fight.
      return victim.tenant != candidate.tenant &&
             tenant_usage[victim.tenant] > tenant_usage[candidate.tenant];
  }
  return false;
}

}  // namespace swcaffe::sched
