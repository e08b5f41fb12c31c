#include "sched/scheduler.h"

#include <algorithm>
#include <map>
#include <queue>
#include <utility>

#include "base/log.h"
#include "serve/stats.h"

namespace swcaffe::sched {
namespace {

enum class EventKind {
  kArrival,     ///< job submitted
  kQuantumEnd,  ///< a running gang retires its quantum
  kFree,        ///< checkpoint written; gang returns to the free map
};

struct Event {
  double time = 0.0;
  std::int64_t seq = 0;  ///< monotone push order: total, deterministic ties
  EventKind kind = EventKind::kArrival;
  int job = 0;  ///< index into the simulator's state table
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct JobState {
  JobSpec spec;
  JobProfile profile;
  JobRecord rec;
  bool arrived = false;
  bool running = false;
  bool done = false;
  std::vector<int> nodes;  ///< current gang (held until kFree on eviction)
  int width = 0;           ///< gang width of the latest dispatch
  std::int64_t done_iters = 0;     ///< retired iterations
  std::int64_t quantum_iters = 0;  ///< retiring at the pending kQuantumEnd
  int next_span = 0;
  /// A checkpoint exists at done_iters; the next dispatch pays a restore.
  bool has_checkpoint = false;
  bool preempt_marked = false;  ///< evict at the current quantum boundary
  int resize_to = 0;            ///< != 0: re-dispatch at this width next
  bool redispatch = false;      ///< kFree re-dispatches this job itself
};

class Simulator {
 public:
  Simulator(const hw::CostModel& cost, const std::vector<JobSpec>& jobs,
            const SchedOptions& options)
      : options_(options),
        engine_(options.policy),
        cluster_(options.cluster_nodes, options.supernode_size) {
    SWC_CHECK_GT(options.quantum_iters, 0);
    std::map<std::pair<ModelKind, int>, JobProfile> profiles;
    int max_tenant = 0;
    states_.reserve(jobs.size());
    for (const JobSpec& spec : jobs) {
      SWC_CHECK_GE(spec.min_nodes, 1);
      SWC_CHECK_LE(spec.min_nodes, spec.replicas);
      SWC_CHECK_MSG(spec.replicas <= options.cluster_nodes,
                    "job " << spec.id << " wants " << spec.replicas
                           << " nodes; cluster has " << options.cluster_nodes);
      SWC_CHECK_GT(spec.iters, 0);
      SWC_CHECK_GE(spec.tenant, 0);
      const auto key = std::make_pair(spec.model, spec.batch);
      auto it = profiles.find(key);
      if (it == profiles.end())
        it = profiles.emplace(key, profile_job(cost, spec)).first;
      JobState st;
      st.spec = spec;
      st.profile = it->second;
      st.rec.job = spec.id;
      st.rec.name = spec.name();
      st.rec.tenant = spec.tenant;
      st.rec.submit_s = spec.submit_s;
      st.rec.iters = spec.iters;
      st.rec.ideal_s =
          static_cast<double>(spec.iters) *
          st.profile.iter_s(spec.replicas, spec.replicas);
      states_.push_back(std::move(st));
      max_tenant = std::max(max_tenant, spec.tenant);
    }
    tenant_usage_.assign(static_cast<std::size_t>(max_tenant) + 1, 0.0);
    for (int i = 0; i < static_cast<int>(states_.size()); ++i)
      push(states_[static_cast<std::size_t>(i)].spec.submit_s,
           EventKind::kArrival, i);
  }

  ScheduleResult run() {
    while (!heap_.empty()) {
      const Event e = heap_.top();
      heap_.pop();
      now_ = e.time;
      switch (e.kind) {
        case EventKind::kArrival:
          states_[static_cast<std::size_t>(e.job)].arrived = true;
          try_dispatch();
          break;
        case EventKind::kQuantumEnd:
          on_quantum_end(e.job);
          break;
        case EventKind::kFree:
          on_free(e.job);
          break;
      }
    }
    for (const JobState& st : states_)
      SWC_CHECK_MSG(st.done, "scheduler drained with job " << st.spec.id
                                                           << " unfinished");
    return finish_result();
  }

 private:
  void push(double time, EventKind kind, int job) {
    heap_.push(Event{time, seq_++, kind, job});
  }

  double ckpt_s(const JobState& st) const {
    return st.profile.checkpoint_s();
  }

  /// Does `st` still have iterations left after its current quantum?
  bool will_outlive_quantum(const JobState& st) const {
    return st.done_iters + st.quantum_iters < st.spec.iters;
  }

  void record_span(JobState& st, SpanKind kind, double start, double end,
                   std::int64_t iters) {
    JobSpan span;
    span.job = st.spec.id;
    span.job_name = st.rec.name;
    span.span = st.next_span++;
    span.kind = kind;
    span.nodes = st.nodes;
    span.start_s = start;
    span.end_s = end;
    span.iters = iters;
    spans_.push_back(std::move(span));
    tenant_usage_[static_cast<std::size_t>(st.spec.tenant)] +=
        (end - start) * static_cast<double>(st.width);
  }

  void start_quantum(int j, double start) {
    JobState& st = states_[static_cast<std::size_t>(j)];
    const std::int64_t q = std::min<std::int64_t>(
        options_.quantum_iters, st.spec.iters - st.done_iters);
    SWC_CHECK_GT(q, 0);
    const double iter = st.profile.iter_s(st.width, st.spec.replicas);
    const double end = start + static_cast<double>(q) * iter;
    record_span(st, SpanKind::kRun, start, end, q);
    st.quantum_iters = q;
    push(end, EventKind::kQuantumEnd, j);
  }

  void dispatch(int j, double start, int width) {
    JobState& st = states_[static_cast<std::size_t>(j)];
    SWC_CHECK(!st.running);
    SWC_CHECK(st.nodes.empty());
    st.nodes = cluster_.allocate(width, topo::placement_for(kJobAllreduce));
    SWC_CHECK_EQ(static_cast<int>(st.nodes.size()), width);
    if (st.rec.first_start_s < 0.0) st.rec.first_start_s = start;
    if (st.width != 0 && st.width != width) st.rec.resizes++;
    st.width = width;
    st.rec.final_width = width;
    st.running = true;
    double t = start;
    if (st.has_checkpoint) {
      // Crash-rewind-replay resume: reload the namespaced checkpoint on the
      // new gang before training continues.
      record_span(st, SpanKind::kRestore, t, t + ckpt_s(st), 0);
      t += ckpt_s(st);
    }
    start_quantum(j, t);
  }

  void on_quantum_end(int j) {
    JobState& st = states_[static_cast<std::size_t>(j)];
    st.done_iters += st.quantum_iters;
    st.quantum_iters = 0;
    if (st.done_iters >= st.spec.iters) {
      st.rec.finish_s = now_;
      cluster_.release(st.nodes);
      st.nodes.clear();
      st.running = false;
      st.done = true;
      try_dispatch();
      maybe_grow();
      return;
    }
    if (st.preempt_marked) {
      // Eviction: write the checkpoint (gang held), then free the nodes.
      st.preempt_marked = false;
      st.resize_to = 0;
      record_span(st, SpanKind::kCheckpoint, now_, now_ + ckpt_s(st), 0);
      st.has_checkpoint = true;
      st.rec.preemptions++;
      st.running = false;
      push(now_ + ckpt_s(st), EventKind::kFree, j);
      return;
    }
    if (st.resize_to != 0 && st.resize_to != st.width) {
      // Elastic re-dispatch: checkpoint, free, immediately re-place at the
      // new width (kFree carries the redispatch).
      record_span(st, SpanKind::kCheckpoint, now_, now_ + ckpt_s(st), 0);
      st.has_checkpoint = true;
      st.running = false;
      st.redispatch = true;
      push(now_ + ckpt_s(st), EventKind::kFree, j);
      return;
    }
    st.resize_to = 0;
    start_quantum(j, now_);
  }

  void on_free(int j) {
    JobState& st = states_[static_cast<std::size_t>(j)];
    cluster_.release(st.nodes);
    st.nodes.clear();
    if (st.redispatch) {
      st.redispatch = false;
      const int desired = st.resize_to;
      st.resize_to = 0;
      // The free map may have moved since the resize was decided; clamp.
      // free_count >= the gang just released >= min_nodes, so this is
      // always a legal width.
      const int width = std::min(desired, cluster_.free_count());
      dispatch(j, now_, width);
    }
    try_dispatch();
    maybe_grow();
  }

  bool is_pending(const JobState& st) const {
    return st.arrived && !st.done && !st.running && st.nodes.empty() &&
           !st.redispatch;
  }

  void try_dispatch() {
    std::vector<int> skipped;
    while (true) {
      std::vector<int> pend;
      for (int i = 0; i < static_cast<int>(states_.size()); ++i) {
        if (!is_pending(states_[static_cast<std::size_t>(i)])) continue;
        if (std::find(skipped.begin(), skipped.end(), i) != skipped.end())
          continue;
        pend.push_back(i);
      }
      if (pend.empty()) return;
      std::sort(pend.begin(), pend.end(), [&](int a, int b) {
        const JobSpec& sa = states_[static_cast<std::size_t>(a)].spec;
        const JobSpec& sb = states_[static_cast<std::size_t>(b)].spec;
        if (sa.submit_s != sb.submit_s) return sa.submit_s < sb.submit_s;
        return sa.id < sb.id;
      });
      std::vector<const JobSpec*> specs;
      specs.reserve(pend.size());
      for (int i : pend) specs.push_back(&states_[static_cast<std::size_t>(i)].spec);
      const int j = pend[static_cast<std::size_t>(
          engine_.pick(specs, tenant_usage_))];
      JobState& st = states_[static_cast<std::size_t>(j)];
      const int free = cluster_.free_count();
      int width = 0;
      if (free >= st.spec.replicas) {
        width = st.spec.replicas;
      } else if (options_.elastic && free >= st.spec.min_nodes) {
        width = free;  // shrunken start; maybe_grow recovers the rest later
      }
      if (width > 0) {
        dispatch(j, now_, width);
        continue;
      }
      if (engine_.preemptive()) request_capacity(st);
      if (engine_.head_of_line()) return;  // FIFO: no backfilling
      skipped.push_back(j);
    }
  }

  /// Marks shrinks/preemptions so at least `cand.min_nodes` nodes free up.
  void request_capacity(const JobState& cand) {
    const int target = cand.spec.min_nodes;
    int avail = cluster_.free_count();
    for (const JobState& r : states_) {
      if (!r.running) continue;
      if (r.preempt_marked)
        avail += r.width;
      else if (r.resize_to != 0 && r.resize_to < r.width)
        avail += r.width - r.resize_to;
    }
    if (avail >= target) return;  // enough capacity already on the way
    if (options_.elastic && engine_.rebalances()) {
      // Fair-share first resort: shrink elastic gangs of over-served
      // tenants instead of evicting them.
      std::vector<int> shrinkable;
      for (int i = 0; i < static_cast<int>(states_.size()); ++i) {
        const JobState& r = states_[static_cast<std::size_t>(i)];
        if (!r.running || r.preempt_marked || r.resize_to != 0) continue;
        if (!will_outlive_quantum(r)) continue;
        if (r.width <= r.spec.min_nodes) continue;
        if (!engine_.may_preempt(cand.spec, r.spec, tenant_usage_)) continue;
        shrinkable.push_back(i);
      }
      std::sort(shrinkable.begin(), shrinkable.end(), [&](int a, int b) {
        const JobSpec& sa = states_[static_cast<std::size_t>(a)].spec;
        const JobSpec& sb = states_[static_cast<std::size_t>(b)].spec;
        const double ua = tenant_usage_[static_cast<std::size_t>(sa.tenant)];
        const double ub = tenant_usage_[static_cast<std::size_t>(sb.tenant)];
        if (ua != ub) return ua > ub;  // most over-served tenant first
        return sa.id > sb.id;          // newest job first
      });
      for (int i : shrinkable) {
        if (avail >= target) break;
        JobState& r = states_[static_cast<std::size_t>(i)];
        const int give = std::min(r.width - r.spec.min_nodes, target - avail);
        r.resize_to = r.width - give;
        avail += give;
      }
      if (avail >= target) return;
    }
    std::vector<int> victims;
    for (int i = 0; i < static_cast<int>(states_.size()); ++i) {
      const JobState& r = states_[static_cast<std::size_t>(i)];
      if (!r.running || r.preempt_marked) continue;
      if (!will_outlive_quantum(r)) continue;  // frees on its own shortly
      if (!engine_.may_preempt(cand.spec, r.spec, tenant_usage_)) continue;
      victims.push_back(i);
    }
    std::sort(victims.begin(), victims.end(), [&](int a, int b) {
      const JobSpec& sa = states_[static_cast<std::size_t>(a)].spec;
      const JobSpec& sb = states_[static_cast<std::size_t>(b)].spec;
      if (engine_.policy() == Policy::kPriority && sa.priority != sb.priority)
        return sa.priority < sb.priority;  // weakest victim first
      if (engine_.policy() == Policy::kFairShare) {
        const double ua = tenant_usage_[static_cast<std::size_t>(sa.tenant)];
        const double ub = tenant_usage_[static_cast<std::size_t>(sb.tenant)];
        if (ua != ub) return ua > ub;  // most over-served tenant first
      }
      return sa.id > sb.id;  // newest first: preserve the oldest work
    });
    for (int i : victims) {
      if (avail >= target) break;
      JobState& r = states_[static_cast<std::size_t>(i)];
      if (r.resize_to != 0) {
        avail += r.resize_to;  // upgrade a planned shrink to a full eviction
        r.resize_to = 0;
      } else {
        avail += r.width;
      }
      r.preempt_marked = true;
    }
  }

  /// Grows the most-shrunken running elastic gang back toward its requested
  /// width — only when nobody is waiting and no capacity is already in flux.
  void maybe_grow() {
    if (!options_.elastic) return;
    if (cluster_.free_count() == 0) return;
    for (const JobState& st : states_) {
      if (st.arrived && !st.done && !st.running) return;  // someone waits
      if (st.running && (st.preempt_marked || st.resize_to != 0)) return;
    }
    int best = -1;
    for (int i = 0; i < static_cast<int>(states_.size()); ++i) {
      const JobState& r = states_[static_cast<std::size_t>(i)];
      if (!r.running || r.width >= r.spec.replicas) continue;
      if (!will_outlive_quantum(r)) continue;  // growth would never run
      if (best < 0) {
        best = i;
        continue;
      }
      const JobState& b = states_[static_cast<std::size_t>(best)];
      const int db = b.spec.replicas - b.width;
      const int dr = r.spec.replicas - r.width;
      if (dr > db || (dr == db && r.spec.id < b.spec.id)) best = i;
    }
    if (best < 0) return;
    JobState& r = states_[static_cast<std::size_t>(best)];
    r.resize_to = std::min(r.spec.replicas, r.width + cluster_.free_count());
  }

  ScheduleResult finish_result() {
    ScheduleResult out;
    out.spans = std::move(spans_);
    SchedMetrics& m = out.metrics;
    m.jobs = static_cast<int>(states_.size());
    std::vector<double> waits;
    std::vector<double> makespans;
    std::vector<double> slowdowns;
    out.jobs.reserve(states_.size());
    for (JobState& st : states_) {
      m.preemptions += st.rec.preemptions;
      m.resizes += st.rec.resizes;
      if (st.rec.finish_s >= 0.0) {
        ++m.finished;
        waits.push_back(st.rec.queue_wait_s());
        makespans.push_back(st.rec.makespan_s());
        slowdowns.push_back(st.rec.slowdown());
      }
      out.jobs.push_back(std::move(st.rec));
    }
    for (const JobSpan& s : out.spans) {
      const double node_s =
          (s.end_s - s.start_s) * static_cast<double>(s.nodes.size());
      if (s.kind == SpanKind::kRun)
        m.run_node_s += node_s;
      else
        m.overhead_node_s += node_s;
      m.horizon_s = std::max(m.horizon_s, s.end_s);
    }
    // Exact by construction: every busy node-second is classified exactly
    // once, so the ledger identity busy == run + overhead holds bitwise.
    m.busy_node_s = m.run_node_s + m.overhead_node_s;
    if (m.horizon_s > 0.0)
      m.utilization =
          m.busy_node_s /
          (m.horizon_s * static_cast<double>(options_.cluster_nodes));
    if (!waits.empty()) {
      std::sort(waits.begin(), waits.end());
      std::sort(makespans.begin(), makespans.end());
      std::sort(slowdowns.begin(), slowdowns.end());
      double sum = 0.0;
      for (double w : waits) sum += w;
      m.wait_mean_s = sum / static_cast<double>(waits.size());
      m.wait_p50_s = serve::percentile(waits, 0.50);
      m.wait_p95_s = serve::percentile(waits, 0.95);
      m.makespan_p50_s = serve::percentile(makespans, 0.50);
      m.makespan_p95_s = serve::percentile(makespans, 0.95);
      m.makespan_spread_s = m.makespan_p95_s - m.makespan_p50_s;
      m.slowdown_p50 = serve::percentile(slowdowns, 0.50);
      m.slowdown_p95 = serve::percentile(slowdowns, 0.95);
      m.slowdown_spread = m.slowdown_p95 - m.slowdown_p50;
    }
    return out;
  }

  SchedOptions options_;
  PolicyEngine engine_;
  Cluster cluster_;
  std::vector<JobState> states_;
  std::vector<double> tenant_usage_;  ///< retired node-seconds per tenant
  std::vector<JobSpan> spans_;
  std::priority_queue<Event, std::vector<Event>, EventLater> heap_;
  std::int64_t seq_ = 0;
  double now_ = 0.0;
};

}  // namespace

ScheduleResult simulate_schedule(const hw::CostModel& cost,
                                 const std::vector<JobSpec>& jobs,
                                 const SchedOptions& options) {
  Simulator sim(cost, jobs, options);
  return sim.run();
}

}  // namespace swcaffe::sched
