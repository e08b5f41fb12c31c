#include "check/timeline_extract.h"

#include <algorithm>
#include <map>
#include <utility>

#include "base/log.h"
#include "check/comm_graph.h"

namespace swcaffe::check {

namespace {

std::string grad_state(int layer) {
  return "grad" + std::to_string(layer);
}

std::string req_state(std::int64_t id) {
  return "req" + std::to_string(id);
}

}  // namespace

TimelineGraph timeline_from_overlap(const std::string& name,
                                    const std::vector<double>& layer_bwd_s,
                                    double compute_s,
                                    const topo::OverlapTimeline& timeline,
                                    std::int64_t total_bytes) {
  TimelineGraph g;
  g.name = name;
  const int compute_actor = g.add_actor("compute");
  const int network_actor = g.add_actor("network");
  const int compute_res = g.add_resource("compute");
  const int network_res = g.add_resource("network");
  const int ledger =
      total_bytes >= 0 ? g.add_ledger("packed-gradients", total_bytes) : -1;

  // The compute lane, re-derived from the same inputs schedule_overlap
  // consumed: forward fills [0, compute_s - sum(bwd)], then backward visits
  // layers in reverse order, layer i occupying
  // [compute_s - prefix[i+1], compute_s - prefix[i]] where prefix[i] is the
  // backward time of layers 0..i-1. Each backward slice writes its layer's
  // gradient state.
  const int n = static_cast<int>(layer_bwd_s.size());
  std::vector<double> prefix(static_cast<std::size_t>(n) + 1, 0.0);
  for (int i = 0; i < n; ++i) {
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + layer_bwd_s[static_cast<std::size_t>(i)];
  }
  const double sum_bwd = prefix[static_cast<std::size_t>(n)];

  TimelineEvent fwd;
  fwd.name = "fwd";
  fwd.actor = compute_actor;
  fwd.resource = compute_res;
  fwd.start_s = 0.0;
  fwd.end_s = compute_s - sum_bwd;
  g.add_event(std::move(fwd));

  std::vector<int> bwd_event(static_cast<std::size_t>(n), -1);
  for (int i = n - 1; i >= 0; --i) {
    TimelineEvent bwd;
    bwd.name = "bwd layer" + std::to_string(i);
    bwd.actor = compute_actor;
    bwd.resource = compute_res;
    bwd.start_s = compute_s - prefix[static_cast<std::size_t>(i) + 1];
    bwd.end_s = compute_s - prefix[static_cast<std::size_t>(i)];
    bwd.accesses.push_back(StateAccess{grad_state(i), true});
    bwd_event[static_cast<std::size_t>(i)] = g.add_event(std::move(bwd));
  }

  // The network lane: bucket collectives in service order at the start/end
  // the schedule assigned. The producer edge goes from the bucket's FIRST
  // layer's backward slice — the last slice of the bucket to run — so an
  // all-reduce scheduled before its gradients exist is a causality error.
  // The collective reduces in place: it reads and writes every member
  // gradient.
  std::vector<int> ar_events;
  ar_events.reserve(timeline.buckets.size());
  for (std::size_t k = 0; k < timeline.buckets.size(); ++k) {
    const topo::BucketTiming& bt = timeline.buckets[k];
    TimelineEvent ar;
    ar.name = "allreduce bucket" + std::to_string(k) + "[" +
              std::to_string(bt.bucket.first_layer) + ".." +
              std::to_string(bt.bucket.last_layer) + "]";
    ar.actor = network_actor;
    ar.resource = network_res;
    ar.start_s = bt.start_s;
    ar.end_s = bt.end_s;
    ar.bytes = bt.bucket.bytes;
    ar.ledger = ledger;
    for (int layer = bt.bucket.first_layer; layer <= bt.bucket.last_layer;
         ++layer) {
      if (layer >= 0 && layer < n) {
        ar.accesses.push_back(StateAccess{grad_state(layer), true});
      }
    }
    const int ev = g.add_event(std::move(ar));
    ar_events.push_back(ev);
    const int lo = bt.bucket.first_layer;
    if (lo >= 0 && lo < n) {
      g.add_edge(bwd_event[static_cast<std::size_t>(lo)], ev, "bucket ready");
    }
  }

  // The weight update consumes every combined gradient at the iteration
  // finish; edges from all collectives make the parameter write race-free.
  TimelineEvent apply;
  apply.name = "apply update";
  apply.actor = compute_actor;
  apply.resource = compute_res;
  apply.start_s = timeline.finish_s;
  apply.end_s = timeline.finish_s;
  apply.accesses.push_back(StateAccess{"params", true});
  for (int i = 0; i < n; ++i) {
    apply.accesses.push_back(StateAccess{grad_state(i), false});
  }
  const int apply_ev = g.add_event(std::move(apply));
  for (int ev : ar_events) {
    g.add_edge(ev, apply_ev, "gradients combined");
  }
  return g;
}

TimelineGraph timeline_from_serving(
    const std::string& name, const std::vector<serve::RequestRecord>& requests,
    const std::vector<serve::BatchRecord>& batches,
    const ServingContract& contract) {
  TimelineGraph g;
  g.name = name;
  const int client_actor = g.add_actor("client");
  const int server_actor = g.add_actor("server");
  const int server_res = g.add_resource("server");

  // One ledger per batch: the arrivals that claim membership must sum to
  // exactly the batch's recorded size (requests are conserved — none shed
  // into a batch, none invented).
  std::vector<int> batch_ledger(batches.size(), -1);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    batch_ledger[b] = g.add_ledger("batch" + std::to_string(batches[b].id),
                                   batches[b].size);
  }

  // Client lane: admitted arrivals in id order (the FIFO admission order).
  std::vector<int> arrival_event(requests.size(), -1);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const serve::RequestRecord& r = requests[i];
    if (!r.admitted) continue;
    TimelineEvent arrive;
    arrive.name = "arrive req" + std::to_string(r.id);
    arrive.actor = client_actor;
    arrive.start_s = r.arrival_s;
    arrive.end_s = r.arrival_s;
    arrive.bytes = 1;
    if (r.batch >= 0 && r.batch < static_cast<int>(batches.size())) {
      arrive.ledger = batch_ledger[static_cast<std::size_t>(r.batch)];
    }
    arrive.accesses.push_back(StateAccess{req_state(r.id), true});
    arrival_event[i] = g.add_event(std::move(arrive));
  }

  // Server lane: batches in launch order on the exclusive engine, each
  // reading its members' request slots; members' completions ride directly
  // behind their batch so program order matches simulated time.
  //
  // Each member also gets a "bound" point event whose hard deadline is the
  // admission upper bound RE-DERIVED from the records alone:
  //
  //   max(busy horizon at arrival, arrival + max_delay)
  //     + (queued-ahead / max_batch + 1) * f(max_batch)
  //
  // Both terms are conservative over-approximations of the state the
  // batcher saw, so the derived bound is never below the bound the batcher
  // actually promised — a finish that beats the batcher's bound always
  // beats this one, and a finish that breaks it is a genuine
  // admission-soundness violation. Concretely: the busy horizon counts any
  // batch that COULD have been formed by the arrival (every batch ahead of
  // the request's own in FIFO order — formation can precede the batch's
  // placed start on the busy engine, so filtering on recorded launch times
  // would under-count), and queued-ahead counts every earlier admitted
  // request not provably launched before the arrival.
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const serve::BatchRecord& batch = batches[b];
    TimelineEvent run;
    run.name = "batch" + std::to_string(batch.id) + " (x" +
               std::to_string(batch.size) + ")";
    run.actor = server_actor;
    run.resource = server_res;
    run.start_s = batch.launch_s;
    run.end_s = batch.finish_s;
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].admitted &&
          requests[i].batch == static_cast<int>(batches[b].id)) {
        run.accesses.push_back(StateAccess{req_state(requests[i].id), false});
        members.push_back(i);
      }
    }
    const int run_ev = g.add_event(std::move(run));
    for (std::size_t i : members) {
      if (arrival_event[i] >= 0) {
        g.add_edge(arrival_event[i], run_ev, "queued");
      }
    }
    for (std::size_t i : members) {
      const serve::RequestRecord& r = requests[i];
      if (contract.admission && contract.slo_s >= 0.0) {
        TimelineEvent done;
        done.name = "done req" + std::to_string(r.id);
        done.actor = server_actor;
        done.start_s = r.finish_s;
        done.end_s = r.finish_s;
        done.deadline_s = r.arrival_s + contract.slo_s;
        done.hard_deadline = true;
        const int done_ev = g.add_event(std::move(done));
        g.add_edge(run_ev, done_ev, "batch completes request");
      }
      if (contract.admission && contract.max_batch > 0) {
        // A batch occupies the busy horizon once it is FORMED, which can
        // happen before its placed start on the engine (the busy interval
        // starts at max(formation time, previous finish)), so filtering on
        // recorded launch times would under-count. Batches form in FIFO id
        // order and this request's own batch forms at or after its arrival,
        // so "id ahead of mine" is the sound superset of "formed before my
        // arrival".
        double busy_horizon = 0.0;
        const std::size_t ahead =
            r.batch >= 0 && static_cast<std::size_t>(r.batch) < batches.size()
                ? static_cast<std::size_t>(r.batch)
                : batches.size();
        for (std::size_t b = 0; b < ahead; ++b) {
          if (batches[b].finish_s > busy_horizon) {
            busy_horizon = batches[b].finish_s;
          }
        }
        std::int64_t queued = 0;
        for (const serve::RequestRecord& other : requests) {
          if (other.admitted && other.id < r.id &&
              other.launch_s >= r.arrival_s) {
            ++queued;
          }
        }
        const double backlog_free =
            busy_horizon > r.arrival_s + contract.max_delay_s
                ? busy_horizon
                : r.arrival_s + contract.max_delay_s;
        const double bound =
            backlog_free +
            static_cast<double>(queued / contract.max_batch + 1) *
                contract.max_batch_forward_s;
        TimelineEvent bd;
        bd.name = "bound req" + std::to_string(r.id);
        bd.actor = server_actor;
        bd.start_s = r.finish_s;
        bd.end_s = r.finish_s;
        bd.deadline_s = bound;
        bd.hard_deadline = true;
        const int bd_ev = g.add_event(std::move(bd));
        g.add_edge(run_ev, bd_ev, "admission bound");
      }
    }
  }
  return g;
}

TimelineGraph timeline_from_retry(const RetryPlan& plan, int rounds,
                                  double start_s) {
  TimelineGraph g;
  g.name = plan.name;
  const int net_actor = g.add_actor("network");
  const int net_res = g.add_resource("network");
  double t = start_s;
  for (int r = 0; r < rounds; ++r) {
    const double round_start = t;
    for (int attempt = 0; attempt < plan.max_attempts; ++attempt) {
      if (attempt > 0) {
        // Backoff before retry k is base * 2^(k-1) — the geometric series
        // worst_case_seconds sums.
        t += plan.backoff_base_s * static_cast<double>(1 << (attempt - 1));
      }
      TimelineEvent send;
      send.name = "round" + std::to_string(r) + " attempt" +
                  std::to_string(attempt);
      send.actor = net_actor;
      send.resource = net_res;
      send.start_s = t;
      t += plan.round_time_s;
      send.end_s = t;
      send.bytes = plan.round_bytes;
      if (attempt == plan.max_attempts - 1) {
        // The whole ladder must beat the escalation timeout; a ladder that
        // cannot is dead code (soft deadline, mirroring retry-timeout).
        send.deadline_s = round_start + plan.timeout_s;
        send.hard_deadline = false;
      }
      g.add_event(std::move(send));
    }
  }
  return g;
}

TimelineGraph timeline_from_comm(const std::string& name,
                                 const std::vector<CommSchedule>& phases,
                                 const hw::HwParams& hp) {
  TimelineGraph g;
  g.name = name;

  // One actor per executing rank, sorted for deterministic ids.
  std::map<std::pair<int, int>, int> actors;
  for (const CommSchedule& phase : phases) {
    for (const CommOp& op : phase.ops) {
      actors.emplace(std::pair<int, int>{op.row, op.col}, -1);
    }
  }
  for (auto& [rank, id] : actors) {
    id = g.add_actor("rank(" + std::to_string(rank.first) + "," +
                     std::to_string(rank.second) + ")");
  }

  // Events are untimed points: the composition is a pure dependency
  // structure. Per-rank program order (the actors) concatenates the
  // phases; FIFO send/receive matching spans the merged op stream, exactly
  // check_schedule's composition.
  std::vector<CommOp> ops;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    SWC_CHECK_MSG(phases[p].mesh == phases[0].mesh,
                  name << ": phase " << phases[p].name
                       << " mixes mesh and cluster schedules");
    for (const CommOp& op : phases[p].ops) {
      TimelineEvent ev;
      ev.name = "p";
      ev.name += std::to_string(p);
      ev.name += ' ';
      ev.name += describe_op(op);
      ev.actor = actors.at({op.row, op.col});
      ev.bytes = static_cast<std::int64_t>(op.bytes);
      g.add_event(std::move(ev));
      ops.push_back(op);
    }
  }
  const CommMatching m =
      match_comm(ops, !phases.empty() && phases[0].mesh, hp);
  for (const auto& [send, recv] : m.messages) {
    g.add_edge(send, recv, "fifo message");
  }
  return g;
}

TimelineGraph timeline_from_ef(
    const std::string& name, int iters,
    const std::vector<std::int64_t>& bucket_wire_bytes) {
  TimelineGraph g;
  g.name = name;
  const int nb = static_cast<int>(bucket_wire_bytes.size());
  std::int64_t wire_total = 0;
  for (std::int64_t b : bucket_wire_bytes) wire_total += b;
  const int ledger = g.add_ledger("wire-bytes", wire_total * iters);

  // prev[b]: index of iteration t-1's encode of bucket b (carry producer).
  std::vector<int> prev(nb, -1);
  for (int t = 0; t < iters; ++t) {
    const int actor = g.add_actor("iter" + std::to_string(t));
    for (int b = 0; b < nb; ++b) {
      TimelineEvent ev;
      ev.name = "encode b" + std::to_string(b);
      ev.actor = actor;
      // Encode slots tile the iteration's unit interval in bucket order.
      ev.start_s = t + static_cast<double>(b) / nb;
      ev.end_s = t + static_cast<double>(b + 1) / nb;
      ev.bytes = bucket_wire_bytes[b];
      ev.ledger = ledger;
      ev.accesses.push_back({"residual" + std::to_string(b), /*write=*/true});
      const int idx = g.add_event(std::move(ev));
      if (prev[b] >= 0) g.add_edge(prev[b], idx, "residual carry");
      prev[b] = idx;
    }
  }
  return g;
}

TimelineGraph timeline_from_schedule(
    const std::string& name, int cluster_nodes,
    const std::vector<sched::JobSpan>& spans,
    const std::vector<sched::JobRecord>& jobs) {
  TimelineGraph g;
  g.name = name;
  // Every cluster node is an exclusive resource: two gangs holding one node
  // at once is exactly the double-booking timeline-overlap catches.
  std::vector<int> node_res(static_cast<std::size_t>(std::max(cluster_nodes, 0)));
  for (int nd = 0; nd < cluster_nodes; ++nd) {
    node_res[static_cast<std::size_t>(nd)] =
        g.add_resource("node" + std::to_string(nd));
  }

  // One actor (sequential lane) and one iteration ledger per job. The
  // ledger only judges FINISHED jobs: their run spans must retire exactly
  // the job's iterations — a scheduler that drops work at a preemption or
  // replays an already-checkpointed quantum loses/invents "payload".
  std::map<int, int> job_actor;
  std::map<int, int> job_ledger;
  for (const sched::JobRecord& r : jobs) {
    job_actor[r.job] = g.add_actor(r.name.empty()
                                       ? "job" + std::to_string(r.job)
                                       : r.name);
    job_ledger[r.job] =
        r.finish_s >= 0.0
            ? g.add_ledger("job" + std::to_string(r.job) + ".iters", r.iters)
            : -1;
  }

  // Spans grouped per job in execution order, so each job's events land on
  // its lane in program order and consecutive spans get progress edges.
  std::map<int, std::vector<const sched::JobSpan*>> by_job;
  for (const sched::JobSpan& s : spans) by_job[s.job].push_back(&s);
  for (auto& [job, list] : by_job) {
    std::stable_sort(list.begin(), list.end(),
                     [](const sched::JobSpan* a, const sched::JobSpan* b) {
                       return a->span < b->span;
                     });
    const auto actor_it = job_actor.find(job);
    if (actor_it == job_actor.end()) {
      // A span for a job no record mentions: surface it as its own lane so
      // the structural passes still see the occupancy.
      job_actor[job] = g.add_actor("job" + std::to_string(job));
      job_ledger[job] = -1;
    }
    int prev_first = -1;
    for (const sched::JobSpan* s : list) {
      const std::string gang =
          "job" + std::to_string(s->job) + ".span" + std::to_string(s->span);
      int first_ev = -1;
      for (std::size_t k = 0; k < s->nodes.size(); ++k) {
        const int nd = s->nodes[k];
        TimelineEvent ev;
        ev.name = gang + "." + span_kind_name(s->kind) + "@node" +
                  std::to_string(nd);
        ev.actor = job_actor[job];
        // Out-of-range nodes keep an invalid resource index on purpose:
        // validate() reports them as kGeomInvalid instead of mis-binning.
        ev.resource = (nd >= 0 && nd < cluster_nodes)
                          ? node_res[static_cast<std::size_t>(nd)]
                          : cluster_nodes + 1;
        ev.start_s = s->start_s;
        ev.end_s = s->end_s;
        ev.gang = gang;
        if (k == 0 && s->kind == sched::SpanKind::kRun) {
          // Iterations ride on the first gang member only — the gang
          // retires them once, not once per node.
          ev.bytes = s->iters;
          ev.ledger = job_ledger[job];
        }
        const int idx = g.add_event(std::move(ev));
        if (first_ev < 0) first_ev = idx;
      }
      if (first_ev >= 0 && prev_first >= 0) {
        g.add_edge(prev_first, first_ev, "job progress");
      }
      if (first_ev >= 0) prev_first = first_ev;
    }
  }
  return g;
}

TimelineGraph timeline_from_events(const std::string& name,
                                   const std::vector<std::string>& actors,
                                   const std::vector<std::string>& resources,
                                   const sim::EventLog& log) {
  TimelineGraph g;
  g.name = name;
  for (const std::string& a : actors) g.add_actor(a);
  for (const std::string& r : resources) g.add_resource(r);
  // Lay events out in the vocabulary's documented total order so each
  // actor's program order (insertion order per actor, which is what the
  // race pass reads) equals its time order. The sort is stable on the seq
  // tie-break because seq is unique.
  std::vector<const sim::Event*> ordered;
  ordered.reserve(log.events().size());
  for (const sim::Event& e : log.events()) ordered.push_back(&e);
  std::sort(ordered.begin(), ordered.end(),
            [](const sim::Event* a, const sim::Event* b) {
              return sim::event_before(*a, *b);
            });
  for (const sim::Event* e : ordered) {
    TimelineEvent ev;
    ev.name = e->name;
    ev.actor = e->actor;
    ev.resource = e->resource;
    ev.start_s = e->begin_s;
    ev.end_s = e->end_s;
    ev.bytes = e->bytes;
    g.add_event(std::move(ev));
  }
  return g;
}

TimelineGraph timeline_from_sim(const std::string& name,
                                const sim::Engine& engine) {
  return timeline_from_events(name, engine.actor_names(),
                              engine.resource_names(), engine.log());
}

}  // namespace swcaffe::check
