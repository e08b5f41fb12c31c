// Test helpers over the executed all-reduce schedules (topo/collective).
//
//  * run_allreduce runs an algorithm's schedule over one std::vector per
//    rank, the way the trainer runs it over its packed gradients.
//  * count_terms counts one actor's alpha, beta and gamma terms straight
//    from a schedule's ops. It shares no code with the pricing
//    (topo/allreduce.cpp's charge_step and the cost_* formulas), so it is an
//    independent oracle for them.
//  * hierarchical_phases splits the executed hierarchical schedule into its
//    three phases by round and derives each one's swcheck schedule, for
//    tests that break or compose one phase.
#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "check/plan_model.h"
#include "topo/allreduce.h"
#include "topo/collective.h"
#include "topo/hierarchical.h"
#include "topo/topology.h"

namespace swcaffe::fixtures {

inline void run_allreduce(topo::AllreduceAlgo algo, const topo::Topology& topo,
                          std::vector<std::vector<float>>& data) {
  const std::vector<std::span<float>> spans(data.begin(), data.end());
  topo::run_schedule(topo::collective_schedule(algo, topo, data[0].size()),
                     spans);
}

/// One actor's share of a collective, in CostBreakdown's terms.
struct TermCount {
  int alpha = 0;       ///< rounds the actor takes part in
  double beta1 = 0.0;  ///< per round: max(bytes sent, bytes received) ...
  double beta2 = 0.0;  ///< ... as beta2 when any of its messages crosses
  double gamma = 0.0;  ///< bytes added into the actor's buffer
};

/// Counts buffer `actor`'s terms in `schedule`. A message crosses when its
/// two ends sit in different supernodes under `placement`; a scratch row
/// (the parameter server's sum) sits with rank 0.
inline TermCount count_terms(const topo::RangeSchedule& schedule, int actor,
                             const topo::Topology& topo,
                             topo::Placement placement) {
  struct Round {
    double sent = 0.0, received = 0.0;
    bool crosses = false;
  };
  std::map<int, Round> rounds;
  TermCount count;
  const auto node = [&](int buffer) {
    return buffer < schedule.ranks ? buffer : 0;
  };
  for (const topo::RangeOp& op : schedule.ops) {
    if (op.src == op.dst || (op.src != actor && op.dst != actor)) continue;
    const double bytes = 4.0 * static_cast<double>(op.hi - op.lo);
    Round& round = rounds[op.round];
    const int peer = op.src == actor ? op.dst : op.src;
    round.crosses =
        round.crosses || topo.crosses(node(actor), node(peer), placement);
    if (op.src == actor) {
      round.sent += bytes;
    } else {
      round.received += bytes;
      if (op.kind == topo::RangeOp::kAdd) count.gamma += bytes;
    }
  }
  for (const auto& [index, round] : rounds) {
    ++count.alpha;
    (round.crosses ? count.beta2 : count.beta1) +=
        std::max(round.sent, round.received);
  }
  return count;
}

/// The executed hierarchical schedule over `nodes` ranks in supernodes of
/// `q` (an engaging geometry), one float per rank, as three swcheck
/// schedules: local reduce-scatter (the first log2 q rounds),
/// inter-supernode RHD, local all-gather (the last log2 q rounds).
inline std::vector<check::CommSchedule> hierarchical_phases(int nodes, int q) {
  const topo::RangeSchedule all = topo::hierarchical_schedule(
      {nodes, q}, static_cast<std::size_t>(nodes));
  int local = 0;
  while ((1 << local) < q) ++local;
  int rounds = 0;
  for (const topo::RangeOp& op : all.ops) rounds = std::max(rounds, op.round + 1);
  std::vector<topo::RangeSchedule> parts(3, {all.ranks, all.scratch, all.n, {}});
  for (const topo::RangeOp& op : all.ops) {
    const int phase = op.round < local ? 0 : op.round < rounds - local ? 1 : 2;
    parts[static_cast<std::size_t>(phase)].ops.push_back(op);
  }
  return {check::comm_schedule(parts[0], "hier_local_rs"),
          check::comm_schedule(parts[1], "hier_inter_rhd"),
          check::comm_schedule(parts[2], "hier_local_ag")};
}

}  // namespace swcaffe::fixtures
