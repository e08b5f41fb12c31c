// Simulated TaihuLight partition: a free-node map with supernode-aware
// gang allocation.
//
// The allocator realizes the placement the gang's collective prices for
// (topo::placement_for): kAdjacent packs the gang into as few
// supernodes as possible (dense low node ids first), kRoundRobin deals the
// gang across supernodes one node at a time — the paper's improved RHD
// mapping, which keeps the large recursive-halving exchanges
// intra-supernode. Both orders are total and deterministic, so the whole
// schedule is a pure function of (workload, policy, options).
#pragma once

#include <vector>

#include "topo/topology.h"

namespace swcaffe::sched {

class Cluster {
 public:
  Cluster(int num_nodes, int supernode_size);

  int num_nodes() const { return topo_.num_nodes; }
  int supernode_size() const { return topo_.supernode_size; }
  int free_count() const { return free_count_; }
  bool is_free(int node) const { return free_[node]; }

  /// Allocates a gang of `count` free nodes under `placement`; returns the
  /// occupied node ids (ascending) or an empty vector when fewer than
  /// `count` nodes are free. Never partially allocates.
  std::vector<int> allocate(int count, topo::Placement placement);

  /// Returns a gang's nodes to the free map. Double-release is a check
  /// failure — the scheduler must never free a node twice.
  void release(const std::vector<int>& nodes);

 private:
  topo::Topology topo_;
  std::vector<bool> free_;
  int free_count_ = 0;
};

}  // namespace swcaffe::sched
