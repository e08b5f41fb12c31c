// swfault: fault-model specification (what can go wrong, and how often).
//
// The simulated TaihuLight of the scalability experiments is perfectly
// healthy: every link runs at its calibrated rate and synchronous SGD
// barriers on the slowest of 1024 nodes. A FaultSpec describes the
// degradations a production machine actually exhibits — message loss and
// delay on the fat-tree, transient DMA failures, straggler nodes, whole-node
// crashes — as a small set of seeded probabilities that the FaultInjector
// turns into a deterministic schedule (same spec + seed => identical faults,
// identical trace, bit-identical recovery).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace swcaffe::fault {

/// One persistently slow node: its per-iteration compute time is multiplied
/// by `factor` (>= 1).
struct StragglerSpec {
  int node = 0;
  double factor = 1.0;
};

struct FaultSpec {
  /// Seed of the whole schedule. Every injection decision is a pure function
  /// of (seed, site, coordinates), so two runs with the same spec see the
  /// same faults regardless of restarts.
  std::uint64_t seed = 1;

  // --- Network (topo::NetworkModel site) -----------------------------------
  double drop_p = 0.0;        ///< per-message-round drop probability
  double dup_p = 0.0;         ///< per-message-round duplication probability
  double delay_p = 0.0;       ///< per-message-round extra-delay probability
  double delay_s = 200e-6;    ///< extra delay charged when a delay fires
  double link_degrade = 1.0;  ///< multiplier (>= 1) on per-round wire time

  // --- DMA (hw::DmaEngine site) --------------------------------------------
  double dma_fail_p = 0.0;   ///< transient failure per transfer (re-issued)
  double dma_degrade = 1.0;  ///< throughput degradation multiplier (>= 1)

  // --- Stragglers (FtSsgdTrainer site) -------------------------------------
  std::vector<StragglerSpec> stragglers;

  // --- Whole-node crash ----------------------------------------------------
  int crash_node = -1;  ///< node that crashes (-1: never)
  int crash_iter = -1;  ///< iteration at which it crashes (-1: never)

  /// True when any injection site is active.
  bool enabled() const;
  bool network_enabled() const;
  bool dma_enabled() const;
  bool crash_enabled() const { return crash_node >= 0 && crash_iter >= 0; }
};

/// Parses the CLI grammar: "none" (or "") for a clean machine, else
/// ';'/','-separated key=value clauses:
///
///   drop=P dup=P delay=P delay_s=SECONDS link=FACTOR
///   dma=P dma_slow=FACTOR
///   straggler=NODExFACTOR      (repeatable, e.g. straggler=3x4.0)
///   crash=NODE@ITER            (e.g. crash=1@7)
///   seed=N
///
/// Example: "drop=0.02;delay=0.1;straggler=2x3.5;crash=1@40;seed=7".
/// Throws base::CheckError on unknown keys or malformed values.
FaultSpec parse_fault_spec(const std::string& spec);

/// Canonical round-trippable rendering ("none" for a clean spec).
std::string to_string(const FaultSpec& spec);

}  // namespace swcaffe::fault
