// swcheck diagnostics: structured findings of the static plan verifier.
//
// Every rule violation is reported as a Diagnostic{code, severity, layer,
// message} collected into a Report. Codes are stable identifiers (printed by
// `swcaffe_check --list-codes` and documented in README.md) so tests and CI
// can assert on exactly which rule fired.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace swcaffe::check {

enum class Severity {
  kError,    ///< the plan cannot run (would throw / deadlock on hardware)
  kWarning,  ///< the plan runs but violates a performance/robustness contract
  kNote,     ///< advisory (only emitted under Options::pedantic)
};

const char* severity_name(Severity s);

/// Stable diagnostic codes, one per statically checkable contract.
enum class Code {
  // --- LDM budget (64 KB per CPE, hw::Ldm) ---------------------------------
  kLdmOverflow,      ///< per-CPE working set exceeds LDM capacity
  kLdmDoubleBuffer,  ///< fits single-buffered only: no room to double-buffer
  // --- DMA legality (paper Fig. 2 / Principle 3) ---------------------------
  kDmaEmptyRun,      ///< zero-length run or zero-byte transfer planned
  kDmaMisaligned,    ///< run/stride not a multiple of the element size
  kDmaOverlap,       ///< stride shorter than the run: runs overwrite each other
  kDmaBytesMismatch, ///< enumerated run bytes != bytes the cost model charges
  kDmaShortRun,      ///< run below the 256 B "satisfactory bandwidth" knee
  // --- RLC schedules (row/column buses, FIFO semantics) --------------------
  kRlcDeadlock,      ///< cycle in the send/receive dependency graph
  kRlcIllegalPair,   ///< P2P between CPEs sharing neither row nor column
  kRlcUnmatched,     ///< receive without a matching send (or leftover message)
  // --- Implicit convolution applicability (paper Table II) -----------------
  kImplicitUnsupported, ///< geometry outside the kernel's support predicate
  kImplicitDegraded,    ///< supported but below the 64-channel efficiency knee
  kPlanInconsistent,    ///< auto-tuner choice contradicts the support predicate
  // --- Shape sanity --------------------------------------------------------
  kGeomInvalid,      ///< non-positive output dims / indivisible channel groups
  // --- Fault-tolerance retry plans (swfault) -------------------------------
  kRetryBufferOverflow, ///< buffered resend round exceeds its LDM budget
  kRetryTimeout,        ///< retry ladder cannot complete before escalation
  // --- Bucketed all-reduce plans (topo/overlap) ----------------------------
  kBucketOrder,          ///< buckets do not tile the layers in order, or an
                         ///< empty bucket / byte-conservation violation
  kBucketResendOverflow, ///< a bucket's buffered round exceeds the resend
                         ///< buffer of the resilient send path
  // --- Communication configs (topo hierarchy + compression) ----------------
  kCommCompressCombo,  ///< unsupported algorithm x compression combination
  kCommCompressBytes,  ///< claimed wire bytes break codec conservation
  kCollectivePort,     ///< a rank sends or receives twice in one round
  // --- Whole-timeline schedules (swsched, check/timeline) ------------------
  kTimelineOverlap,   ///< two intervals double-book one exclusive resource
  kTimelineRace,      ///< conflicting state accesses with no happens-before
  kTimelineBytes,     ///< timeline events lose/invent ledger bytes
  kTimelineCausality, ///< a consumer starts before its producer finishes
  kTimelineDeadline,  ///< proven completion exceeds the SLO/timeout bound
  kTimelineCycle,     ///< happens-before cycle: the schedule deadlocks
  kTimelineGang,      ///< a gang's events do not start/stop together
};

/// Stable short identifier, e.g. "ldm-overflow".
const char* code_name(Code c);

struct Diagnostic {
  Code code = Code::kGeomInvalid;
  Severity severity = Severity::kError;
  std::string layer;    ///< layer / plan the finding is attached to
  std::string message;  ///< human-readable detail with the offending numbers
};

/// Collection of diagnostics from one verification pass.
class Report {
 public:
  void add(Code code, Severity severity, std::string layer,
           std::string message);
  void merge(const Report& other);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  int error_count() const;
  int warning_count() const;
  bool ok() const { return error_count() == 0; }
  bool empty() const { return diags_.empty(); }
  bool has(Code code) const;

  /// "2 errors, 1 warning" plus the first error's message (for CHECK text).
  std::string summary() const;
  /// One line per diagnostic: "error ldm-overflow [conv3_1] ...".
  void print(std::ostream& os) const;

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace swcaffe::check
