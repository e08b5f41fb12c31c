#include "check/diagnostic.h"

#include <algorithm>
#include <ostream>
#include <utility>

namespace swcaffe::check {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "?";
}

const char* code_name(Code c) {
  switch (c) {
    case Code::kLdmOverflow:
      return "ldm-overflow";
    case Code::kLdmDoubleBuffer:
      return "ldm-double-buffer";
    case Code::kDmaEmptyRun:
      return "dma-empty-run";
    case Code::kDmaMisaligned:
      return "dma-misaligned";
    case Code::kDmaOverlap:
      return "dma-overlap";
    case Code::kDmaBytesMismatch:
      return "dma-bytes-mismatch";
    case Code::kDmaShortRun:
      return "dma-short-run";
    case Code::kRlcDeadlock:
      return "rlc-deadlock";
    case Code::kRlcIllegalPair:
      return "rlc-illegal-pair";
    case Code::kRlcUnmatched:
      return "rlc-unmatched";
    case Code::kImplicitUnsupported:
      return "implicit-unsupported";
    case Code::kImplicitDegraded:
      return "implicit-degraded";
    case Code::kPlanInconsistent:
      return "plan-inconsistent";
    case Code::kGeomInvalid:
      return "geom-invalid";
    case Code::kRetryBufferOverflow:
      return "retry-buffer-overflow";
    case Code::kRetryTimeout:
      return "retry-timeout";
    case Code::kBucketOrder:
      return "bucket-order";
    case Code::kBucketResendOverflow:
      return "bucket-resend-overflow";
    case Code::kCommCompressCombo:
      return "comm-compress-combo";
    case Code::kCommCompressBytes:
      return "comm-compress-bytes";
    case Code::kCollectivePort:
      return "collective-port";
    case Code::kTimelineOverlap:
      return "timeline-overlap";
    case Code::kTimelineRace:
      return "timeline-race";
    case Code::kTimelineBytes:
      return "timeline-bytes";
    case Code::kTimelineCausality:
      return "timeline-causality";
    case Code::kTimelineDeadline:
      return "timeline-deadline";
    case Code::kTimelineCycle:
      return "timeline-cycle";
    case Code::kTimelineGang:
      return "timeline-gang";
  }
  return "?";
}

void Report::add(Code code, Severity severity, std::string layer,
                 std::string message) {
  diags_.push_back(
      Diagnostic{code, severity, std::move(layer), std::move(message)});
}

void Report::merge(const Report& other) {
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

int Report::error_count() const {
  return static_cast<int>(
      std::count_if(diags_.begin(), diags_.end(), [](const Diagnostic& d) {
        return d.severity == Severity::kError;
      }));
}

int Report::warning_count() const {
  return static_cast<int>(
      std::count_if(diags_.begin(), diags_.end(), [](const Diagnostic& d) {
        return d.severity == Severity::kWarning;
      }));
}

bool Report::has(Code code) const {
  return std::any_of(diags_.begin(), diags_.end(),
                     [code](const Diagnostic& d) { return d.code == code; });
}

std::string Report::summary() const {
  std::string s = std::to_string(error_count()) + " error(s), " +
                  std::to_string(warning_count()) + " warning(s)";
  for (const Diagnostic& d : diags_) {
    if (d.severity != Severity::kError) continue;
    s += "; first: [" + d.layer + "] " + code_name(d.code) + ": " + d.message;
    break;
  }
  return s;
}

void Report::print(std::ostream& os) const {
  for (const Diagnostic& d : diags_) {
    os << severity_name(d.severity) << ' ' << code_name(d.code) << " ["
       << d.layer << "] " << d.message << '\n';
  }
}

}  // namespace swcaffe::check
