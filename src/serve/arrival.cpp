#include "serve/arrival.h"

#include <cmath>

#include "base/log.h"
#include "base/rng.h"

namespace swcaffe::serve {

namespace {

/// Site tags mixed into the hash so the inter-arrival and thinning draws
/// come from independent schedules (same discipline as fault::Site).
enum class Site : std::uint64_t {
  kInterArrival = 0x61727256,  // 'arrV'
  kThinning = 0x74686e56,      // 'thnV'
};

/// Uniform double in [0, 1), pure in (seed, site, counter).
double u01(std::uint64_t seed, Site site, std::uint64_t counter) {
  return base::unit_double(
      base::Key(seed, static_cast<std::uint64_t>(site)).bits(counter));
}

}  // namespace

const char* arrival_kind_name(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kBursty: return "bursty";
    case ArrivalKind::kTrace: return "trace";
  }
  return "?";
}

ArrivalKind parse_arrival_kind(const std::string& name) {
  if (name == "poisson") return ArrivalKind::kPoisson;
  if (name == "bursty") return ArrivalKind::kBursty;
  if (name == "trace") return ArrivalKind::kTrace;
  SWC_CHECK_MSG(false, "unknown arrival model: " << name
                                                 << " (poisson|bursty|trace)");
  return ArrivalKind::kPoisson;
}

double burst_factor(const ArrivalSpec& spec, double t_s) {
  if (spec.kind != ArrivalKind::kBursty) return 1.0;
  SWC_CHECK_GT(spec.burst_period_s, 0.0);
  const double phase =
      t_s / spec.burst_period_s - std::floor(t_s / spec.burst_period_s);
  return phase < spec.burst_duty ? 1.0 : spec.base_fraction;
}

std::vector<double> generate_arrivals(const ArrivalSpec& spec) {
  std::vector<double> out;
  if (spec.kind == ArrivalKind::kTrace) {
    double prev = -1.0;
    for (const double t : spec.trace) {
      SWC_CHECK_MSG(t > prev, "trace arrivals must be strictly increasing");
      SWC_CHECK_GE(t, 0.0);
      if (t < spec.duration_s) out.push_back(t);
      prev = t;
    }
    return out;
  }

  SWC_CHECK_GT(spec.rate, 0.0);
  SWC_CHECK_GE(spec.duration_s, 0.0);
  if (spec.kind == ArrivalKind::kBursty) {
    SWC_CHECK_GT(spec.burst_duty, 0.0);
    SWC_CHECK_LE(spec.burst_duty, 1.0);
    SWC_CHECK_GE(spec.base_fraction, 0.0);
    SWC_CHECK_LE(spec.base_fraction, 1.0);
  }

  // Base stream: homogeneous Poisson at the peak rate. Arrival i's time is
  // the prefix sum of exponential inter-arrivals, each drawn from its own
  // counter — so the schedule is pure in (seed, i) and a bursty run shares
  // the base stream of the Poisson run at the same seed.
  double t = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    const double u = u01(spec.seed, Site::kInterArrival, i);
    // -log1p(-u) keeps precision for small u; u < 1 strictly, so finite.
    t += -std::log1p(-u) / spec.rate;
    if (t >= spec.duration_s) break;
    if (spec.kind == ArrivalKind::kBursty) {
      // Deterministic thinning: keep the arrival with probability equal to
      // the instantaneous rate fraction (standard thinning of a
      // non-homogeneous Poisson process; the draw is independent of the
      // inter-arrival stream by site separation).
      if (u01(spec.seed, Site::kThinning, i) >= burst_factor(spec, t)) {
        continue;
      }
    }
    out.push_back(t);
  }
  return out;
}

}  // namespace swcaffe::serve
