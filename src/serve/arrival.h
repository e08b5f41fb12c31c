// Open-loop request arrival models for swserve.
//
// Serving experiments need arrival streams that are (a) open-loop — the
// client does not wait for responses, so overload actually builds queues —
// and (b) pure in the seed: like swfault, every arrival time is a function
// of (seed, counter) via the keyed splitmix64 chain of base/rng.h, with no
// RNG stream to drift. Two same-seed runs therefore produce bit-identical schedules no
// matter how the stream is consumed, which is what makes BENCH_serving.json
// reproducible byte for byte.
//
// Three models:
//  * Poisson  — homogeneous exponential inter-arrivals at `rate` req/s, the
//               standard open-loop benchmark load.
//  * Bursty   — a square-wave modulated Poisson process (peak rate during a
//               duty fraction of each period, `base_fraction` of it between
//               bursts), realized by deterministic thinning of the peak-rate
//               stream so burst membership is also pure in the seed.
//  * Trace    — explicit timestamps supplied by the caller (replay of a
//               recorded production trace).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace swcaffe::serve {

enum class ArrivalKind { kPoisson, kBursty, kTrace };

const char* arrival_kind_name(ArrivalKind kind);
/// Parses "poisson" / "bursty" / "trace"; throws base::CheckError otherwise.
ArrivalKind parse_arrival_kind(const std::string& name);

struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate = 100.0;      ///< req/s: mean (Poisson) or peak (bursty)
  double duration_s = 1.0;  ///< arrivals generated for t in [0, duration)
  std::uint64_t seed = 1;

  // --- Bursty modulation (kind == kBursty) ---------------------------------
  double burst_period_s = 0.2;  ///< square-wave period
  double burst_duty = 0.25;     ///< fraction of each period at peak rate
  double base_fraction = 0.1;   ///< off-burst rate = base_fraction * rate

  // --- Trace replay (kind == kTrace) ---------------------------------------
  std::vector<double> trace;  ///< explicit arrival times (sorted ascending)
};

/// Instantaneous rate multiplier of the bursty square wave at time t
/// (1.0 inside a burst, base_fraction outside; Poisson is identically 1.0).
double burst_factor(const ArrivalSpec& spec, double t_s);

/// Materializes the arrival stream: strictly increasing times in
/// [0, duration_s). Pure in the spec — same spec, same vector, bitwise.
std::vector<double> generate_arrivals(const ArrivalSpec& spec);

}  // namespace swcaffe::serve
