// Deterministic gradient compression for the all-reduce payloads
// (ROADMAP item 4; FireCaffe motivates communication volume as the scaling
// lever, Caffeinated FPGAs motivates reduced precision as the bandwidth
// multiplier).
//
// Two codecs, both pure functions of their input (no RNG, no global state,
// bit-identical across reruns):
//
//  * fp16 — IEEE 754 binary16 with round-to-nearest-even; finite values
//    beyond the half range clamp to +-65504 instead of overflowing to
//    infinity (a gradient codec must never inject infs into the update).
//  * int8 — per-message linear quantization: scale = max|v| / 127, each
//    value rounds to the nearest of 255 signed steps. One float scale
//    header rides along per message (kInt8ScaleBytes on the wire).
//
// Error feedback (1-bit SGD / deep gradient compression lineage): the
// quantization error of every element is carried in a per-node residual and
// added back into the next iteration's gradient before encoding, so the
// per-step errors telescope instead of accumulating — after T steps the sum
// of decoded gradients differs from the sum of raw gradients by exactly the
// final residual (plus float rounding of the adds), not by T quantization
// errors. The invariant is pinned by tests/compress_test.cpp properties.
//
// Compression happens at the source: each node encodes its (gradient +
// residual) slice, immediately decodes it, and the collective then reduces
// the decoded floats — identical arithmetic to the uncompressed collective
// over the decoded values, so compressed training stays deterministic and
// the existing functional all-reduces are reused unchanged. Only the
// *pricing* changes: beta bytes shrink to the wire encoding while the codec
// passes are charged against the CPE reduction bandwidth.
#pragma once

#include <cstdint>
#include <span>

#include "topo/allreduce.h"
#include "topo/network_model.h"

namespace swcaffe::topo {

enum class Compression { kNone, kFp16, kInt8 };

const char* compression_name(Compression c);

/// Inverse of compression_name ("none" / "fp16" / "int8"); returns false on
/// an unknown name, leaving *out untouched. For CLI flag parsing.
bool compression_from_name(const char* name, Compression* out);

/// Scale header accompanying every int8-compressed message on the wire.
inline constexpr std::int64_t kInt8ScaleBytes = 4;

/// On-wire bytes of a `raw_bytes` (packed float32) message under codec `c`.
/// Header-only so swcheck can state the compressed-byte conservation rule
/// without linking the codec. raw_bytes must be a multiple of 4.
inline std::int64_t wire_bytes(Compression c, std::int64_t raw_bytes) {
  switch (c) {
    case Compression::kNone:
      return raw_bytes;
    case Compression::kFp16:
      return raw_bytes / 2;
    case Compression::kInt8:
      return raw_bytes / 4 + kInt8ScaleBytes;
  }
  return raw_bytes;
}

/// IEEE binary16 conversion, round-to-nearest-even; finite overflow clamps
/// to +-65504 (0x7bff), infinities stay infinities, NaNs stay NaNs.
std::uint16_t float_to_half(float f);
float half_to_float(std::uint16_t h);

/// In-place decode(encode(v)) round trip of every element. kNone is the
/// identity. int8 uses one scale for the whole span (the per-message scale
/// header).
void codec_round_trip(Compression c, std::span<float> values);

/// Error-feedback encode step: grad := decode(encode(grad + residual)),
/// residual := (grad + residual) - decoded. Spans must have equal length.
/// Deterministic; calling twice on copies of the same inputs produces
/// bit-identical outputs.
void ef_encode(Compression c, std::span<float> grad,
               std::span<float> residual);

/// Simulated-time cost of the codec passes for one message: encode at the
/// source plus decode at the sink, each streaming `raw_bytes` through the
/// CPE clusters at the reduction bandwidth. Zero for kNone.
double codec_seconds(Compression c, std::int64_t raw_bytes,
                     const NetParams& net);

/// Prices a compressed collective: `cost_fn` (one of the topo cost_*
/// functions bound to a topology) is evaluated at the wire bytes, then the
/// codec passes over the raw bytes are added. With kNone this is exactly
/// cost_fn(raw_bytes).
template <typename CostFn>
CostBreakdown cost_compressed(Compression c, std::int64_t raw_bytes,
                              const NetParams& net, CostFn&& cost_fn) {
  CostBreakdown cost = cost_fn(wire_bytes(c, raw_bytes));
  cost.seconds += codec_seconds(c, raw_bytes, net);
  return cost;
}

/// THE price of one gradient all-reduce: cost_compressed over the analytic
/// cost of `algo` (cost_rhd / cost_ring / cost_param_server /
/// cost_hierarchical) at placement_for(algo). `raw_bytes` is the packed
/// float32 message; `param_servers` is read by kParamServer only. Every
/// pricing path (trainer, sweep, scheduler, fault recovery, tuner, CLIs)
/// calls this, so they agree bit for bit.
CostBreakdown allreduce_cost(AllreduceAlgo algo, Compression c,
                             std::int64_t raw_bytes, const Topology& topo,
                             const NetParams& net, int param_servers = 1);

}  // namespace swcaffe::topo
