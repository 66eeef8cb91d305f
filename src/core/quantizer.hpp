// Dual-quantization (paper §2.3, §3.2).
//
// Two variants are provided:
//  * V2 ("optimized", the FZ contribution): residuals are stored as 16-bit
//    sign-magnitude codes — no radius shift, no outlier list; |δ| ≥ 2^15
//    saturates (rare by construction at the paper's error bounds, and the
//    saturation count is reported so callers can verify).
//  * V1 ("original", cuSZ-style, used by the ablation and the cuSZ
//    baseline): residuals inside (-radius, radius) are shifted by +radius
//    into [1, 2·radius); residuals outside are recorded as outliers
//    (index + pre-quantized value) and their code is 0.  The codec
//    compresses V1 with the fixed radius kV1Radius.
//
// Each direction has one expression.  Pre-quantization is
// llround(d / 2eb); every SIMD row in core/kernels_simd.hpp reproduces it
// bit for bit, including the margin-tested float row the fused kernel
// uses for f32.  Reconstruction is the double product in dequantize.  No
// host setting changes a stream or a restored value.
//
// The bound pre-quantization runs with comes from resolve_abs_eb, the one
// place an ErrorBound meets the data: the compress graphs' resolve stage
// and the chunked container's whole-field resolve both call it.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace fz::telemetry {
class Sink;
}  // namespace fz::telemetry

namespace fz {

/// Resolve `eb` over `data` to the absolute bound pre-quantization runs
/// with.  One parallel_range pass (common/parallel.hpp) gives the
/// non-finite check, the value range a relative bound scales (a constant
/// field scales it by max(|value|, 1) instead) and the largest magnitude.
/// A point-wise relative bound rel resolves to log1p(rel) over log(data):
/// the log pass writes log(data) into `log_values` (data.size() elements;
/// unused by the other modes) inside a "log-transform" span on `sink`.
///
/// Throws Error on non-finite data, and on non-positive data under a
/// point-wise bound.  Throws ParamError on "eb" when the data make the
/// bound unrepresentable: abs_eb or 1/(2 abs_eb) is not finite, or the
/// largest |value| (after a log transform, the largest |log value|) over
/// 2 abs_eb reaches 2^62, where pre-quantized values approach the i64
/// range.
double resolve_abs_eb(FloatSpan data, const ErrorBound& eb,
                      std::span<f32> log_values = {},
                      telemetry::Sink* sink = nullptr);
double resolve_abs_eb(std::span<const f64> data, const ErrorBound& eb,
                      std::span<f64> log_values = {},
                      telemetry::Sink* sink = nullptr);

/// Pre-quantization: p_i = round(d_i / (2·eb)).  The only lossy step of the
/// whole pipeline; |p_i·2eb − d_i| ≤ eb by construction (Fig. 2).
void prequantize(FloatSpan data, double eb, std::span<i64> out);
void prequantize(std::span<const f64> data, double eb, std::span<i64> out);

/// A field cut into `strips` runs of whole hyperplanes: `planes`
/// hyperplanes of `plane_elems` elements each, strip s starting at
/// hyperplane s * planes / strips.  The fused decode plans its strips this
/// way (core/kernels_decode.hpp) and leaves prefix sums local to each strip,
/// which the dequantize overloads below globalize with one carry hyperplane
/// per strip after the first.  The default plan is one strip: no carries.
struct StripPlan {
  size_t strips = 1;
  size_t planes = 1;
  size_t plane_elems = 1;

  size_t first_plane(size_t s) const { return s * planes / strips; }
  size_t carry_elems() const { return (strips - 1) * plane_elems; }
};

/// Reconstruction: d̂_i = p_i · 2eb, in double, rounded once to the output
/// type.  With a multi-strip `plan`, element i of strip s >= 1
/// reconstructs from p_i + carries[(s - 1) * plane_elems + i % plane_elems]
/// instead (carries.size() == plan.carry_elems()).
void dequantize(std::span<const i64> p, double eb, std::span<f32> out,
                const StripPlan& plan = {}, std::span<const i64> carries = {});
void dequantize(std::span<const i64> p, double eb, std::span<f64> out,
                const StripPlan& plan = {}, std::span<const i64> carries = {});

// ---- V2: optimized (sign-magnitude, saturating) ----------------------------

struct QuantV2Result {
  std::vector<u16> codes;
  size_t saturated = 0;  ///< residuals clipped to ±(2^15 − 1)
};

QuantV2Result quant_encode_v2(std::span<const i64> deltas);
void quant_decode_v2(std::span<const u16> codes, std::span<i64> deltas);

/// Allocation-free variant: encode into caller storage (codes.size() ==
/// deltas.size()); returns the saturation count.  The stage graph uses this
/// with pooled buffers so steady-state compression never touches the heap.
size_t quant_encode_v2(std::span<const i64> deltas, std::span<u16> codes);

// ---- V1: original (radius shift + outliers) ---------------------------------

struct Outlier {
  u64 index;
  i64 delta;
};

/// The radius V1 compresses with (the stream header records it, so decode
/// honours any radius a stream carries).
inline constexpr u32 kV1Radius = 512;

struct QuantV1Result {
  std::vector<u16> codes;  ///< δ + radius in [1, 2·radius), 0 = outlier
  std::vector<Outlier> outliers;
  u32 radius = kV1Radius;
};

QuantV1Result quant_encode_v1(std::span<const i64> deltas,
                              u32 radius = kV1Radius);
void quant_decode_v1(const QuantV1Result& q, std::span<i64> deltas);

/// Codes-into-caller-storage variant (codes.size() == deltas.size()).
/// `outliers` is cleared and refilled (its capacity is reused across calls;
/// the outlier list is the one genuinely data-dependent V1 output).
void quant_encode_v1(std::span<const i64> deltas, u32 radius,
                     std::span<u16> codes, std::vector<Outlier>& outliers);

}  // namespace fz
