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
//    (index + pre-quantized value) and their code is 0.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace fz {

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

/// Reconstruction: d̂_i = p_i · 2eb.  With a multi-strip `plan`, element i
/// of strip s >= 1 reconstructs from p_i + carries[(s - 1) * plane_elems +
/// i % plane_elems] instead (carries.size() == plan.carry_elems()).
void dequantize(std::span<const i64> p, double eb, std::span<f32> out,
                const StripPlan& plan = {}, std::span<const i64> carries = {});
void dequantize(std::span<const i64> p, double eb, std::span<f64> out,
                const StripPlan& plan = {}, std::span<const i64> carries = {});

/// All-f32 reconstruction fast path: float(p_i) · float(2eb) while
/// |p_i| < 2^24 (where float(p_i) is exact), the double expression above
/// otherwise.  Differs from dequantize by at most the product's f32
/// rounding — the reconstruction still honours the error bound (pinned by
/// QuantizerTest.F32FastDequantHonoursBound).  Selected by
/// FzParams::f32_fast_quant.  Strip carries as for dequantize.
void dequantize_f32fast(std::span<const i64> p, double eb, std::span<f32> out,
                        const StripPlan& plan = {},
                        std::span<const i64> carries = {});

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

struct QuantV1Result {
  std::vector<u16> codes;  ///< δ + radius in [1, 2·radius), 0 = outlier
  std::vector<Outlier> outliers;
  u32 radius = 512;
};

QuantV1Result quant_encode_v1(std::span<const i64> deltas, u32 radius = 512);
void quant_decode_v1(const QuantV1Result& q, std::span<i64> deltas);

/// Codes-into-caller-storage variant (codes.size() == deltas.size()).
/// `outliers` is cleared and refilled (its capacity is reused across calls;
/// the outlier list is the one genuinely data-dependent V1 output).
void quant_encode_v1(std::span<const i64> deltas, u32 radius,
                     std::span<u16> codes, std::vector<Outlier>& outliers);

}  // namespace fz
