// SIMD host kernels with runtime dispatch (common/simd.hpp), plus the fused
// tile pipeline — the host mirror of the paper's kernel fusion (§3.4).
//
// Every kernel here is *bit-identical* to its scalar reference in
// core/quantizer.cpp, core/bitshuffle.cpp and core/encoder.cpp at every
// dispatch tier; tests/test_simd.cpp enforces this with random and
// adversarial inputs at each level.  In particular the vectorized
// pre-quantization reproduces `std::llround(double(v) * inv)` EXACTLY
// (trunc + half-away-from-zero adjust + magic-constant i64 conversion),
// falling back to scalar llround for any lane group whose magnitude nears
// 2^50 — so SIMD never changes a compressed stream.
//
// Pre-quantization has one row per dtype in the fused kernel.  f32 takes
// the margin-tested float row (prequantize_f32fast) whenever fl32(1/2eb) is
// a normal float, and the exact row otherwise; f64 always takes the exact
// row.  The unfused graph stays on the exact prequantize_simd, so every
// fused-vs-unfused comparison also checks the float row against the exact
// one.
//
// The fused tile pipeline processes the input in cache-resident 4096-byte
// tiles (2048 u16 codes): quantize -> Lorenzo delta -> sign-magnitude
// encode -> 32x32 bit transpose -> zero-block flagging in one pass, so the
// i64 pre-quant array of the unfused graph is never materialized.  Lorenzo
// needs the previous row (2-D) / previous plane (3-D) of *pre-quantized*
// values, which stream through small per-strip scratch buffers — the same
// trick the paper's dual-quantization plays on the GPU, where neighbours
// are recomputed instead of communicated.
#pragma once

#include <span>

#include "common/simd.hpp"
#include "common/types.hpp"

namespace fz::telemetry {
class Sink;
}  // namespace fz::telemetry

namespace fz {

// ---- standalone vectorized kernels (unfused graph + tests) -----------------

/// Vectorized pre-quantization: p_i = llround(d_i / (2 eb)), bit-identical
/// to the scalar reference at every level.
void prequantize_simd(FloatSpan data, double eb, std::span<i64> out,
                      SimdLevel level);
void prequantize_simd(std::span<const f64> data, double eb, std::span<i64> out,
                      SimdLevel level);

/// The fused kernel's f32 row, standalone (float multiply + lrintf): no
/// double promotion on the hot loop, yet *bit-identical* to prequantize at
/// every level.  The f32 product differs from the double product by at
/// most |x|·2^-23 (two f32 roundings), so the rounded code can only
/// disagree when the scaled value lands within that radius of a
/// half-integer boundary — a margin test detects exactly those lanes (plus
/// everything at |x| ≥ 2^21, where the margin stops being meaningful, and
/// any eb whose f32 reciprocal is subnormal/infinite) and routes them
/// through the exact double kernel.  Pinned by
/// QuantizerTest.F32FastPathMatchesExactOnTier1 and the adversarial sweeps
/// in tests/test_simd.cpp; bench/regress times it as "prequant-f32fast".
void prequantize_f32fast(FloatSpan data, double eb, std::span<i64> out,
                         SimdLevel level);

/// Vectorized V2 residual encode (sign-magnitude, saturating); returns the
/// saturation count.  Bit-identical to quant_encode_v2.
size_t quant_encode_v2_simd(std::span<const i64> deltas, std::span<u16> codes,
                            SimdLevel level);

/// Vectorized tile bitshuffle / inverse (bit-identical to
/// bitshuffle_tiles / bitunshuffle_tiles).  Sizes as in core/bitshuffle.hpp.
void bitshuffle_tiles_simd(std::span<const u32> in, std::span<u32> out,
                           SimdLevel level);
void bitunshuffle_tiles_simd(std::span<const u32> in, std::span<u32> out,
                             SimdLevel level);

/// Vectorized zero-block marking (bit-identical to mark_blocks).
void mark_blocks_simd(std::span<const u32> words, std::span<u8> byte_flags,
                      std::span<u8> bit_flags, SimdLevel level);

/// One 32-word unit bit transpose: out[j * out_stride] = plane j (bit j of
/// each input word, word i at bit i).  Exposed for the equivalence tests;
/// the AVX2 tier uses the movemask-epi8 plane extraction, scalar the
/// Hacker's Delight reference network.
void transpose_unit_simd(const u32* in, u32* out, size_t out_stride,
                         SimdLevel level);

/// The unit transpose resolved to a concrete tier, for callers that loop
/// tiles themselves (the fused decode strips, core/kernels_decode.hpp):
/// fetching the pointer once hoists the dispatch out of the per-unit loop.
using TransposeUnitFn = void (*)(const u32* in, u32* out, size_t out_stride);
TransposeUnitFn transpose_unit_fn(SimdLevel level);

// ---- tile-parallel fused pipeline ------------------------------------------
//
// The cuSZ+ observation applied to the host path: pre-quantization is
// pointwise, so any tile strip can *re-prequantize* the few predecessor
// values its Lorenzo stencil reaches across the strip boundary (one value
// in 1-D, one row in 2-D, one plane in 3-D) and then predict independently
// of every other strip.  Strips are aligned to whole 2048-code tiles, so
// each worker owns a disjoint region of `shuffled`/`byte_flags`/`bit_flags`
// and the assembled stream is byte-identical to the unfused stage graph for
// every strip count, dtype and SIMD tier (pinned by
// tests/test_fused_parallel.cpp).
//
// Rows are pre-quantized in multi-row batches (one dispatch per batch
// instead of per row) and the Lorenzo delta + sign-magnitude encode run as
// one fused vector kernel straight into the tile buffer, so no delta row is
// stored and reloaded.

struct FusedTileResult {
  size_t saturated = 0;  ///< residual codes clipped to +/-(2^15 - 1)
  i64 anchor = 0;        ///< pre-quantized first value (header field)
};

struct FusedParallelPlan {
  size_t strips = 1;         ///< actual strip count (<= requested workers)
  size_t scratch_elems = 0;  ///< total i64 scratch across all strips
  size_t halo_elems = 0;     ///< upper bound on re-prequantized halo elements
                             ///< (exact counts ride the "fused-strip" spans)
};

/// Partition `dims` into tile strips for `workers` workers (0 = one strip
/// per hardware thread).  The strip count is clamped so the halo-recompute
/// overhead stays a small fraction of the total work; the plan is
/// deterministic in (dims, workers) — it never depends on thread timing.
FusedParallelPlan fused_parallel_plan(Dims dims, size_t workers);

/// The fused stage kernel: quantize + Lorenzo + encode + bitshuffle + mark
/// in one tile-parallel pass over `data`.  Outputs exactly what
/// DualQuantStage + BitshuffleMarkStage produce — `shuffled` (total_words
/// u32), `byte_flags` (one per 16-byte block) and `bit_flags` (packed) —
/// byte-for-byte for every plan, without ever materializing the i64[count]
/// pre-quant array.  V2 quantization only.  Pre-quantizes through the
/// dtype's row (see the top of this file).  `scratch` must hold
/// plan.scratch_elems i64 (contents need not be initialized); it is sliced
/// per strip, so one pooled lease serves every worker.  When `sink` is
/// non-null each strip records a "fused-strip" span (strip id, halo elems,
/// consumed bytes) on its worker thread.
FusedTileResult fused_quant_shuffle_mark_parallel(
    FloatSpan data, Dims dims, double abs_eb, std::span<u32> shuffled,
    std::span<u8> byte_flags, std::span<u8> bit_flags,
    std::span<i64> scratch, const FusedParallelPlan& plan, SimdLevel level,
    telemetry::Sink* sink = nullptr);
FusedTileResult fused_quant_shuffle_mark_parallel(
    std::span<const f64> data, Dims dims, double abs_eb,
    std::span<u32> shuffled, std::span<u8> byte_flags,
    std::span<u8> bit_flags, std::span<i64> scratch,
    const FusedParallelPlan& plan, SimdLevel level,
    telemetry::Sink* sink = nullptr);

}  // namespace fz
