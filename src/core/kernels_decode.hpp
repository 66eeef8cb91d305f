// The fused single-pass decompress — the decode-side twin of the PR5
// compress fusion (core/kernels_simd.hpp), after cuSZ+'s block-local
// Lorenzo reconstruction.
//
// The unfused decompress graph materializes the scattered shuffled words
// and the unshuffled code words (u32[total_words] each), then runs three
// whole-array inverse-Lorenzo scans (x, y, z) over i64[count] before
// dequantizing.  This pass instead cuts the field into strips of whole
// hyperplanes (z planes in 3-D, y rows in 2-D, x elements in 1-D) and, per
// strip, walks its tiles once: scatter the tile's compacted blocks — read
// in place from the stream — into a stack-resident 4 KiB buffer,
// inverse-bitshuffle it into a second one, and sign-magnitude-decode the
// 2048 codes straight into the inverse-Lorenzo recurrence
//
//   p[x,y,z] = Σ_{x'≤x} d[x',y,z] + p[x,y-1,z] + p[x,y,z-1] − p[x,y-1,z-1]
//
// with terms outside the strip taken as 0.  The neighbour rows are the
// strip's most recent output, still in cache.  A tile that straddles a
// strip boundary is decoded by both neighbours.
//
// What is left in i64[count] is a prefix sum local to each strip.  Its
// global value differs by the global prefix at the hyperplane before the
// strip, the same for every element at one in-plane position: one serial
// pass over the strips' last hyperplanes builds those carries
// (fused_decode_carries), and reconstruct adds them while it dequantizes
// (dequantize with a StripPlan, core/quantizer.hpp).  Integer adds are
// associative, so the output is byte-identical to the unfused graph for
// every (workers, SIMD tier, dtype, rank) combination — pinned by
// tests/test_fused_decompress.cpp.
#pragma once

#include <span>

#include "common/simd.hpp"
#include "common/types.hpp"
#include "core/quantizer.hpp"

namespace fz::telemetry {
class Sink;
}  // namespace fz::telemetry

namespace fz {

/// Strip plan of the fused decode over the outermost axis:
/// min(workers, hyperplanes, tiles) strips, or with workers 0
/// min(parts_for(hyperplanes, their decode bytes), tiles)
/// (common/parallel.hpp).  Deterministic in (dims, workers, budget).
StripPlan fused_decode_plan(Dims dims, size_t workers);

/// The strip pass.  `bit_flags` and `blocks` are the stream's sections
/// (blocks at any byte alignment), `tile_bases` the per-tile block bases
/// from decode_tile_bases (core/encoder.hpp), which has already checked
/// that every block they address lies in `blocks`.  Writes the strip-local
/// inverse Lorenzo of the decoded residuals, with `anchor` added to the
/// first one, into `p` (the field's element count).  When `sink` is
/// non-null each strip records a "fused-decode-strip" span (strip id, tile
/// count, decoded bytes) on its worker thread.
void fused_decode_strips(std::span<const u8> bit_flags, ByteSpan blocks,
                         std::span<const u64> tile_bases, i64 anchor,
                         Dims dims, std::span<i64> p, const StripPlan& plan,
                         SimdLevel level, telemetry::Sink* sink = nullptr);

/// The serial carry step: carries[s - 1] (one hyperplane each, s >= 1) is
/// the global prefix at the hyperplane before strip s — strip 0's last
/// hyperplane, then each carry plus the next strip's last local one.
/// carries.size() == plan.carry_elems().
void fused_decode_carries(std::span<const i64> p, const StripPlan& plan,
                          std::span<i64> carries);

}  // namespace fz
