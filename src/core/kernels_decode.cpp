// fzlint:hot-path — the fused decompress inner loops; every Reader chunk
// fetch and fzd decompress job runs through here.
#include "core/kernels_decode.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/bitshuffle.hpp"
#include "core/format.hpp"
#include "core/kernels_simd.hpp"
#include "telemetry/telemetry.hpp"

namespace fz {

namespace {

constexpr size_t kBlockBytes = kBlockWords * sizeof(u32);

/// Scatter one tile's blocks into the stack tile buffer: zero-fill, then
/// copy each flagged block from the compacted payload with an unaligned
/// 16-byte load.  `flags` is the tile's kBlocksPerTile / 8 flag bytes and
/// `blocks` its first compacted block.
inline void scatter_tile(const u8* flags, const u8* blocks, u32* tile) {
  std::memset(tile, 0, kTileBytes);
  for (size_t w = 0; w < kBlocksPerTile / 64; ++w) {
    for (u64 bits = load_le<u64>(flags + w * sizeof(u64)); bits != 0;
         bits &= bits - 1) {
      const size_t blk = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      std::memcpy(tile + blk * kBlockWords, blocks, kBlockBytes);
      blocks += kBlockBytes;
    }
  }
}

/// Inverse bitshuffle of one tile (the bitunshuffle_tiles_simd body with
/// the dispatch hoisted out): gather each unit's planes, then the same
/// transpose (an involution) written contiguously inverts the shuffle.
inline void unshuffle_tile(TransposeUnitFn transpose, const u32* tin,
                           u32* tout) {
  for (size_t u = 0; u < kUnitsPerTile; ++u) {
    alignas(32) u32 tmp[kUnitWords];
    for (size_t j = 0; j < kUnitWords; ++j)
      tmp[j] = tin[j * kUnitsPerTile + u];
    transpose(tmp, tout + u * kUnitWords, 1);
  }
}

/// Decode n codes of one row into the inverse-Lorenzo recurrence.  `acc`
/// is the row's running x-sum so far, kept in a register: the form
/// out[k] += out[k - 1] would wait on a store-to-load forward per element.
/// kUp adds the previous row (out - nx), kBack the previous hyperplane
/// (out - plane), and both together subtract the row before it in the
/// previous hyperplane.  Sums are modulo 2^64 (see wrapping_add).
template <bool kUp, bool kBack>
inline u64 decode_row(const u16* codes, i64* out, size_t n, size_t nx,
                      size_t plane, u64 acc) {
  const i64* up = nullptr;
  const i64* back = nullptr;
  const i64* up_back = nullptr;
  if constexpr (kUp) up = out - nx;
  if constexpr (kBack) back = out - plane;
  if constexpr (kUp && kBack) up_back = out - plane - nx;
  for (size_t k = 0; k < n; ++k) {
    acc += static_cast<u64>(sign_magnitude_decode(codes[k]));
    u64 v = acc;
    if constexpr (kUp) v += static_cast<u64>(up[k]);
    if constexpr (kBack) v += static_cast<u64>(back[k]);
    if constexpr (kUp && kBack) v -= static_cast<u64>(up_back[k]);
    out[k] = static_cast<i64>(v);
  }
  return acc;
}

}  // namespace

StripPlan fused_decode_plan(Dims dims, size_t workers) {
  StripPlan plan;
  switch (dims.rank()) {
    case 1:
      plan.planes = dims.x;
      break;
    case 2:
      plan.planes = dims.y;
      plan.plane_elems = dims.x;
      break;
    default:
      plan.planes = dims.z;
      plan.plane_elems = dims.x * dims.y;
      break;
  }
  const size_t tiles =
      div_ceil(std::max<size_t>(dims.count(), 1), kCodesPerTile);
  // A hyperplane reads its codes and writes its i64 partial sums.
  const size_t plane_bytes = plan.plane_elems * (sizeof(u16) + sizeof(i64));
  const size_t w = workers != 0 ? std::min(workers, plan.planes)
                                : parts_for(plan.planes, plane_bytes);
  plan.strips = std::max<size_t>(1, std::min(w, tiles));
  return plan;
}

void fused_decode_strips(std::span<const u8> bit_flags, ByteSpan blocks,
                         std::span<const u64> tile_bases, i64 anchor,
                         Dims dims, std::span<i64> p, const StripPlan& plan,
                         SimdLevel level, telemetry::Sink* sink) {
  const size_t count = p.size();
  const size_t tiles = div_ceil(std::max<size_t>(count, 1), kCodesPerTile);
  FZ_REQUIRE(count == dims.count() &&
                 plan.planes * plan.plane_elems == count &&
                 tile_bases.size() == tiles &&
                 bit_flags.size() == tiles * (kBlocksPerTile / 8),
             "fused decode: size mismatch");
  const TransposeUnitFn transpose = transpose_unit_fn(level);
  const size_t nx = dims.x;
  const size_t ny = dims.y;
  const size_t plane = dims.x * dims.y;

  parallel_tasks(plan.strips, plan.strips, [&](size_t s, size_t) {
    const size_t lo = plan.first_plane(s) * plan.plane_elems;
    const size_t hi = plan.first_plane(s + 1) * plan.plane_elems;
    const size_t tile_b = lo / kCodesPerTile;
    const size_t tile_e = div_ceil(hi, kCodesPerTile);
    telemetry::Span span(sink, "fused-decode-strip");
    if (span.enabled()) {
      span.arg("strip", static_cast<double>(s));
      span.arg("tiles", static_cast<double>(tile_e - tile_b));
      span.arg("bytes", static_cast<double>((hi - lo) * sizeof(i64)));
    }
    // Rows before first_row belong to the previous strip: they count as 0.
    const size_t first_row = lo / nx;
    u64 acc = 0;  // the running x-sum; a 1-D strip starts it mid-row
    // Both tile buffers stay resident in L1 across the whole strip — the
    // traffic fz_fused_decode_cost models as saved.
    alignas(64) u32 tile_shuf[kTileWords];
    alignas(64) u32 tile_codes[kTileWords];
    for (size_t t = tile_b; t < tile_e; ++t) {
      scatter_tile(bit_flags.data() + t * (kBlocksPerTile / 8),
                   blocks.data() + tile_bases[t] * kBlockBytes, tile_shuf);
      unshuffle_tile(transpose, tile_shuf, tile_codes);
      // Codes are packed little-endian two-per-word (the codes-as-u32
      // layout the whole pipeline shares); view them as u16.
      const u16* codes = reinterpret_cast<const u16*>(tile_codes);
      const size_t base = t * kCodesPerTile;
      const size_t end = std::min(hi, base + kCodesPerTile);
      for (size_t i = std::max(lo, base); i < end;) {
        const size_t row = i / nx;
        const size_t x = i - row * nx;
        const size_t n = std::min(end - i, nx - x);
        // A row restarts the x-sum; element 0 starts it at the anchor.
        if (x == 0) acc = i == 0 ? static_cast<u64>(anchor) : 0;
        const bool up = row % ny != 0 && row > first_row;
        const bool back = row >= first_row + ny;
        const u16* c = codes + (i - base);
        i64* out = p.data() + i;
        if (up && back) {
          acc = decode_row<true, true>(c, out, n, nx, plane, acc);
        } else if (up) {
          acc = decode_row<true, false>(c, out, n, nx, plane, acc);
        } else if (back) {
          acc = decode_row<false, true>(c, out, n, nx, plane, acc);
        } else {
          acc = decode_row<false, false>(c, out, n, nx, plane, acc);
        }
        i += n;
      }
    }
  });
}

void fused_decode_carries(std::span<const i64> p, const StripPlan& plan,
                          std::span<i64> carries) {
  FZ_REQUIRE(carries.size() == plan.carry_elems() &&
                 plan.planes * plan.plane_elems == p.size(),
             "fused decode: carry size mismatch");
  const size_t pe = plan.plane_elems;
  for (size_t s = 1; s < plan.strips; ++s) {
    const i64* last = p.data() + (plan.first_plane(s) - 1) * pe;
    i64* carry = carries.data() + (s - 1) * pe;
    if (s == 1) {
      std::copy(last, last + pe, carry);
      continue;
    }
    const i64* prev = carry - pe;
    for (size_t j = 0; j < pe; ++j) carry[j] = wrapping_add(prev[j], last[j]);
  }
}

}  // namespace fz
