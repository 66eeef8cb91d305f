#include "core/bitshuffle.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace fz {

void transpose_bit_matrix_32(u32* a) {
  // Block-swap network (Hacker's Delight §7-3): swap 16x16 sub-blocks, then
  // 8x8, ... 1x1.  ~5*32 ops instead of 32*32 single-bit gathers.  The HD
  // network computes the anti-transpose under our "bit j of word i" =
  // element (i, j) convention, so conjugate it with a word-order reversal
  // on both sides: W[j] bit i == A[i] bit j (the ballot semantics).
  std::reverse(a, a + 32);
  u32 m = 0x0000ffffu;
  for (u32 j = 16; j != 0; j >>= 1, m ^= m << j) {
    for (u32 k = 0; k < 32; k = (k + j + 1) & ~j) {
      const u32 t = (a[k] ^ (a[k + j] >> j)) & m;
      a[k] ^= t;
      a[k + j] ^= t << j;
    }
  }
  std::reverse(a, a + 32);
}

namespace {

void check_tile_args(std::span<const u32> in, std::span<u32> out) {
  FZ_REQUIRE(in.size() % kTileWords == 0,
             "bitshuffle: size must be a multiple of one tile (1024 words)");
  FZ_REQUIRE(in.size() == out.size(), "bitshuffle: size mismatch");
  FZ_REQUIRE(in.data() != out.data(), "bitshuffle: must not alias");
}

}  // namespace

void bitshuffle_tiles(std::span<const u32> in, std::span<u32> out) {
  check_tile_args(in, out);
  const size_t tiles = in.size() / kTileWords;
  parallel_chunks(tiles, 2 * kTileBytes, [&](size_t tb, size_t te) {
    for (size_t t = tb; t < te; ++t) {
      const u32* tin = in.data() + t * kTileWords;
      u32* tout = out.data() + t * kTileWords;
      for (size_t u = 0; u < kUnitsPerTile; ++u) {
        u32 tmp[kUnitWords];
        std::memcpy(tmp, tin + u * kUnitWords, sizeof(tmp));
        transpose_bit_matrix_32(tmp);
        // tmp[j] bit i == input word i's bit j: tmp[j] is plane j of unit u.
        // Plane-major scatter within the tile.
        for (size_t j = 0; j < kUnitWords; ++j)
          tout[j * kUnitsPerTile + u] = tmp[j];
      }
    }
  });
}

void bitunshuffle_tiles(std::span<const u32> in, std::span<u32> out) {
  check_tile_args(in, out);
  const size_t tiles = in.size() / kTileWords;
  parallel_chunks(tiles, 2 * kTileBytes, [&](size_t tb, size_t te) {
    for (size_t t = tb; t < te; ++t) {
      const u32* tin = in.data() + t * kTileWords;
      u32* tout = out.data() + t * kTileWords;
      for (size_t u = 0; u < kUnitsPerTile; ++u) {
        u32 tmp[kUnitWords];
        // Gather unit u's planes back, then invert the bit transpose.
        for (size_t j = 0; j < kUnitWords; ++j)
          tmp[j] = tin[j * kUnitsPerTile + u];
        transpose_bit_matrix_32(tmp);
        std::memcpy(tout + u * kUnitWords, tmp, sizeof(tmp));
      }
    }
  });
}

}  // namespace fz
