#include "core/encoder.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/bitshuffle.hpp"
#include "substrate/scan.hpp"

namespace fz {

namespace {

constexpr size_t kBlockBytes = kBlockWords * sizeof(u32);
constexpr size_t kFlagBytesPerTile = kBlocksPerTile / 8;
/// What compacting or scattering one block moves: its flag and offset
/// read (at most 4 bytes each), its words read and written.
constexpr size_t kBlockMoveBytes = 2 * sizeof(u32) + 2 * kBlockBytes;

/// Nonzero blocks of one tile: the popcount of its flag bytes.
u64 tile_nonzero_blocks(const u8* flags) {
  u64 n = 0;
  for (size_t k = 0; k < kFlagBytesPerTile; k += sizeof(u64))
    n += static_cast<u64>(popcount_u64(load_le<u64>(flags + k)));
  return n;
}

}  // namespace

void mark_blocks(std::span<const u32> words, std::span<u8> byte_flags,
                 std::span<u8> bit_flags) {
  FZ_REQUIRE(words.size() % kBlockWords == 0,
             "encoder: word count must be a multiple of the block size");
  const size_t nblocks = words.size() / kBlockWords;
  FZ_REQUIRE(byte_flags.size() == nblocks &&
                 bit_flags.size() == div_ceil(nblocks, 8),
             "encoder: flag array size mismatch");
  std::fill(byte_flags.begin(), byte_flags.end(), u8{0});
  std::fill(bit_flags.begin(), bit_flags.end(), u8{0});
  // An item is one flag byte's 8 blocks, so each part writes disjoint
  // bit_flags bytes and the |= below is race-free.
  constexpr size_t kItemBytes = 8 * (kBlockBytes + 1) + 1;
  parallel_chunks(bit_flags.size(), kItemBytes, [&](size_t fb, size_t fe) {
    for (size_t blk = fb * 8; blk < std::min(nblocks, fe * 8); ++blk) {
      const u32* w = words.data() + blk * kBlockWords;
      const u32 nz = w[0] | w[1] | w[2] | w[3];
      if (nz != 0) {
        byte_flags[blk] = 1;
        bit_flags[blk / 8] |= static_cast<u8>(1u << (blk % 8));
      }
    }
  });
}

void mark_blocks(std::span<const u32> words, std::vector<u8>& byte_flags,
                 std::vector<u8>& bit_flags) {
  FZ_REQUIRE(words.size() % kBlockWords == 0,
             "encoder: word count must be a multiple of the block size");
  const size_t nblocks = words.size() / kBlockWords;
  byte_flags.resize(nblocks);
  bit_flags.resize(div_ceil(nblocks, 8));
  mark_blocks(words, std::span<u8>{byte_flags}, std::span<u8>{bit_flags});
}

cudasim::CostSheet compact_blocks(std::span<const u32> words,
                                  std::span<const u8> byte_flags,
                                  std::vector<u32>& blocks_out) {
  const size_t nblocks = byte_flags.size();
  FZ_REQUIRE(words.size() == nblocks * kBlockWords, "encoder: size mismatch");
  // Exclusive prefix sum of the byte flags gives each block's output slot
  // (the paper's phase-2 CUB ExclusiveSum).
  std::vector<u32> flags32(byte_flags.begin(), byte_flags.end());
  std::vector<u32> offsets(nblocks);
  std::vector<u32> scan_scratch(2 * scan_chunk_count(nblocks), 0);
  const cudasim::CostSheet cost =
      scan_exclusive_device_model(flags32, offsets, scan_scratch, 2048);
  const size_t nonzero = nblocks == 0 ? 0 : offsets.back() + flags32.back();
  blocks_out.resize(nonzero * kBlockWords);
  parallel_chunks(nblocks, kBlockMoveBytes, [&](size_t b, size_t e) {
    for (size_t blk = b; blk < e; ++blk) {
      if (byte_flags[blk] == 0) continue;
      const u32 slot = offsets[blk];
      for (size_t k = 0; k < kBlockWords; ++k)
        blocks_out[slot * kBlockWords + k] = words[blk * kBlockWords + k];
    }
  });
  return cost;
}

size_t tile_block_bases(std::span<const u8> bit_flags,
                        std::span<u64> tile_bases) {
  FZ_REQUIRE(bit_flags.size() == tile_bases.size() * kFlagBytesPerTile,
             "encoder: flag array size mismatch");
  u64 base = 0;
  for (size_t t = 0; t < tile_bases.size(); ++t) {
    tile_bases[t] = base;
    base += tile_nonzero_blocks(bit_flags.data() + t * kFlagBytesPerTile);
  }
  return static_cast<size_t>(base);
}

void compact_tiles(std::span<const u32> words, std::span<const u8> bit_flags,
                   std::span<const u64> tile_bases, MutByteSpan blocks_out) {
  const size_t tiles = tile_bases.size();
  FZ_REQUIRE(words.size() == tiles * kTileWords &&
                 bit_flags.size() == tiles * kFlagBytesPerTile,
             "encoder: size mismatch");
  const u64 nonzero =
      tiles == 0 ? 0
                 : tile_bases.back() +
                       tile_nonzero_blocks(bit_flags.data() +
                                           (tiles - 1) * kFlagBytesPerTile);
  FZ_REQUIRE(blocks_out.size() == nonzero * kBlockBytes,
             "encoder: block output size mismatch");
  // A tile reads its flags and moves its share of the nonzero blocks.
  const size_t tile_bytes =
      kFlagBytesPerTile + 2 * blocks_out.size() / std::max<size_t>(tiles, 1);
  parallel_chunks(tiles, tile_bytes, [&](size_t b, size_t e) {
    for (size_t t = b; t < e; ++t) {
      const u32* tile = words.data() + t * kTileWords;
      const u8* flags = bit_flags.data() + t * kFlagBytesPerTile;
      u8* dst = blocks_out.data() + tile_bases[t] * kBlockBytes;
      for (size_t w = 0; w < kFlagBytesPerTile; w += sizeof(u64)) {
        for (u64 bits = load_le<u64>(flags + w); bits != 0; bits &= bits - 1) {
          const size_t blk = w * 8 + static_cast<size_t>(std::countr_zero(bits));
          std::memcpy(dst, tile + blk * kBlockWords, kBlockBytes);
          dst += kBlockBytes;
        }
      }
    }
  });
}

EncodeResult encode_blocks(std::span<const u32> words) {
  EncodeResult r;
  mark_blocks(words, r.byte_flags, r.bit_flags);
  compact_blocks(words, r.byte_flags, r.blocks);
  r.total_blocks = r.byte_flags.size();
  r.nonzero_blocks = r.blocks.size() / kBlockWords;
  return r;
}

size_t decode_block_offsets(std::span<const u8> bit_flags,
                            std::span<const u32> blocks,
                            std::span<u32> flags32, std::span<u32> offsets,
                            std::span<u32> scan_scratch) {
  const size_t nblocks = flags32.size();
  FZ_FORMAT_REQUIRE(bit_flags.size() >= div_ceil(nblocks, 8),
                    "decoder: flag array too small");
  FZ_REQUIRE(offsets.size() == nblocks, "decoder: scratch size mismatch");
  // Offsets are recovered with the same prefix sum the encoder used.
  parallel_chunks(nblocks, sizeof(u32) + 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i)
      flags32[i] = (bit_flags[i / 8] >> (i % 8)) & 1u;
  });
  scan_exclusive_parallel(flags32, offsets, scan_scratch);
  const size_t nonzero = nblocks == 0 ? 0 : offsets.back() + flags32.back();
  FZ_FORMAT_REQUIRE(blocks.size() == nonzero * kBlockWords,
                    "decoder: block payload size mismatch");
  return nonzero;
}

void decode_tile_bases(std::span<const u8> bit_flags, size_t block_bytes,
                       std::span<u64> tile_bases) {
  FZ_FORMAT_REQUIRE(bit_flags.size() == tile_bases.size() * kFlagBytesPerTile,
                    "decoder: flag array size mismatch");
  const size_t nonzero = tile_block_bases(bit_flags, tile_bases);
  FZ_FORMAT_REQUIRE(block_bytes == nonzero * kBlockBytes,
                    "decoder: block payload size mismatch");
}

void decode_blocks(std::span<const u8> bit_flags, std::span<const u32> blocks,
                   std::span<u32> out, std::span<u32> flags32,
                   std::span<u32> offsets, std::span<u32> scan_scratch) {
  FZ_REQUIRE(out.size() % kBlockWords == 0, "decoder: bad output size");
  const size_t nblocks = out.size() / kBlockWords;
  FZ_REQUIRE(flags32.size() == nblocks, "decoder: scratch size mismatch");
  decode_block_offsets(bit_flags, blocks, flags32, offsets, scan_scratch);
  parallel_chunks(nblocks, kBlockMoveBytes, [&](size_t b, size_t e) {
    for (size_t blk = b; blk < e; ++blk) {
      u32* dst = out.data() + blk * kBlockWords;
      if (flags32[blk] == 0) {
        for (size_t k = 0; k < kBlockWords; ++k) dst[k] = 0;
        continue;
      }
      const u32 slot = offsets[blk];
      for (size_t k = 0; k < kBlockWords; ++k)
        dst[k] = blocks[slot * kBlockWords + k];
    }
  });
}

void decode_blocks(std::span<const u8> bit_flags, std::span<const u32> blocks,
                   std::span<u32> out) {
  const size_t nblocks = out.size() / kBlockWords;
  std::vector<u32> flags32(nblocks), offsets(nblocks);
  std::vector<u32> scan_scratch(2 * scan_chunk_count(nblocks), 0);
  decode_blocks(bit_flags, blocks, out, flags32, offsets, scan_scratch);
}

}  // namespace fz
