// The fast sparsification-style lossless encoder (paper §3.4).
//
// Phase 1 partitions the bitshuffled words into 16-byte blocks and records
// one flag per block ("is any word nonzero?").  The flags live twice in the
// pipeline: as a byte-flag array (input of the offset prefix sum) and packed
// into a bit-flag array (part of the compressed output, 1 bit per block —
// hence the ratio ceiling of 128x over the code stream that the paper
// contrasts with Huffman's 32x).  Phase 2 gives every nonzero block its
// output slot and compacts the nonzero blocks there.
//
// The paper's phase 2 is one exclusive prefix sum over the byte flags
// (compact_blocks, the scan the device cost model and kernels_sim price).
// The host codec finds the same slots block-locally, as cuSZ+ does: one
// base per 4 KiB tile from the popcounts of its packed bit flags
// (tile_block_bases), then each tile copies its blocks from its base
// (compact_tiles), tile-parallel and straight into the output stream.  The
// fused decode finds the blocks by the same bases (decode_tile_bases).
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "cudasim/cost_sheet.hpp"

namespace fz {

struct EncodeResult {
  std::vector<u8> bit_flags;   ///< 1 bit per block, LSB-first within bytes
  std::vector<u8> byte_flags;  ///< 1 byte per block (phase-2 scan input)
  std::vector<u32> blocks;     ///< compacted nonzero blocks, 4 words each
  size_t total_blocks = 0;
  size_t nonzero_blocks = 0;

  size_t payload_bytes() const {
    return bit_flags.size() + blocks.size() * sizeof(u32);
  }
};

/// Phase 1: flag computation.  `words.size()` must be a multiple of 4.
void mark_blocks(std::span<const u32> words, std::vector<u8>& byte_flags,
                 std::vector<u8>& bit_flags);

/// Allocation-free phase 1: byte_flags.size() == words.size() / 4 and
/// bit_flags.size() == ceil(byte_flags.size() / 8); both are cleared and
/// refilled.  The scalar oracle mark_blocks_simd is tested against.
void mark_blocks(std::span<const u32> words, std::span<u8> byte_flags,
                 std::span<u8> bit_flags);

/// Phase 2 as the paper runs it: offsets via exclusive prefix sum of the
/// byte flags, then block compaction into `blocks_out` (resized to the
/// nonzero blocks).  Returns the modeled device cost of the scan (the
/// encode kernel cost is assembled by core/costs.cpp).
cudasim::CostSheet compact_blocks(std::span<const u32> words,
                                  std::span<const u8> byte_flags,
                                  std::vector<u32>& blocks_out);

/// Convenience: run both phases.
EncodeResult encode_blocks(std::span<const u32> words);

/// Per-tile block bases: tile_bases[t] is the index of tile t's first
/// nonzero block, the exclusive prefix sum of the popcounts of each tile's
/// kBlocksPerTile / 8 flag bytes.  `bit_flags` must hold exactly that many
/// bytes per tile.  Returns the nonzero block count.
size_t tile_block_bases(std::span<const u8> bit_flags,
                        std::span<u64> tile_bases);

/// Phase 2 by tile bases: copy every nonzero block of `words`
/// (tile_bases.size() whole tiles) to its slot in `blocks_out`, 16 bytes
/// per nonzero block at any alignment — the block section of a stream.
/// Tile-parallel on every thread; a field of few tiles is copied on the
/// calling thread.  Byte-identical to compact_blocks.
void compact_tiles(std::span<const u32> words, std::span<const u8> bit_flags,
                   std::span<const u64> tile_bases, MutByteSpan blocks_out);

/// Inverse: scatter nonzero blocks back into `out` (pre-sized, multiple of
/// 4 words); zero blocks are zero-filled.
void decode_blocks(std::span<const u8> bit_flags, std::span<const u32> blocks,
                   std::span<u32> out);

/// Allocation-free inverse: `flags32`/`offsets` are scratch of
/// out.size() / 4 elements each, `scan_scratch` as required by
/// scan_exclusive_parallel.
void decode_blocks(std::span<const u8> bit_flags, std::span<const u32> blocks,
                   std::span<u32> out, std::span<u32> flags32,
                   std::span<u32> offsets, std::span<u32> scan_scratch);

/// The offset-recovery half of decode_blocks: expand the packed bit flags
/// into `flags32` (flags32.size() == total block count) and exclusive-scan
/// them into `offsets`, validating the payload size.  Returns the nonzero
/// block count.
size_t decode_block_offsets(std::span<const u8> bit_flags,
                            std::span<const u32> blocks,
                            std::span<u32> flags32, std::span<u32> offsets,
                            std::span<u32> scan_scratch);

/// Per-tile offset recovery for the fused decode (core/kernels_decode.hpp):
/// tile_block_bases over a stream's flag section.  Throws FormatError
/// unless the flags hold whole tiles and count exactly `block_bytes / 16`
/// nonzero blocks, so every block a tile addresses lies in the section.
void decode_tile_bases(std::span<const u8> bit_flags, size_t block_bytes,
                       std::span<u64> tile_bases);

}  // namespace fz
