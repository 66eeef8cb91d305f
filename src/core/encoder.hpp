// The fast sparsification-style lossless encoder (paper §3.4).
//
// Phase 1 partitions the bitshuffled words into 16-byte blocks and records
// one flag per block ("is any word nonzero?").  The flags live twice in the
// pipeline: as a byte-flag array (input of the offset prefix sum) and packed
// into a bit-flag array (part of the compressed output, 1 bit per block —
// hence the ratio ceiling of 128x over the code stream that the paper
// contrasts with Huffman's 32x).  Phase 2 exclusive-prefix-sums the byte
// flags into block offsets and compacts the nonzero blocks.
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
/// refilled.  The stage graph uses this with pooled buffers.
void mark_blocks(std::span<const u32> words, std::span<u8> byte_flags,
                 std::span<u8> bit_flags);

/// Phase 2: offsets via exclusive prefix sum + block compaction.
/// Returns the modeled device cost of the scan (the encode kernel cost is
/// assembled by core/costs.cpp).
cudasim::CostSheet compact_blocks(std::span<const u32> words,
                                  std::span<const u8> byte_flags,
                                  std::vector<u32>& blocks_out);

/// Allocation-free phase 2.  `flags32` and `offsets` are scratch of
/// byte_flags.size() elements each, `scan_scratch` as required by
/// scan_exclusive_parallel, and `blocks_out` must hold the worst case
/// (words.size() elements).  Returns the number of nonzero blocks; the
/// compacted payload is blocks_out[0 .. nonzero * kBlockWords).
size_t compact_blocks(std::span<const u32> words,
                      std::span<const u8> byte_flags, std::span<u32> flags32,
                      std::span<u32> offsets, std::span<u32> scan_scratch,
                      std::span<u32> blocks_out,
                      cudasim::CostSheet* scan_cost = nullptr);

/// Convenience: run both phases.
EncodeResult encode_blocks(std::span<const u32> words);

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
/// tile_bases[t] is the index of tile t's first compacted block, the
/// exclusive prefix sum of the popcounts of each tile's kBlocksPerTile / 8
/// flag bytes.  `bit_flags` must hold exactly that many bytes per tile.
/// Throws FormatError unless the flags count exactly `block_bytes / 16`
/// nonzero blocks, so every block a tile addresses lies in the section.
void decode_tile_bases(std::span<const u8> bit_flags, size_t block_bytes,
                       std::span<u64> tile_bases);

}  // namespace fz
