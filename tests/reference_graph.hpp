// The references tests compare the production paths against: the unfused
// graphs (core/stages.hpp) run directly over a PipelineContext, because
// fz::Codec runs V2 through the fused graphs; the same stages rebuilt from
// the scalar building blocks; and the tile-parallel kernel at one worker.
#pragma once

#include <span>
#include <vector>

#include "common/bits.hpp"
#include "core/bitshuffle.hpp"
#include "core/encoder.hpp"
#include "core/kernels_simd.hpp"
#include "core/lorenzo.hpp"
#include "core/quantizer.hpp"
#include "core/stages.hpp"

namespace fz {

template <typename T>
std::vector<u8> reference_compress(std::span<const T> data, Dims dims,
                                   const FzParams& params) {
  BufferPool pool;
  PipelineContext ctx;
  std::vector<u8> out;
  ctx.begin_compress(&pool, params, dims, data.size(), sizeof(T), data.data(),
                     &out);
  run_stages(make_compress_stages(), ctx);
  return out;
}

template <typename T>
std::vector<T> reference_decompress(ByteSpan stream, size_t count) {
  BufferPool pool;
  PipelineContext ctx;
  std::vector<T> out(count);
  ctx.begin_decompress(&pool, FzParams{}, stream, count, sizeof(T),
                       out.data());
  run_stages(make_decompress_stages(), ctx);
  return out;
}

struct FusedOut {
  std::vector<u32> shuffled;
  std::vector<u8> byte_flags;
  std::vector<u8> bit_flags;
  FusedTileResult res;
};

/// The unfused scalar reference (DualQuantStage + BitshuffleMarkStage
/// from the scalar building blocks), independent of every fused kernel.
template <typename T>
FusedOut reference_fused(std::span<const T> data, Dims dims, double eb) {
  std::vector<i64> pq(data.size());
  prequantize(data, eb, pq);
  lorenzo_forward(pq, dims, pq);
  FusedOut o;
  o.res.anchor = pq[0];
  pq[0] = 0;
  std::vector<u32> words(round_up(data.size(), kCodesPerTile) / 2, 0u);
  o.res.saturated = quant_encode_v2(
      pq, std::span<u16>{reinterpret_cast<u16*>(words.data()), pq.size()});
  o.shuffled.resize(words.size());
  bitshuffle_tiles(words, o.shuffled);
  o.byte_flags.resize(words.size() / kBlockWords);
  o.bit_flags.resize(div_ceil(o.byte_flags.size(), 8));
  mark_blocks(o.shuffled, std::span<u8>{o.byte_flags},
              std::span<u8>{o.bit_flags});
  return o;
}

/// The tile-parallel fused kernel at one worker on the scalar tier: the
/// host side the device mirrors are compared against, itself pinned to the
/// unfused scalar reference by tests/test_simd.cpp.
inline FusedTileResult fused_one_worker(FloatSpan data, Dims dims,
                                        double abs_eb, std::span<u32> shuffled,
                                        std::span<u8> byte_flags,
                                        std::span<u8> bit_flags) {
  const FusedParallelPlan plan = fused_parallel_plan(dims, 1);
  std::vector<i64> scratch(plan.scratch_elems);
  return fused_quant_shuffle_mark_parallel(data, dims, abs_eb, shuffled,
                                           byte_flags, bit_flags, scratch, plan,
                                           SimdLevel::Scalar);
}

}  // namespace fz
