// Schedule independence of the tile-parallel fused pipeline: the
// strip-parallel kernel must produce byte-identical output to the unfused
// scalar reference for EVERY worker count, dtype, SIMD tier and rank — the
// halo re-prequantization makes each strip's stencil inputs pointwise
// recomputations of the exact values its predecessor strip computed, so the
// partition never shows in the stream.  Also pins the plan's determinism,
// the per-strip telemetry spans, and Codec-level stream equality with the
// unfused reference graph across fused_workers settings, with each
// stream's flag, block and outlier sections checked against the
// scan-based compaction (encode_blocks), since both graphs share the
// tile-based EncodeStage.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/bitshuffle.hpp"
#include "core/codec.hpp"
#include "core/encoder.hpp"
#include "core/kernels_simd.hpp"
#include "reference_graph.hpp"
#include "telemetry/telemetry.hpp"

namespace fz {
namespace {

std::vector<SimdLevel> levels_under_test() {
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (simd_supported() >= SimdLevel::AVX2) levels.push_back(SimdLevel::AVX2);
  return levels;
}

// Multi-tile shapes for every rank, chosen so fused_parallel_plan actually
// yields several strips (the clamp caps strips at count / (4 * halo
// reach), which rules out tiny 3-D fields).  2049 exercises the padded
// final tile.
const Dims kDims[] = {Dims{5000},       Dims{2049},       Dims{64, 256},
                      Dims{96, 40},     Dims{24, 20, 20}, Dims{32, 24, 24}};

template <typename T>
std::vector<T> field(Dims dims, u64 seed) {
  Rng rng(seed);
  const size_t n = dims.count();
  std::vector<T> v(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % std::max<size_t>(dims.x, 1));
    v[i] = static_cast<T>(40.0 * std::sin(x * 0.11) +
                          10.0 * std::cos(static_cast<double>(i) * 0.003) +
                          rng.uniform(-0.5, 0.5));
  }
  return v;
}

template <typename T>
FusedOut run_parallel(std::span<const T> data, Dims dims, double eb,
                      size_t workers, SimdLevel level,
                      telemetry::Sink* sink = nullptr) {
  const size_t words = round_up(data.size(), kCodesPerTile) / 2;
  FusedOut o;
  o.shuffled.assign(words, 0xdeadbeefu);
  o.bit_flags.assign(div_ceil(words / kBlockWords, 8), 0xcd);
  const FusedParallelPlan plan = fused_parallel_plan(dims, workers);
  std::vector<i64> scratch(plan.scratch_elems, -1);
  o.res = fused_quant_shuffle_mark_parallel(data, dims, eb, o.shuffled,
                                            o.bit_flags, scratch, plan, level,
                                            sink);
  return o;
}

template <typename T>
void check_schedule_independent(Dims dims, double eb, u64 seed) {
  const auto data = field<T>(dims, seed);
  const std::span<const T> span{data};
  const FusedOut want = reference_fused(span, dims, eb);
  for (const SimdLevel level : levels_under_test()) {
    for (const size_t workers : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      const FusedOut got = run_parallel(span, dims, eb, workers, level);
      const std::string where = std::string(simd_level_name(level)) + " dims " +
                                std::to_string(dims.x) + "x" +
                                std::to_string(dims.y) + "x" +
                                std::to_string(dims.z) + " workers " +
                                std::to_string(workers);
      ASSERT_EQ(want.shuffled, got.shuffled) << where;
      ASSERT_EQ(want.bit_flags, got.bit_flags) << where;
      EXPECT_EQ(want.res.anchor, got.res.anchor) << where;
      EXPECT_EQ(want.res.saturated, got.res.saturated) << where;
    }
  }
}

TEST(FusedParallel, ByteIdenticalToReferenceF32) {
  for (const Dims dims : kDims)
    check_schedule_independent<f32>(dims, 1e-3, 101 + dims.count());
}

TEST(FusedParallel, ByteIdenticalToReferenceF64) {
  for (const Dims dims : kDims)
    check_schedule_independent<f64>(dims, 1e-3, 301 + dims.count());
}

TEST(FusedParallel, ByteIdenticalWithSaturationAndCoarseBound) {
  // A coarse bound drives most codes to zero (exercises zero blocks); a
  // needle of huge values exercises the saturation counter across strips.
  const Dims dims{64, 256};
  auto data = field<f32>(dims, 77);
  data[5] = 4.0e9f;
  data[9000] = -3.9e9f;
  data[dims.count() - 1] = 2.5e9f;
  const std::span<const f32> span{data};
  const FusedOut want = reference_fused(span, dims, 20.0);
  EXPECT_GT(want.res.saturated, 0u);
  for (const SimdLevel level : levels_under_test()) {
    for (const size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
      const FusedOut got = run_parallel(span, dims, 20.0, workers, level);
      ASSERT_EQ(want.shuffled, got.shuffled) << simd_level_name(level);
      EXPECT_EQ(want.res.saturated, got.res.saturated);
      EXPECT_EQ(want.res.anchor, got.res.anchor);
    }
  }
}

TEST(FusedParallel, PlanIsDeterministicAndClamped) {
  for (const Dims dims : kDims) {
    for (const size_t workers : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                                 size_t{8}, size_t{64}}) {
      const FusedParallelPlan a = fused_parallel_plan(dims, workers);
      const FusedParallelPlan b = fused_parallel_plan(dims, workers);
      EXPECT_EQ(a.strips, b.strips);
      EXPECT_EQ(a.scratch_elems, b.scratch_elems);
      EXPECT_EQ(a.halo_elems, b.halo_elems);

      EXPECT_GE(a.strips, 1u);
      EXPECT_LE(a.strips, div_ceil(dims.count(), kCodesPerTile));
      if (workers == 1) {
        EXPECT_EQ(a.strips, 1u);
        EXPECT_EQ(a.halo_elems, 0u);
      }
      if (workers == 0) {  // the floor splits the tiles' bytes
        const size_t tiles = div_ceil(dims.count(), kCodesPerTile);
        const size_t tile_bytes = kCodesPerTile * (sizeof(f32) + sizeof(u16));
        EXPECT_LE(a.strips, parts_for(tiles, tile_bytes));
      }
      if (a.strips == 1) {
        EXPECT_EQ(a.halo_elems, 0u);
      }
      EXPECT_GT(a.scratch_elems, 0u);
      // The clamp keeps the halo recompute a small fraction of the work.
      EXPECT_LE(a.halo_elems * 4, dims.count());
    }
  }
  // Tiny inputs never split.
  EXPECT_EQ(fused_parallel_plan(Dims{100}, 8).strips, 1u);
  EXPECT_EQ(fused_parallel_plan(Dims{10, 10, 3}, 8).strips, 1u);
}

TEST(FusedParallel, EmitsOneTelemetrySpanPerStrip) {
  const Dims dims{64, 256};
  const auto data = field<f32>(dims, 55);
  const size_t workers = 3;
  const FusedParallelPlan plan = fused_parallel_plan(dims, workers);
  ASSERT_GT(plan.strips, 1u);

  telemetry::Sink sink;
  run_parallel(std::span<const f32>{data}, dims, 1e-3, workers,
               SimdLevel::Scalar, &sink);

  size_t spans = 0;
  std::vector<bool> strip_seen(plan.strips, false);
  u64 halo_total = 0, bytes_total = 0;
  for (const telemetry::TraceEvent& ev : sink.snapshot()) {
    if (std::string_view{ev.name} != "fused-strip") continue;
    ++spans;
    double strip = -1, halo = -1, bytes = -1;
    for (u32 i = 0; i < ev.n_args; ++i) {
      const std::string_view key{ev.args[i].key};
      if (key == "strip") strip = ev.args[i].value;
      if (key == "halo_elems") halo = ev.args[i].value;
      if (key == "bytes") bytes = ev.args[i].value;
    }
    ASSERT_GE(strip, 0.0) << "span missing strip arg";
    ASSERT_GE(halo, 0.0) << "span missing halo_elems arg";
    ASSERT_GT(bytes, 0.0) << "span missing bytes arg";
    strip_seen.at(static_cast<size_t>(strip)) = true;
    halo_total += static_cast<u64>(halo);
    bytes_total += static_cast<u64>(bytes);
  }
  EXPECT_EQ(spans, plan.strips);
  for (size_t s = 0; s < plan.strips; ++s)
    EXPECT_TRUE(strip_seen[s]) << "no span for strip " << s;
  // Every strip after the first recomputes at least its predecessor row;
  // plan.halo_elems is the worst-case bound the clamp uses.
  EXPECT_GE(halo_total, (plan.strips - 1) * dims.x);
  EXPECT_LE(halo_total, plan.halo_elems);
  EXPECT_GE(bytes_total, dims.count() * sizeof(f32));
}

/// A stream's sections, checked against oracles independent of the
/// EncodeStage both graphs share: the flags and the block section against
/// the scan-based compaction (encode_blocks) of the unfused reference's
/// shuffled words, and a V1 stream's outlier section, right after the
/// blocks, against quant_encode_v1's outliers.
template <typename T>
void expect_sections_match_oracle(const std::vector<u8>& stream,
                                  std::span<const T> data, Dims dims,
                                  const std::string& where) {
  const StreamInfo info = inspect(stream);
  std::vector<u32> shuffled;
  std::vector<Outlier> outliers;
  if (info.quant == QuantVersion::V2Optimized) {
    shuffled = reference_fused(data, dims, info.abs_eb).shuffled;
  } else {
    std::vector<i64> pq(data.size());
    prequantize(data, info.abs_eb, pq);
    lorenzo_forward(pq, dims, pq);
    pq[0] = 0;
    std::vector<u32> words(round_up(data.size(), kCodesPerTile) / 2, 0u);
    quant_encode_v1(
        pq, kV1Radius,
        std::span<u16>{reinterpret_cast<u16*>(words.data()), pq.size()},
        outliers);
    shuffled.resize(words.size());
    bitshuffle_tiles(words, shuffled);
  }
  const EncodeResult want = encode_blocks(shuffled);
  const u8* flags = stream.data() + info.header_bytes;
  const u8* blocks = flags + info.bit_flag_bytes;
  const u8* rec = blocks + info.block_bytes;
  ASSERT_EQ(info.bit_flag_bytes, want.bit_flags.size()) << where;
  EXPECT_TRUE(std::equal(want.bit_flags.begin(), want.bit_flags.end(), flags))
      << where;
  ASSERT_EQ(info.block_bytes, want.blocks.size() * sizeof(u32)) << where;
  const u8* want_blocks = reinterpret_cast<const u8*>(want.blocks.data());
  EXPECT_TRUE(std::equal(blocks, blocks + info.block_bytes, want_blocks))
      << where;
  ASSERT_EQ(info.outlier_bytes, outliers.size() * 8) << where;
  for (const Outlier& o : outliers) {
    EXPECT_EQ(load_le<u32>(rec), o.index) << where;
    EXPECT_EQ(load_le<i32>(rec + 4), o.delta) << where;
    rec += 8;
  }
  EXPECT_EQ(rec, stream.data() + stream.size()) << where;
}

/// Streams identical to the unfused reference graph's for every worker
/// count, with sections matching the oracle.  Returns the stream.
template <typename T>
std::vector<u8> check_codec_streams(const std::vector<T>& data, Dims dims, double eb,
                         QuantVersion quant = QuantVersion::V2Optimized) {
  FzParams params;
  params.eb = ErrorBound::absolute(eb);
  params.quant = quant;
  const std::span<const T> span{data};
  const std::vector<u8> want = reference_compress(span, dims, params);
  const std::string shape = std::to_string(dims.x) + "x" +
                            std::to_string(dims.y) + "x" +
                            std::to_string(dims.z);
  expect_sections_match_oracle(want, span, dims, shape);
  for (const size_t workers : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                               size_t{8}}) {
    params.fused_workers = workers;
    EXPECT_EQ(want, Codec(params).compress(span, dims).bytes)
        << shape << " workers " << workers;
  }
  return want;
}

/// The stream's blocks, read and written once each by the tile compaction,
/// move at least two floors, so the compaction splits, and the workers-0
/// plan has several strips, whenever the budget allows more than one
/// participant.
void expect_compaction_and_strips_split(const std::vector<u8>& stream,
                                        Dims dims, size_t value_bytes) {
  const bool forks = max_threads() > 1;
  EXPECT_GE(inspect(stream).block_bytes, kMinPartBytes);
  EXPECT_EQ(fused_parallel_plan(dims, 0, value_bytes).strips > 1, forks);
}

TEST(FusedParallel, CodecStreamsIdenticalAcrossWorkerSettings) {
  const Dims dims{64, 256};
  const auto data = field<f32>(dims, 91);
  check_codec_streams(data, dims, 1e-3);

  // Constant: no nonzero block.  Uniform noise far above the bound: every
  // block nonzero.  Counts ending mid-tile, in 1-D and 2-D.  Enough tiles
  // and nonzero blocks that the compaction and the strips split whenever
  // the budget allows.
  const std::vector<f32> flat(dims.count(), 7.25f);
  EXPECT_EQ(inspect(check_codec_streams(flat, dims, 1e-3)).nonzero_blocks, 0u);
  Rng rng(5);
  std::vector<f32> noise(dims.count());
  for (f32& x : noise) x = static_cast<f32>(rng.uniform(-30, 30));
  const StreamInfo noisy = inspect(check_codec_streams(noise, dims, 1e-3));
  EXPECT_EQ(noisy.nonzero_blocks, noisy.total_blocks);
  for (const Dims mid : {Dims{5000}, Dims{97, 33}})
    check_codec_streams(field<f32>(mid, 17 + mid.count()), mid, 1e-3);
  const Dims big{512, 600};  // 150 tiles
  expect_compaction_and_strips_split(
      check_codec_streams(field<f32>(big, 17 + big.count()), big, 1e-3), big,
      sizeof(f32));

  // V1 with outliers: the outlier section follows the blocks directly.
  std::vector<f32> spiky = data;
  for (size_t i = 0; i < spiky.size(); i += 97) spiky[i] += 50.0f;
  EXPECT_GT(inspect(check_codec_streams(spiky, dims, 1e-3,
                                        QuantVersion::V1Original))
                .outlier_bytes,
            0u);

  // Decompression's chunked scans must also be schedule-independent: the
  // same stream reconstructs to identical bytes for every worker count.
  FzParams dp;
  dp.eb = ErrorBound::absolute(1e-3);
  dp.fused_workers = 1;
  const std::vector<u8> want =
      reference_compress(std::span<const f32>{data}, dims, dp);
  Codec ref(dp);
  const std::vector<f32> base = ref.decompress(want).data;
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{3}, size_t{8}}) {
    FzParams p;
    p.eb = ErrorBound::absolute(1e-3);
    p.fused_workers = workers;
    Codec codec(p);
    const FzDecompressed out = codec.decompress(want);
    ASSERT_EQ(base.size(), out.data.size());
    for (size_t i = 0; i < base.size(); ++i)
      ASSERT_EQ(std::bit_cast<u32>(base[i]), std::bit_cast<u32>(out.data[i]))
          << "workers " << workers << " elem " << i;
  }
  for (size_t i = 0; i < base.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(base[i]) - data[i]), 1e-3 + 1e-7);
}

TEST(FusedParallel, F64CodecStreamsIdenticalAcrossWorkerSettings) {
  const Dims dims{24, 20, 20};
  const auto data = field<f64>(dims, 13);
  check_codec_streams(data, dims, 1e-4);

  const std::vector<f64> flat(dims.count(), -3.5);
  EXPECT_EQ(inspect(check_codec_streams(flat, dims, 1e-4)).nonzero_blocks, 0u);
  Rng rng(9);
  std::vector<f64> noise(Dims{64, 64, 4}.count());
  for (f64& x : noise) x = rng.uniform(-3, 3);
  const StreamInfo noisy =
      inspect(check_codec_streams(noise, Dims{64, 64, 4}, 1e-4));
  EXPECT_EQ(noisy.nonzero_blocks, noisy.total_blocks);
  for (const Dims mid : {Dims{2049}, Dims{33, 17, 9}})
    check_codec_streams(field<f64>(mid, 23 + mid.count()), mid, 1e-4);
  const Dims big{80, 64, 60};  // 150 tiles
  expect_compaction_and_strips_split(
      check_codec_streams(field<f64>(big, 23 + big.count()), big, 1e-4), big,
      sizeof(f64));

  std::vector<f64> spiky = data;
  for (size_t i = 0; i < spiky.size(); i += 53) spiky[i] -= 20.0;
  EXPECT_GT(inspect(check_codec_streams(spiky, dims, 1e-4,
                                        QuantVersion::V1Original))
                .outlier_bytes,
            0u);
}

}  // namespace
}  // namespace fz
