// Schedule independence of the tile-parallel fused pipeline: the
// strip-parallel kernel must produce byte-identical output to the unfused
// scalar reference for EVERY worker count, dtype, SIMD tier and rank — the
// halo re-prequantization makes each strip's stencil inputs pointwise
// recomputations of the exact values its predecessor strip computed, so the
// partition never shows in the stream.  Also pins the plan's determinism,
// the per-strip telemetry spans, and Codec-level stream equality with the
// unfused reference graph across fused_workers settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/bitshuffle.hpp"
#include "core/codec.hpp"
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
  o.byte_flags.assign(words / kBlockWords, 0xcd);
  o.bit_flags.assign(div_ceil(o.byte_flags.size(), 8), 0xcd);
  const FusedParallelPlan plan = fused_parallel_plan(dims, workers);
  std::vector<i64> scratch(plan.scratch_elems, -1);
  o.res = fused_quant_shuffle_mark_parallel(data, dims, eb, o.shuffled,
                                            o.byte_flags, o.bit_flags, scratch,
                                            plan, level, sink);
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
      ASSERT_EQ(want.byte_flags, got.byte_flags) << where;
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

TEST(FusedParallel, CodecStreamsIdenticalAcrossWorkerSettings) {
  const Dims dims{64, 256};
  const auto data = field<f32>(dims, 91);

  FzParams params;
  params.eb = ErrorBound::absolute(1e-3);
  const std::vector<u8> want =
      reference_compress(std::span<const f32>{data}, dims, params);
  for (const size_t workers : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                               size_t{8}}) {
    params.fused_workers = workers;
    EXPECT_EQ(want, Codec(params).compress(data, dims).bytes)
        << "workers " << workers;
  }

  // Decompression's chunked scans must also be schedule-independent: the
  // same stream reconstructs to identical bytes for every worker count.
  FzParams dp;
  dp.eb = ErrorBound::absolute(1e-3);
  dp.fused_workers = 1;
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

  FzParams params;
  params.eb = ErrorBound::absolute(1e-4);
  const std::vector<u8> want =
      reference_compress(std::span<const f64>{data}, dims, params);
  for (const size_t workers : {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
    params.fused_workers = workers;
    EXPECT_EQ(want, Codec(params).compress(data, dims).bytes)
        << "workers " << workers;
  }
}

}  // namespace
}  // namespace fz
