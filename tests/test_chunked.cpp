#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/chunked.hpp"
#include "datasets/generators.hpp"
#include "metrics/metrics.hpp"

namespace fz {
namespace {

Field make_smooth(Dims dims, u64 seed) {
  Field f;
  f.dataset = "synthetic";
  f.name = "smooth";
  f.dims = dims;
  f.data.resize(dims.count());
  Rng rng(seed);
  const double fx = rng.uniform(0.02, 0.1);
  for (size_t z = 0; z < dims.z; ++z)
    for (size_t y = 0; y < dims.y; ++y)
      for (size_t x = 0; x < dims.x; ++x)
        f.data[dims.linear(x, y, z)] = static_cast<f32>(
            50.0 * std::sin(fx * static_cast<double>(x + 2 * y + 3 * z)));
  return f;
}

struct ChunkCase {
  Dims dims;
  size_t chunks;
};

class Chunked : public ::testing::TestWithParam<ChunkCase> {};

TEST_P(Chunked, RoundTripWithinBound) {
  const auto [dims, chunks] = GetParam();
  const Field f = make_smooth(dims, 3 + dims.count());
  ChunkedParams params;
  params.base.eb = ErrorBound::relative(1e-3);
  params.num_chunks = chunks;
  const ChunkedCompressed c = fz_compress_chunked(f.values(), f.dims, params);
  EXPECT_LE(c.num_chunks, chunks);
  EXPECT_GE(c.num_chunks, 1u);
  const FzDecompressed d = fz_decompress_chunked(c.bytes);
  EXPECT_EQ(d.dims, f.dims);
  EXPECT_TRUE(error_bounded(f.values(), d.data, c.stats.abs_eb));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Chunked,
    ::testing::Values(ChunkCase{Dims{10000}, 4}, ChunkCase{Dims{10000}, 1},
                      ChunkCase{Dims{100}, 16},  // more chunks than sensible
                      ChunkCase{Dims{64, 48}, 4}, ChunkCase{Dims{24, 24, 23}, 4},
                      ChunkCase{Dims{16, 16, 3}, 8}));  // chunks > z extent

TEST(Chunked, SingleChunkMatchesUnchunkedSemantics) {
  const Field f = make_smooth(Dims{4096}, 7);
  ChunkedParams params;
  params.base.eb = ErrorBound::relative(1e-3);
  params.num_chunks = 1;
  const ChunkedCompressed c = fz_compress_chunked(f.values(), f.dims, params);
  const FzDecompressed chunked = fz_decompress_chunked(c.bytes);

  FzParams plain = params.base;
  const FzCompressed p = fz_compress(f.values(), f.dims, plain);
  const FzDecompressed direct = fz_decompress(p.bytes);
  EXPECT_EQ(chunked.data, direct.data);
}

TEST(Chunked, ChunksShareTheGlobalAbsoluteBound) {
  // A field whose chunks have very different local ranges: the bound must
  // come from the global range, not per-chunk ranges.
  Field f;
  f.dims = Dims{8192};
  f.data.resize(f.dims.count());
  for (size_t i = 0; i < f.data.size(); ++i)
    f.data[i] = i < 4096 ? static_cast<f32>(i % 7) * 0.001f   // tiny range
                         : static_cast<f32>(i % 100);         // big range
  ChunkedParams params;
  params.base.eb = ErrorBound::relative(1e-3);
  params.num_chunks = 2;
  const ChunkedCompressed c = fz_compress_chunked(f.values(), f.dims, params);
  const double global_eb = 1e-3 * f.value_range();
  EXPECT_NEAR(c.stats.abs_eb, global_eb, global_eb * 1e-9);
  const FzDecompressed d = fz_decompress_chunked(c.bytes);
  EXPECT_TRUE(error_bounded(f.values(), d.data, global_eb));
}

TEST(Chunked, UnrepresentableWholeFieldBoundIsParamError) {
  // The whole-field relative resolve shares the codec's check: rel 1e-31
  // of a range near 6 is an absolute 6e-31, and 3 / (2 * 6e-31) is far
  // past the pre-quantizer's integer range.
  const Dims dims{64, 128};
  std::vector<f32> data(dims.count());
  for (size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<f32>(3.0 * std::sin(static_cast<double>(i) * 0.01));
  ChunkedParams params;
  params.base.eb = ErrorBound::relative(1e-31);
  EXPECT_THROW(fz_compress_chunked(data, dims, params), ParamError);
  // The same field at a representable bound still round-trips.
  params.base.eb = ErrorBound::relative(1e-4);
  const ChunkedCompressed c = fz_compress_chunked(data, dims, params);
  EXPECT_TRUE(error_bounded(data, fz_decompress_chunked(c.bytes).data,
                            c.stats.abs_eb));
}

TEST(Chunked, RandomAccessDecompressesOneChunk) {
  const Field f = make_smooth(Dims{32, 32, 20}, 9);
  ChunkedParams params;
  params.base.eb = ErrorBound::relative(1e-3);
  params.num_chunks = 5;
  const ChunkedCompressed c = fz_compress_chunked(f.values(), f.dims, params);
  ASSERT_EQ(fz_chunk_count(c.bytes), 5u);

  size_t offset = 0;
  const FzDecompressed chunk2 = fz_decompress_chunk(c.bytes, 2, &offset);
  EXPECT_EQ(chunk2.dims.x, 32u);
  EXPECT_EQ(chunk2.dims.y, 32u);
  EXPECT_EQ(offset, 32u * 32 * 8);  // chunks 0,1 hold 4 slabs each
  // The chunk's reconstruction matches the corresponding full-field region.
  const FzDecompressed full = fz_decompress_chunked(c.bytes);
  for (size_t i = 0; i < chunk2.data.size(); ++i)
    EXPECT_EQ(chunk2.data[i], full.data[offset + i]);
}

TEST(Chunked, PerChunkCostsExposeTheParallelAxis) {
  const Field f = make_smooth(Dims{64, 64, 16}, 11);
  ChunkedParams params;
  params.base.eb = ErrorBound::relative(1e-3);
  params.num_chunks = 4;
  const ChunkedCompressed c = fz_compress_chunked(f.values(), f.dims, params);
  ASSERT_EQ(c.chunk_costs.size(), 4u);
  for (const auto& costs : c.chunk_costs) EXPECT_EQ(costs.size(), 3u);
}

TEST(Chunked, SmallChunksCostRatioButStayBounded) {
  const Field f = make_smooth(Dims{40000}, 13);
  ChunkedParams one, many;
  one.base.eb = many.base.eb = ErrorBound::relative(1e-3);
  one.num_chunks = 1;
  many.num_chunks = 64;
  const auto c1 = fz_compress_chunked(f.values(), f.dims, one);
  const auto cn = fz_compress_chunked(f.values(), f.dims, many);
  // Lorenzo restarts + per-chunk headers/padding cost ratio...
  EXPECT_LE(cn.stats.ratio(), c1.stats.ratio() * 1.001);
  // ...but not catastrophically (each chunk still holds whole tiles).
  EXPECT_GT(cn.stats.ratio(), c1.stats.ratio() * 0.2);
}

TEST(Chunked, RejectsCorruptContainer) {
  const Field f = make_smooth(Dims{4096}, 15);
  ChunkedParams params;
  params.num_chunks = 2;
  const ChunkedCompressed c = fz_compress_chunked(f.values(), f.dims, params);

  std::vector<u8> bad = c.bytes;
  bad[0] ^= 0xff;
  EXPECT_THROW(fz_decompress_chunked(bad), FormatError);

  std::vector<u8> truncated(c.bytes.begin(), c.bytes.end() - 12);
  EXPECT_THROW(fz_decompress_chunked(truncated), FormatError);

  EXPECT_THROW(fz_decompress_chunk(c.bytes, 99), FormatError);
}

}  // namespace
}  // namespace fz
