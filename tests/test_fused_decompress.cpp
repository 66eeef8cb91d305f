// Schedule independence of the fused single-pass decompress: the strip
// pass (scatter + inverse bitshuffle + sign-magnitude decode + strip-local
// inverse Lorenzo per tile) plus the strip carries added at reconstruct
// must restore byte-identical fields to the classic staged reference graph
// for EVERY worker count, SIMD tier, dtype and rank, including strips that
// cut tiles and planes shorter or rows longer than a tile — and the
// reference graph's 3-D z-carry chunked scans must be exact for every
// chunk split (i64 adds are associative mod 2^64, so the partition never
// shows).  Corrupt flag sections and truncated block sections must fail
// before any strip reads a block, and a corrupt anchor must wrap rather
// than overflow.  Also pins the per-strip and per-phase telemetry spans,
// legacy-stream routing, the device-model mirror (sim_fused_decode) and
// the split-plane halo windows, plus end-to-end identity through
// fz::Reader chunk fetches and fz::Service decompress jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/bitshuffle.hpp"
#include "core/codec.hpp"
#include "core/chunked.hpp"
#include "core/encoder.hpp"
#include "core/format.hpp"
#include "core/kernels_decode.hpp"
#include "core/kernels_sim.hpp"
#include "core/kernels_simd.hpp"
#include "core/lorenzo.hpp"
#include "datasets/field.hpp"
#include "reader/reader.hpp"
#include "reference_graph.hpp"
#include "service/service.hpp"
#include "telemetry/telemetry.hpp"

// The cudasim device model drives thousands of simulated threads through
// very deep cooperative call chains; TSan's fixed-size stack depot cannot
// represent them (sanitizer_stackdepot CHECK failure, not a data race), so
// the sim-mirror tests skip under TSan.  The host-side concurrency tests —
// the reason this binary is in the tsan preset — run everywhere.
#if defined(__SANITIZE_THREAD__)
#define FZ_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FZ_TSAN_BUILD 1
#endif
#endif
#if defined(FZ_TSAN_BUILD)
#define FZ_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "cudasim fiber depth overflows TSan's stack depot"
#else
#define FZ_SKIP_UNDER_TSAN() (void)0
#endif

namespace fz {
namespace {

std::vector<SimdDispatch> tiers_under_test() {
  std::vector<SimdDispatch> tiers{SimdDispatch::Scalar};
  if (simd_supported() >= SimdLevel::AVX2) tiers.push_back(SimdDispatch::AVX2);
  return tiers;
}

// Multi-tile shapes for every rank (the first six are the set the
// compress-side sweep in test_fused_parallel.cpp uses); 2049 exercises the
// padded final tile.  The rest probe the decode strips' boundaries: planes
// shorter than a tile, rows longer than one, fewer hyperplanes than
// workers, and a 1-D field whose strip boundaries cut tiles
// (DecodePlanReachesTheBoundaryShapes pins each property).
const Dims kDims[] = {Dims{5000},       Dims{2049},        Dims{64, 256},
                      Dims{96, 40},     Dims{24, 20, 20},  Dims{32, 24, 24},
                      Dims{37, 29, 11}, Dims{3000, 7},     Dims{300, 40, 2},
                      Dims{20011}};

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
void expect_bits_equal(std::span<const T> a, std::span<const T> b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    if constexpr (sizeof(T) == 4) {
      ASSERT_EQ(std::bit_cast<u32>(a[i]), std::bit_cast<u32>(b[i]))
          << what << " diverges at element " << i;
    } else {
      ASSERT_EQ(std::bit_cast<u64>(a[i]), std::bit_cast<u64>(b[i]))
          << what << " diverges at element " << i;
    }
  }
}

// ---- fused vs classic graph: byte identity across every schedule ----------

template <typename T>
void sweep_dtype(SimdDispatch tier, Dims dims) {
  const std::vector<T> data = field<T>(dims, dims.count());
  FzParams cp;
  cp.eb = ErrorBound::absolute(1e-3);
  cp.simd = tier;
  cp.fused_workers = 1;
  Codec compressor(cp);
  const FzCompressed c =
      compressor.compress(std::span<const T>{data}, dims);

  // Reference: the classic staged graph (scatter-unshuffle / inverse-quant).
  const std::vector<T> want = reference_decompress<T>(c.bytes, data.size());

  for (size_t workers : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    FzParams dp = cp;
    dp.fused_workers = workers;
    Codec codec(dp);
    std::vector<T> got(data.size(), T(-1));
    ASSERT_EQ(codec.decompress_into(c.bytes, got), dims);
    expect_bits_equal<T>(got, want,
                         dims.to_string() + " tier " +
                             std::to_string(static_cast<int>(tier)) +
                             " workers " + std::to_string(workers));
  }
}

TEST(FusedDecompress, MatchesUnfusedForEveryScheduleDtypeAndRank) {
  for (const SimdDispatch tier : tiers_under_test())
    for (const Dims dims : kDims) {
      sweep_dtype<f32>(tier, dims);
      sweep_dtype<f64>(tier, dims);
    }
}

TEST(FusedDecompress, DecodePlanReachesTheBoundaryShapes) {
  // The sweep's boundary shapes only test what they claim if the decode
  // plan actually cuts them that way.
  const StripPlan short_planes = fused_decode_plan(Dims{37, 29, 11}, 3);
  EXPECT_EQ(short_planes.strips, 3u);
  EXPECT_LT(short_planes.plane_elems, kCodesPerTile);

  const StripPlan long_rows = fused_decode_plan(Dims{3000, 7}, 3);
  EXPECT_EQ(long_rows.strips, 3u);
  EXPECT_GT(long_rows.plane_elems, kCodesPerTile);

  const StripPlan few_planes = fused_decode_plan(Dims{300, 40, 2}, 8);
  EXPECT_EQ(few_planes.planes, 2u);
  EXPECT_EQ(few_planes.strips, 2u);

  const StripPlan line = fused_decode_plan(Dims{20011}, 3);
  ASSERT_EQ(line.strips, 3u);
  EXPECT_NE(line.first_plane(1) % kCodesPerTile, 0u);
  EXPECT_NE(line.first_plane(2) % kCodesPerTile, 0u);

  // Never more strips than tiles, and deterministic in (dims, workers).
  EXPECT_EQ(fused_decode_plan(Dims{5000}, 8).strips, 3u);
  EXPECT_EQ(fused_decode_plan(Dims{2049}, 0).strips,
            std::min<size_t>(2, static_cast<size_t>(max_threads())));
}

TEST(FusedDecompress, HostileFlagsAndTruncationsFailBeforeAnyStripReads) {
  // A multi-strip 3-D stream: every single-bit flip of the bit-flag
  // section changes the nonzero-block count, and every cut inside the
  // block section shortens the payload — both must come back as a format
  // error before a strip reads a block in place from the stream (no
  // "fused-decode-strip" span; ASan would catch a read past the section).
  const Dims dims{48, 40, 24};
  const std::vector<f32> data = field<f32>(dims, 53);
  Codec compressor;
  const FzCompressed c = compressor.compress(std::span<const f32>{data}, dims);
  StreamHeader h{};
  std::memcpy(&h, c.bytes.data(), sizeof(h));
  // Copied out of the packed header: gtest binds its operands by reference.
  const size_t flag_bytes = h.bit_flag_bytes;
  const size_t block_bytes = h.block_words * sizeof(u32);
  const size_t flags_at = sizeof(StreamHeader);
  const size_t blocks_at = flags_at + flag_bytes;
  ASSERT_GT(block_bytes, 0u);
  ASSERT_EQ(fused_decode_plan(dims, 3).strips, 3u);

  telemetry::Sink sink;
  FzParams dp;
  dp.fused_workers = 3;
  dp.telemetry = &sink;
  Codec codec(dp);
  std::vector<f32> out(data.size());
  size_t attempts = 0;
  auto expect_rejected = [&](const std::vector<u8>& bad,
                             const std::string& what) {
    ++attempts;
    const Status st = codec.try_decompress_into(bad, out);
    EXPECT_EQ(st.code(), StatusCode::InvalidStream) << what;
  };
  for (size_t byte = 0; byte < flag_bytes; ++byte)
    for (u32 bit = 0; bit < 8; ++bit) {
      std::vector<u8> bad = c.bytes;
      bad[flags_at + byte] ^= static_cast<u8>(1u << bit);
      expect_rejected(bad, "flag byte " + std::to_string(byte) + " bit " +
                               std::to_string(bit));
    }
  for (size_t keep = blocks_at; keep < blocks_at + block_bytes; keep += 61) {
    const std::vector<u8> cut(c.bytes.begin(),
                              c.bytes.begin() + static_cast<long>(keep));
    expect_rejected(cut, "truncated to " + std::to_string(keep));
  }

  size_t strip_spans = 0, offset_spans = 0;
  for (const auto& ev : sink.snapshot()) {
    const std::string_view name{ev.name};
    if (name == "fused-decode-strip") ++strip_spans;
    if (name == "decode-offsets") ++offset_spans;
  }
  EXPECT_EQ(strip_spans, 0u);
  // Every bit flip reached the offset check; truncations stop at the
  // header parse.
  EXPECT_EQ(offset_spans, flag_bytes * 8);
  EXPECT_GT(attempts, offset_spans);

  // The codec is not poisoned by the failures.
  ASSERT_TRUE(codec.try_decompress_into(c.bytes, out).ok());
  expect_bits_equal<f32>(out, reference_decompress<f32>(c.bytes, data.size()),
                         "after hostile inputs");
}

TEST(FusedDecompress, ExtremeAnchorWrapsIdenticallyAcrossWorkers) {
  // A corrupt anchor at the edge of the i64 range carries the strip sums
  // past it.  They wrap modulo 2^64 (signed overflow would abort the
  // asan-ubsan build), and the strip carries still make every worker
  // count restore the same values.
  const Dims dims{48, 40, 24};
  const std::vector<f32> data = field<f32>(dims, 59);
  Codec compressor;
  FzCompressed c = compressor.compress(std::span<const f32>{data}, dims);
  const i64 anchor = INT64_MAX - 3;
  std::memcpy(c.bytes.data() + offsetof(StreamHeader, anchor), &anchor,
              sizeof(anchor));

  std::vector<f32> want(data.size());
  FzParams one;
  one.fused_workers = 1;
  ASSERT_TRUE(Codec(one).try_decompress_into(c.bytes, want).ok());
  for (size_t workers : {size_t{2}, size_t{3}, size_t{8}}) {
    FzParams dp;
    dp.fused_workers = workers;
    std::vector<f32> got(data.size());
    ASSERT_TRUE(Codec(dp).try_decompress_into(c.bytes, got).ok());
    expect_bits_equal<f32>(got, want, "workers " + std::to_string(workers));
  }
}

TEST(FusedDecompress, LegacyV1StreamsRouteToTheClassicGraph) {
  // The fused pass decodes V2 sign-magnitude tiles only; a default Codec
  // must transparently decode a V1 stream through the classic graph.
  const Dims dims{60, 50};
  const std::vector<f32> data = field<f32>(dims, 7);
  FzParams v1;
  v1.quant = QuantVersion::V1Original;
  v1.eb = ErrorBound::absolute(1e-2);
  Codec compressor(v1);
  const FzCompressed c = compressor.compress(std::span<const f32>{data}, dims);

  Codec codec;
  std::vector<f32> got(data.size());
  ASSERT_EQ(codec.decompress_into(c.bytes, got), dims);
  expect_bits_equal<f32>(got, reference_decompress<f32>(c.bytes, data.size()),
                         "v1 stream");
}

// ---- 3-D z-carry chunked scans --------------------------------------------

TEST(FusedDecompress, ZScanChunkedIsExactForEveryChunkCount) {
  // Flat 3-D volumes (fewer y-rows than workers) take the plane-granular
  // chunked z-scan; every worker count must reproduce the serial bytes
  // exactly — integer adds commute under any associativity.
  for (const Dims dims : {Dims{512, 1, 96}, Dims{64, 2, 128}, Dims{33, 1, 50},
                          Dims{128, 3, 40}}) {
    Rng rng(dims.count());
    std::vector<i64> deltas(dims.count());
    for (auto& v : deltas)
      v = static_cast<i64>(rng.uniform(-1e6, 1e6));

    std::vector<i64> want(deltas);
    lorenzo_inverse(want, dims, want, /*workers=*/1);
    for (size_t workers : {size_t{0}, size_t{2}, size_t{3}, size_t{8}}) {
      std::vector<i64> got(deltas);
      lorenzo_inverse(got, dims, got, workers);
      EXPECT_EQ(got, want) << dims.to_string() << " workers " << workers;
    }
  }
}

TEST(FusedDecompress, FlatVolumeStreamsDecodeIdenticallyAcrossWorkers) {
  // End-to-end: a volume of one-row planes splits into decode strips of a
  // few rows each; the strip carries must never show in the restored
  // bytes.
  const Dims dims{1024, 1, 48};
  const std::vector<f32> data = field<f32>(dims, 13);
  Codec compressor;
  const FzCompressed c = compressor.compress(std::span<const f32>{data}, dims);

  FzParams one;
  one.fused_workers = 1;
  Codec ref(one);
  std::vector<f32> want(data.size());
  ref.decompress_into(c.bytes, want);
  for (size_t workers : {size_t{0}, size_t{2}, size_t{3}, size_t{8}}) {
    FzParams dp;
    dp.fused_workers = workers;
    Codec codec(dp);
    std::vector<f32> got(data.size());
    codec.decompress_into(c.bytes, got);
    expect_bits_equal<f32>(got, want, "flat volume workers " +
                                          std::to_string(workers));
  }
}

// ---- telemetry ------------------------------------------------------------

TEST(FusedDecompress, EmitsOneStripSpanPerPlannedStrip) {
  const Dims dims{64, 256};
  const std::vector<f32> data = field<f32>(dims, 3);
  Codec compressor;
  const FzCompressed c = compressor.compress(std::span<const f32>{data}, dims);

  telemetry::Sink sink;
  FzParams dp;
  dp.fused_workers = 8;
  dp.telemetry = &sink;
  Codec codec(dp);
  std::vector<f32> out(data.size());
  codec.decompress_into(c.bytes, out);

  const StripPlan plan = fused_decode_plan(dims, 8);
  ASSERT_GT(plan.strips, 1u);
  size_t strip_spans = 0;
  bool saw_fused_decode_stage = false;
  for (const auto& ev : sink.snapshot()) {
    const std::string_view name{ev.name};
    if (name == "fused-decode") saw_fused_decode_stage = true;
    if (name != "fused-decode-strip") continue;
    ++strip_spans;
    bool has_strip = false, has_tiles = false, has_bytes = false;
    for (u16 i = 0; i < ev.n_args; ++i) {
      const std::string_view key{ev.args[i].key};
      if (key == "strip") has_strip = true;
      if (key == "tiles") has_tiles = true;
      if (key == "bytes") has_bytes = true;
    }
    EXPECT_TRUE(has_strip && has_tiles && has_bytes);
  }
  EXPECT_TRUE(saw_fused_decode_stage);
  EXPECT_EQ(strip_spans, plan.strips);
}

// ---- device-model mirror ---------------------------------------------------

std::vector<u32> sparse_code_words(size_t count, u64 seed) {
  // Sign-magnitude u16 codes with long zero runs, packed two per word —
  // the shape real residual streams take.
  Rng rng(seed);
  std::vector<u32> words(round_up(count, kCodesPerTile) / 2, 0);
  std::span<u16> codes{reinterpret_cast<u16*>(words.data()),
                       words.size() * 2};
  for (size_t i = 0; i < count; ++i)
    if (rng.uniform(0.0, 1.0) < 0.2)
      codes[i] = static_cast<u16>(
          static_cast<u64>(std::llround(rng.uniform(0.0, 500.0))) * 2 +
          (rng.uniform(0.0, 1.0) < 0.5 ? 1 : 0));
  return words;
}

TEST(SimFusedDecode, MatchesScatterUnshuffleDecodeExactly) {
  FZ_SKIP_UNDER_TSAN();
  // The single-launch device kernel (scatter + ballot transpose + decode)
  // must emit the same i64 residuals as the staged host decode.  The odd
  // count exercises the tail guard on the final tile.
  const size_t count = 5 * kCodesPerTile - 371;
  const auto words = sparse_code_words(count, 17);
  std::vector<u32> shuffled(words.size());
  bitshuffle_tiles(words, shuffled);
  std::vector<u8> byte_flags, bit_flags;
  mark_blocks(shuffled, byte_flags, bit_flags);
  std::vector<u32> blocks;
  compact_blocks(shuffled, byte_flags, blocks);

  // Host reference: staged scatter + unshuffle + scalar decode.
  std::vector<u32> restored(words.size());
  decode_blocks(bit_flags, blocks, restored);
  std::vector<u32> codes(words.size());
  bitunshuffle_tiles(restored, codes);
  std::span<const u16> u16s{reinterpret_cast<const u16*>(codes.data()),
                            codes.size() * 2};
  std::vector<i64> want(count);
  for (size_t i = 0; i < count; ++i) want[i] = sign_magnitude_decode(u16s[i]);

  std::vector<i64> got(count, -12345);
  const auto cost = sim_fused_decode(bit_flags, blocks, got);
  EXPECT_EQ(got, want);
  // One decode launch after the offset scan; the scattered words and the
  // u16 code array never touch global memory, so the only kernel writes
  // beyond the scan's scratch are the i64 residuals themselves.
  EXPECT_GE(cost.global_bytes_written, count * sizeof(i64));
}

TEST(SimFusedDecode, UnpaddedSharedTileStaysCorrect) {
  FZ_SKIP_UNDER_TSAN();
  const size_t count = 2 * kCodesPerTile;
  const auto words = sparse_code_words(count, 23);
  std::vector<u32> shuffled(words.size());
  bitshuffle_tiles(words, shuffled);
  std::vector<u8> byte_flags, bit_flags;
  mark_blocks(shuffled, byte_flags, bit_flags);
  std::vector<u32> blocks;
  compact_blocks(shuffled, byte_flags, blocks);

  std::vector<i64> padded(count), unpadded(count);
  const auto p = sim_fused_decode(bit_flags, blocks, padded, true);
  const auto u = sim_fused_decode(bit_flags, blocks, unpadded, false);
  EXPECT_EQ(padded, unpadded);
  EXPECT_GT(u.shared_transactions, p.shared_transactions);
}

// ---- split-plane halo windows (encode-side strips kernel) ------------------

TEST(SimFusedQuant, SplitPlaneHaloKeepsCooperativeStagingWithinBudget) {
  FZ_SKIP_UNDER_TSAN();
  // {200, 120, 4}: the full plane halo (24201 i64) blows the 200 KB shared
  // budget, but the two bounded windows (near rows + z-plane band) fit —
  // the kernel must stay on the cooperative strips path (the CostSheet
  // name proves it did not fall back) and still match the host stage
  // byte for byte.
  Field f;
  f.dims = Dims{200, 120, 4};
  f.data.resize(f.dims.count());
  Rng rng(29);
  for (auto& v : f.data) v = static_cast<f32>(rng.uniform(-50.0, 50.0));
  const double abs_eb = 0.01;

  const size_t words = round_up(f.count(), kCodesPerTile) / 2;
  const size_t blocks = words / kBlockWords;
  std::vector<u32> host_shuffled(words), sim_shuffled(words);
  std::vector<u8> host_byte(blocks), host_bit(blocks / 8);
  const FusedTileResult host = fused_one_worker(
      f.values(), f.dims, abs_eb, host_shuffled, host_byte, host_bit);

  std::vector<u8> sim_byte, sim_bit;
  std::vector<i64> anchor(1, -1);
  const auto cost = sim_fused_quant_shuffle_mark_strips(
      f.values(), f.dims, abs_eb, sim_shuffled, sim_byte, sim_bit, anchor);
  EXPECT_EQ(cost.name, "fused-quant-shuffle-mark-strips");
  EXPECT_EQ(sim_shuffled, host_shuffled);
  EXPECT_EQ(sim_byte, host_byte);
  EXPECT_EQ(sim_bit, host_bit);
  EXPECT_EQ(anchor[0], host.anchor);
}

TEST(SimFusedQuant, FallsBackOnlyWhenSplitWindowsBlowTheBudgetToo) {
  FZ_SKIP_UNDER_TSAN();
  // nx so large that even one bounded window exceeds half the budget:
  // the kernel must route to the single-pass fallback (name check) and
  // still match the host stage.
  Field f;
  f.dims = Dims{12000, 3, 2};
  f.data.resize(f.dims.count());
  Rng rng(31);
  for (auto& v : f.data) v = static_cast<f32>(rng.uniform(-50.0, 50.0));

  const size_t words = round_up(f.count(), kCodesPerTile) / 2;
  const size_t blocks = words / kBlockWords;
  std::vector<u32> host_shuffled(words), sim_shuffled(words);
  std::vector<u8> host_byte(blocks), host_bit(blocks / 8);
  const FusedTileResult host = fused_one_worker(
      f.values(), f.dims, 0.01, host_shuffled, host_byte, host_bit);

  std::vector<u8> sim_byte, sim_bit;
  std::vector<i64> anchor(1, -1);
  const auto cost = sim_fused_quant_shuffle_mark_strips(
      f.values(), f.dims, 0.01, sim_shuffled, sim_byte, sim_bit, anchor);
  EXPECT_EQ(cost.name, "fused-quant-shuffle-mark");
  EXPECT_EQ(sim_shuffled, host_shuffled);
  EXPECT_EQ(sim_byte, host_byte);
  EXPECT_EQ(anchor[0], host.anchor);
}

// ---- end-to-end surfaces ---------------------------------------------------

TEST(FusedDecompress, ReaderChunkFetchesMatchFullDecode) {
  // Reader decodes ride the fused graph (one strip per fetch); every slice
  // must still match decompressing the whole stream and copying out.
  const Dims dims{48, 40, 24};
  const std::vector<f32> data = field<f32>(dims, 41);
  ChunkedParams cp;
  cp.num_chunks = 5;
  const ChunkedCompressed c = fz_compress_chunked(data, dims, cp);

  Codec codec;
  std::vector<f32> full(data.size());
  // Whole-container decode as the reference.
  const FzDecompressed ref = fz_decompress_chunked(c.bytes);
  std::copy(ref.data.begin(), ref.data.end(), full.begin());

  ReaderOptions opts;
  opts.workers = 3;
  Reader reader(c.bytes, opts);
  std::vector<f32> flat(data.size());
  reader.read_flat(0, flat);
  expect_bits_equal<f32>(flat, full, "reader full read_flat");

  const Slice s{.x = 5, .y = 7, .z = 3, .nx = 30, .ny = 20, .nz = 15};
  const std::vector<f32> got = reader.read(s);
  std::vector<f32> want(s.count());
  for (size_t z = 0; z < s.nz; ++z)
    for (size_t y = 0; y < s.ny; ++y)
      for (size_t x = 0; x < s.nx; ++x)
        want[(z * s.ny + y) * s.nx + x] =
            full[((s.z + z) * dims.y + (s.y + y)) * dims.x + (s.x + x)];
  expect_bits_equal<f32>(got, want, "reader slice");
}

TEST(FusedDecompress, ServiceDecompressJobsMatchDirectCodec) {
  const Dims dims{96, 40};
  const std::vector<f32> data = field<f32>(dims, 43);
  Codec compressor;
  const FzCompressed c = compressor.compress(std::span<const f32>{data}, dims);
  std::vector<f32> want(data.size());
  compressor.decompress_into(c.bytes, want);

  Service::Options opts;
  opts.workers = 2;
  Service service(opts);
  Request req;
  req.kind = JobKind::Decompress;
  req.payload = c.bytes;
  Response resp;
  ASSERT_TRUE(service.submit(req, resp).ok()) << resp.status.message();
  ASSERT_EQ(resp.dims, dims);
  ASSERT_EQ(resp.payload.size(), want.size() * sizeof(f32));
  std::span<const f32> got{reinterpret_cast<const f32*>(resp.payload.data()),
                           want.size()};
  expect_bits_equal<f32>(got, std::span<const f32>{want}, "service job");
}

TEST(FusedDecompress, ConcurrentCodecsSharingOneSinkStayIndependent) {
  // TSan-facing stress: one Codec per thread (the threading contract), all
  // recording strip spans into ONE shared sink while decompressing the
  // same stream.  Every thread must reproduce the reference bytes.
  const Dims dims{64, 256};
  const std::vector<f32> data = field<f32>(dims, 47);
  Codec compressor;
  const FzCompressed c = compressor.compress(std::span<const f32>{data}, dims);
  std::vector<f32> want(data.size());
  compressor.decompress_into(c.bytes, want);

  telemetry::Sink sink;
  constexpr size_t kThreads = 4;
  std::vector<std::vector<f32>> outs(kThreads,
                                     std::vector<f32>(data.size()));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      FzParams dp;
      dp.fused_workers = 2;
      dp.telemetry = &sink;
      Codec codec(dp);
      for (int round = 0; round < 8; ++round)
        codec.decompress_into(c.bytes, outs[t]);
    });
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t)
    expect_bits_equal<f32>(outs[t], std::span<const f32>{want},
                           "thread " + std::to_string(t));
  size_t strip_spans = 0;
  for (const auto& ev : sink.snapshot())
    if (std::string_view{ev.name} == "fused-decode-strip") ++strip_spans;
  EXPECT_GT(strip_spans, 0u);
}

}  // namespace
}  // namespace fz
