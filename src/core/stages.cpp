#include "core/stages.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/bitshuffle.hpp"
#include "core/encoder.hpp"
#include "core/kernels_decode.hpp"
#include "core/kernels_simd.hpp"
#include "core/lorenzo.hpp"
#include "substrate/bitio.hpp"
#include "substrate/scan.hpp"
#include "telemetry/telemetry.hpp"

namespace fz {

void PipelineContext::begin_compress(BufferPool* p, const FzParams& run_params,
                                     Dims run_dims, size_t n, u8 run_dtype,
                                     const void* data, std::vector<u8>* out) {
  pool = p;
  params = run_params;
  dims = run_dims;
  count = n;
  dtype = run_dtype;
  input = data;
  out_bytes = out;
  stream = {};
  output = nullptr;
  abs_eb = 0;
  log_transform = false;
  header = {};
  sec_bit_flags = sec_blocks = sec_outliers = {};
  anchor = 0;
  outliers.clear();
  nonzero_blocks = 0;
  decode_plan = {};
  stats = {};
}

void PipelineContext::begin_decompress(BufferPool* p,
                                       const FzParams& run_params,
                                       ByteSpan run_stream, size_t n,
                                       u8 run_dtype, void* out) {
  pool = p;
  params = {};
  // Host execution knobs survive into the decompress stages; the
  // stream-derived fields (quant, eb, ...) are filled by ParseHeaderStage.
  params.simd = run_params.simd;
  params.fused_workers = run_params.fused_workers;
  dims = {};
  count = n;
  dtype = run_dtype;
  input = nullptr;
  out_bytes = nullptr;
  stream = run_stream;
  output = out;
  abs_eb = 0;
  log_transform = false;
  header = {};
  sec_bit_flags = sec_blocks = sec_outliers = {};
  anchor = 0;
  outliers.clear();
  nonzero_blocks = 0;
  decode_plan = {};
  stats = {};
}

void PipelineContext::release_scratch() {
  values.release();
  pq.release();
  codes.release();
  shuffled.release();
  byte_flags.release();
  bit_flags.release();
  flags32.release();
  offsets.release();
  scan_scratch.release();
  blocks.release();
  row_scratch.release();
  tile_bases.release();
  carries.release();
}

void run_stages(const StageGraph& graph, PipelineContext& ctx) {
  struct ScratchGuard {
    PipelineContext& ctx;
    ~ScratchGuard() { ctx.release_scratch(); }
  } guard{ctx};
  for (const auto& stage : graph) {
    telemetry::Span span(ctx.sink, stage->name());
    stage->run(ctx);
    span.arg("bytes_in", static_cast<double>(ctx.stats.input_bytes));
  }
}

namespace {

// ---- compression stages -----------------------------------------------------

/// Validate the input (NaN/Inf-free), resolve the error bound, and apply
/// the optional log transform.  All three full-data walks run through the
/// OpenMP reductions in common/parallel.hpp — they used to be serial scans
/// on the hot path.
class ResolveTransformStage final : public Stage {
 public:
  const char* name() const override { return "resolve-transform"; }

  void run(PipelineContext& ctx) const override {
    if (ctx.dtype == sizeof(f64)) {
      run_impl<f64>(ctx);
    } else {
      run_impl<f32>(ctx);
    }
  }

 private:
  template <typename T>
  static void run_impl(PipelineContext& ctx) {
    const std::span<const T> data = ctx.input_as<T>();
    FZ_REQUIRE(parallel_all_finite(data),
               "input contains NaN/Inf; error-bounded compression requires "
               "finite data");
    ctx.stats.count = data.size();
    ctx.stats.input_bytes = data.size() * sizeof(T);

    const ErrorBound& eb = ctx.params.eb;
    if (eb.mode == ErrorBoundMode::Absolute) {
      ctx.abs_eb = eb.value;
    } else if (eb.mode == ErrorBoundMode::PointwiseRelative) {
      // Realized via the log transform: an absolute bound of log(1+rel) on
      // log-space data bounds each value's relative error by rel.
      FZ_REQUIRE(eb.value > 0 && eb.value < 1,
                 "point-wise relative bound must be in (0, 1)");
      ctx.abs_eb = std::log1p(eb.value);
    } else {
      const auto [lo, hi] = parallel_minmax(data);
      double range = static_cast<double>(hi) - static_cast<double>(lo);
      if (range <= 0) {
        // Degenerate constant field: scale the relative bound by the value
        // magnitude instead (any positive bound reproduces it exactly
        // anyway).
        range = std::max(std::fabs(static_cast<double>(hi)), 1.0);
      }
      ctx.abs_eb = eb.resolve(range);
    }
    ctx.stats.abs_eb = ctx.abs_eb;
    FZ_REQUIRE(ctx.abs_eb > 0, "resolved error bound must be positive");

    // Point-wise relative mode: compress log(d) with the absolute bound
    // log(1+rel) (Liang et al., the paper's HACC protocol, §4.1).
    ctx.log_transform = eb.mode == ErrorBoundMode::PointwiseRelative;
    if (ctx.log_transform) {
      ctx.values = ctx.pool->acquire(ctx.count * sizeof(T), false);
      const std::span<T> values = ctx.values.as<T>();
      parallel_chunks(data.size(), size_t{1} << 14, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
          FZ_REQUIRE(data[i] > 0,
                     "point-wise relative bounds require strictly positive "
                     "data (apply an offset or use an absolute bound)");
          values[i] = static_cast<T>(std::log(static_cast<double>(data[i])));
        }
      });
    }
  }
};

/// Dual-quantization (pre-quantize, Lorenzo-predict, quantize the
/// residuals into 16-bit codes).
class DualQuantStage final : public Stage {
 public:
  const char* name() const override { return "dual-quant"; }

  void run(PipelineContext& ctx) const override {
    const SimdLevel level = resolve_simd(ctx.params.simd);
    ctx.pq = ctx.pool->acquire(ctx.count * sizeof(i64), false);
    const std::span<i64> pq = ctx.pq.as<i64>();
    if (ctx.dtype == sizeof(f64)) {
      prequantize_simd(source<f64>(ctx), ctx.abs_eb, pq, level);
    } else {
      prequantize_simd(source<f32>(ctx), ctx.abs_eb, pq, level);
    }
    lorenzo_forward(pq, ctx.dims, pq);
    // Anchor the first value: its "residual" is the value itself, which can
    // exceed the 16-bit code range by orders of magnitude for offset-heavy
    // data; carry it in the header instead.
    ctx.anchor = pq[0];
    pq[0] = 0;

    ctx.codes = ctx.pool->acquire(ctx.padded_codes() * sizeof(u16), false);
    const std::span<u16> codes = ctx.codes.as<u16>();
    if (ctx.params.quant == QuantVersion::V2Optimized) {
      ctx.stats.saturated =
          quant_encode_v2_simd(pq, codes.first(ctx.count), level);
    } else {
      quant_encode_v1(pq, kV1Radius, codes.first(ctx.count), ctx.outliers);
      ctx.stats.outliers = ctx.outliers.size();
    }
    // Zero the tile padding: it bitshuffles to zero blocks.
    std::fill(codes.begin() + ctx.count, codes.end(), u16{0});
  }

 private:
  template <typename T>
  static std::span<const T> source(const PipelineContext& ctx) {
    return ctx.log_transform ? std::span<const T>(ctx.values.as<T>())
                             : ctx.input_as<T>();
  }
};

/// Bitshuffle (+ phase-1 flags; fused on device, see costs.cpp).
class BitshuffleMarkStage final : public Stage {
 public:
  const char* name() const override { return "bitshuffle-mark"; }

  void run(PipelineContext& ctx) const override {
    const SimdLevel level = resolve_simd(ctx.params.simd);
    ctx.shuffled = ctx.pool->acquire(ctx.total_words() * sizeof(u32), false);
    bitshuffle_tiles_simd(ctx.codes.as<u32>(), ctx.shuffled.as<u32>(), level);

    ctx.byte_flags = ctx.pool->acquire(ctx.total_blocks(), false);
    ctx.bit_flags =
        ctx.pool->acquire(div_ceil(ctx.total_blocks(), 8), false);
    mark_blocks_simd(ctx.shuffled.as<u32>(), ctx.byte_flags.as<u8>(),
                     ctx.bit_flags.as<u8>(), level);
  }
};

/// The fused host pipeline (paper §3.4's fusion idea applied to the whole
/// compress hot path): pre-quantize + Lorenzo + residual encode + tile
/// bitshuffle + zero-block mark in one tile-parallel pass over the input.
/// Replaces DualQuantStage + BitshuffleMarkStage; the i64 pre-quant array
/// never exists, only O(row)/O(plane) rolling scratch per strip.  V2 only.
class FusedQuantShuffleMarkStage final : public Stage {
 public:
  const char* name() const override { return "fused-quant-shuffle-mark"; }

  void run(PipelineContext& ctx) const override {
    FZ_REQUIRE(ctx.params.quant == QuantVersion::V2Optimized,
               "fused graph supports V2 quantization only");
    const SimdLevel level = resolve_simd(ctx.params.simd);
    ctx.shuffled = ctx.pool->acquire(ctx.total_words() * sizeof(u32), false);
    ctx.byte_flags = ctx.pool->acquire(ctx.total_blocks(), false);
    ctx.bit_flags = ctx.pool->acquire(div_ceil(ctx.total_blocks(), 8), false);

    // Strips slice one pooled scratch lease; every plan emits the same bytes.
    const FusedParallelPlan plan =
        fused_parallel_plan(ctx.dims, ctx.params.fused_workers);
    ctx.row_scratch =
        ctx.pool->acquire(plan.scratch_elems * sizeof(i64), false);
    const FusedTileResult r =
        ctx.dtype == sizeof(f64)
            ? fused_quant_shuffle_mark_parallel(
                  source<f64>(ctx), ctx.dims, ctx.abs_eb,
                  ctx.shuffled.as<u32>(), ctx.byte_flags.as<u8>(),
                  ctx.bit_flags.as<u8>(), ctx.row_scratch.as<i64>(), plan,
                  level, ctx.sink)
            : fused_quant_shuffle_mark_parallel(
                  source<f32>(ctx), ctx.dims, ctx.abs_eb,
                  ctx.shuffled.as<u32>(), ctx.byte_flags.as<u8>(),
                  ctx.bit_flags.as<u8>(), ctx.row_scratch.as<i64>(), plan,
                  level, ctx.sink);
    ctx.anchor = r.anchor;
    ctx.stats.saturated = r.saturated;
  }

 private:
  template <typename T>
  static std::span<const T> source(const PipelineContext& ctx) {
    return ctx.log_transform ? std::span<const T>(ctx.values.as<T>())
                             : ctx.input_as<T>();
  }
};

/// Prefix-sum offsets + block compaction (encode phase 2).
class EncodeStage final : public Stage {
 public:
  const char* name() const override { return "prefix-sum-encode"; }

  void run(PipelineContext& ctx) const override {
    const size_t nblocks = ctx.total_blocks();
    ctx.flags32 = ctx.pool->acquire(nblocks * sizeof(u32), false);
    ctx.offsets = ctx.pool->acquire(nblocks * sizeof(u32), false);
    ctx.scan_scratch = ctx.pool->acquire(
        2 * scan_chunk_count(nblocks) * sizeof(u32), false);
    ctx.blocks =
        ctx.pool->acquire(ctx.total_words() * sizeof(u32), false);
    ctx.nonzero_blocks = compact_blocks(
        ctx.shuffled.as<u32>(), ctx.byte_flags.as<u8>(), ctx.flags32.as<u32>(),
        ctx.offsets.as<u32>(), ctx.scan_scratch.as<u32>(),
        ctx.blocks.as<u32>());
    ctx.stats.total_blocks = nblocks;
    ctx.stats.nonzero_blocks = ctx.nonzero_blocks;
  }
};

/// Header + sections -> the self-describing output stream.
class AssembleStage final : public Stage {
 public:
  const char* name() const override { return "assemble"; }

  void run(PipelineContext& ctx) const override {
    StreamHeader h{};
    h.magic = kStreamMagic;
    h.version = kStreamVersion;
    h.quant = static_cast<u8>(ctx.params.quant);
    h.rank = static_cast<u8>(ctx.dims.rank());
    h.dtype = ctx.dtype;
    h.transform = ctx.log_transform ? kTransformLog : kTransformNone;
    h.nx = ctx.dims.x;
    h.ny = ctx.dims.y;
    h.nz = ctx.dims.z;
    h.count = ctx.count;
    h.abs_eb = ctx.abs_eb;
    h.radius = ctx.params.quant == QuantVersion::V1Original ? kV1Radius : 0;
    h.anchor = ctx.anchor;
    h.saturated = ctx.stats.saturated;
    h.outlier_count = ctx.outliers.size();
    h.bit_flag_bytes = ctx.bit_flags.size();
    h.block_words = ctx.nonzero_blocks * kBlockWords;

    std::vector<u8>& out = *ctx.out_bytes;
    out.clear();
    out.reserve(sizeof(h) + h.bit_flag_bytes + h.block_words * sizeof(u32) +
                ctx.outliers.size() * (sizeof(u32) + sizeof(i32)));
    ByteWriter w(out);
    w.put(h);
    w.put_bytes(ctx.bit_flags.bytes());
    w.put_bytes(ByteSpan{
        reinterpret_cast<const u8*>(ctx.blocks.as<u32>().data()),
        h.block_words * sizeof(u32)});
    for (const Outlier& o : ctx.outliers) {
      FZ_REQUIRE(o.index <= UINT32_MAX && o.delta >= INT32_MIN &&
                     o.delta <= INT32_MAX,
                 "outlier exceeds 8-byte stream encoding");
      w.put<u32>(static_cast<u32>(o.index));
      w.put<i32>(static_cast<i32>(o.delta));
    }
    ctx.stats.compressed_bytes = out.size();
  }
};

// ---- decompression stages ---------------------------------------------------

/// Validate the header and slice the stream into its sections.
class ParseHeaderStage final : public Stage {
 public:
  const char* name() const override { return "parse-header"; }

  void run(PipelineContext& ctx) const override {
    ByteReader r(ctx.stream);
    const StreamHeader h = r.get<StreamHeader>();
    validate_stream_header(h, ctx.stream.size());
    FZ_FORMAT_REQUIRE(h.dtype == ctx.dtype,
                      h.dtype == sizeof(f64)
                          ? "stream holds f64 data (use fz_decompress_f64)"
                          : "stream holds f32 data (use fz_decompress)");
    FZ_FORMAT_REQUIRE(h.count == ctx.count,
                      "stream count does not match output size");
    ctx.dims = Dims{h.nx, h.ny, h.nz};
    ctx.params.quant = static_cast<QuantVersion>(h.quant);
    ctx.abs_eb = h.abs_eb;
    ctx.log_transform = h.transform == kTransformLog;

    const size_t total_words = ctx.total_words();
    FZ_FORMAT_REQUIRE(
        h.bit_flag_bytes == div_ceil(total_words / kBlockWords, 8),
        "bit-flag section size mismatch");
    FZ_FORMAT_REQUIRE(h.block_words <= total_words,
                      "block payload exceeds field size");
    // Outlier indices are distinct positions, so their count is bounded by
    // the field size; this also keeps the section-size product from
    // overflowing below.
    FZ_FORMAT_REQUIRE(h.outlier_count <= h.count, "too many outliers");
    ctx.sec_bit_flags = r.get_bytes(h.bit_flag_bytes);
    ctx.sec_blocks = r.get_bytes(h.block_words * sizeof(u32));
    ctx.sec_outliers =
        ctx.params.quant == QuantVersion::V1Original
            ? r.get_bytes(h.outlier_count * (sizeof(u32) + sizeof(i32)))
            : ByteSpan{};
    ctx.header = h;

    ctx.stats.count = h.count;
    ctx.stats.input_bytes = h.count * h.dtype;
    ctx.stats.compressed_bytes = ctx.stream.size();
    ctx.stats.abs_eb = h.abs_eb;
    ctx.stats.saturated = h.saturated;
    ctx.stats.outliers = h.outlier_count;
    ctx.stats.total_blocks = total_words / kBlockWords;
    ctx.stats.nonzero_blocks = h.block_words / kBlockWords;
  }
};

/// Scatter nonzero blocks, then inverse bitshuffle.
class ScatterUnshuffleStage final : public Stage {
 public:
  const char* name() const override { return "scatter-unshuffle"; }

  void run(PipelineContext& ctx) const override {
    const size_t nwords = ctx.total_words();
    const size_t nblocks = ctx.total_blocks();
    ctx.shuffled = ctx.pool->acquire(nwords * sizeof(u32), false);
    ctx.flags32 = ctx.pool->acquire(nblocks * sizeof(u32), false);
    ctx.offsets = ctx.pool->acquire(nblocks * sizeof(u32), false);
    ctx.scan_scratch = ctx.pool->acquire(
        2 * scan_chunk_count(nblocks) * sizeof(u32), false);
    // The block section sits at an arbitrary byte offset in the stream;
    // copy it into an aligned buffer before viewing it as u32.
    ctx.blocks = ctx.pool->acquire(ctx.sec_blocks.size(), false);
    if (!ctx.sec_blocks.empty())
      std::memcpy(ctx.blocks.data(), ctx.sec_blocks.data(),
                  ctx.sec_blocks.size());
    decode_blocks(ctx.sec_bit_flags, ctx.blocks.as<u32>(),
                  ctx.shuffled.as<u32>(), ctx.flags32.as<u32>(),
                  ctx.offsets.as<u32>(), ctx.scan_scratch.as<u32>());

    ctx.codes = ctx.pool->acquire(nwords * sizeof(u32), false);
    bitunshuffle_tiles_simd(ctx.shuffled.as<u32>(), ctx.codes.as<u32>(),
                            resolve_simd(ctx.params.simd));
  }
};

/// Inverse quantization + inverse Lorenzo.
class InverseQuantStage final : public Stage {
 public:
  const char* name() const override { return "inverse-quant"; }

  void run(PipelineContext& ctx) const override {
    ctx.pq = ctx.pool->acquire(ctx.count * sizeof(i64), false);
    const std::span<i64> pq = ctx.pq.as<i64>();
    const std::span<const u16> codes =
        std::span<const u16>(ctx.codes.as<u16>()).first(ctx.count);
    if (ctx.params.quant == QuantVersion::V2Optimized) {
      quant_decode_v2(codes, pq);
    } else {
      const i64 radius = ctx.header.radius;
      parallel_chunks(ctx.count, size_t{1} << 16, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i)
          pq[i] = static_cast<i64>(codes[i]) - radius;  // code 0 fixed below
      });
      // Non-outlier zeros cannot occur: code 0 is reserved for outliers.
      const u8* rec = ctx.sec_outliers.data();
      for (size_t k = 0; k < ctx.header.outlier_count; ++k, rec += 8) {
        const u32 index = load_le<u32>(rec);
        FZ_FORMAT_REQUIRE(index < ctx.count, "outlier index out of range");
        pq[index] = load_le<i32>(rec + sizeof(u32));
      }
    }
    pq[0] += ctx.header.anchor;  // restore the first value's residual
    lorenzo_inverse(pq, ctx.dims, pq, ctx.params.fused_workers);
  }
};

/// The fused decompress hot path (the decode-side twin of
/// FusedQuantShuffleMarkStage, core/kernels_decode.hpp): one block base per
/// tile, then one pass per strip of hyperplanes that decodes its tiles and
/// runs the strip-local inverse Lorenzo on each row while it is in cache,
/// then the serial strip carries ReconstructStage adds.  The full
/// shuffled-word and u16-code arrays never materialize, and the output is
/// byte-identical to the unfused graph for every plan.  V2 streams only
/// (V1's outlier patching needs the whole code array).
class FusedDecodeStage final : public Stage {
 public:
  const char* name() const override { return "fused-decode"; }

  void run(PipelineContext& ctx) const override {
    FZ_REQUIRE(ctx.params.quant == QuantVersion::V2Optimized,
               "fused decompress supports V2 streams only");
    {
      // Validates the block section before any strip reads from it.
      telemetry::Span span(ctx.sink, "decode-offsets");
      const size_t tiles = ctx.padded_codes() / kCodesPerTile;
      ctx.tile_bases = ctx.pool->acquire(tiles * sizeof(u64), false);
      decode_tile_bases(ctx.sec_bit_flags, ctx.sec_blocks.size(),
                        ctx.tile_bases.as<u64>());
    }
    const StripPlan plan =
        fused_decode_plan(ctx.dims, ctx.params.fused_workers);
    ctx.pq = ctx.pool->acquire(ctx.count * sizeof(i64), false);
    fused_decode_strips(ctx.sec_bit_flags, ctx.sec_blocks,
                        ctx.tile_bases.as<u64>(), ctx.header.anchor, ctx.dims,
                        ctx.pq.as<i64>(), plan, resolve_simd(ctx.params.simd),
                        ctx.sink);
    telemetry::Span span(ctx.sink, "decode-carry");
    if (plan.strips > 1) {
      ctx.carries =
          ctx.pool->acquire(plan.carry_elems() * sizeof(i64), false);
      fused_decode_carries(ctx.pq.as<i64>(), plan, ctx.carries.as<i64>());
    }
    ctx.decode_plan = plan;
  }
};

/// Dequantize + inverse transform into the caller's output storage.
class ReconstructStage final : public Stage {
 public:
  const char* name() const override { return "reconstruct"; }

  void run(PipelineContext& ctx) const override {
    if (ctx.dtype == sizeof(f64)) {
      run_impl<f64>(ctx);
    } else {
      run_impl<f32>(ctx);
    }
  }

 private:
  template <typename T>
  static void run_impl(PipelineContext& ctx) {
    const std::span<T> out = ctx.output_as<T>();
    const std::span<const i64> pq = ctx.pq.as<i64>();
    dequantize(pq, ctx.abs_eb, out, ctx.decode_plan, ctx.carries.as<i64>());
    if (!ctx.log_transform) return;
    parallel_chunks(out.size(), size_t{1} << 14, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i)
        out[i] = static_cast<T>(std::exp(static_cast<double>(out[i])));
    });
  }
};

}  // namespace

StageGraph make_compress_stages() {
  StageGraph g;
  g.push_back(std::make_unique<ResolveTransformStage>());
  g.push_back(std::make_unique<DualQuantStage>());
  g.push_back(std::make_unique<BitshuffleMarkStage>());
  g.push_back(std::make_unique<EncodeStage>());
  g.push_back(std::make_unique<AssembleStage>());
  return g;
}

StageGraph make_compress_stages_fused() {
  StageGraph g;
  g.push_back(std::make_unique<ResolveTransformStage>());
  g.push_back(std::make_unique<FusedQuantShuffleMarkStage>());
  g.push_back(std::make_unique<EncodeStage>());
  g.push_back(std::make_unique<AssembleStage>());
  return g;
}

StageGraph make_decompress_stages() {
  StageGraph g;
  g.push_back(std::make_unique<ParseHeaderStage>());
  g.push_back(std::make_unique<ScatterUnshuffleStage>());
  g.push_back(std::make_unique<InverseQuantStage>());
  g.push_back(std::make_unique<ReconstructStage>());
  return g;
}

StageGraph make_decompress_stages_fused() {
  StageGraph g;
  g.push_back(std::make_unique<ParseHeaderStage>());
  g.push_back(std::make_unique<FusedDecodeStage>());
  g.push_back(std::make_unique<ReconstructStage>());
  return g;
}

}  // namespace fz
