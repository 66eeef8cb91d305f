// The FZ stage graphs (the compression pipeline decomposed into explicit,
// swappable stages).
//
// Each stage is a discrete object with a name and a run() method over a
// shared PipelineContext.  The context carries the run's inputs (data,
// params or stream), the resolved parameters, every scratch buffer (leased
// from a BufferPool so steady-state runs never allocate), and the
// data-dependent results the next stage or the stream assembly needs.
//
// One graph per direction and quantizer version.  V2 (the default) runs the
// fused graphs:
//   ResolveTransformStage       one pass: validate input + resolve eb
//                               (resolve_abs_eb); optional log x-form
//   FusedQuantShuffleMarkStage  pre-quantize + Lorenzo + residual codes + tile
//                               bitshuffle + block flags in one tile-parallel
//                               pass (3.2-3.4 phase 1)
//   EncodeStage                 per-tile block bases, size the output stream,
//                               compact each tile's blocks in parallel
//                               straight into it (3.4 phase 2)
//   AssembleStage               header + flags + V1 outliers around them
// and, to decompress:
//   ParseHeaderStage            validate header, slice stream sections
//   FusedDecodeStage            per-tile block bases, then per strip of
//                               hyperplanes: scatter + inverse bitshuffle +
//                               decode + strip-local inverse Lorenzo per
//                               tile, then the serial strip carries
//   ReconstructStage            add carries + dequantize + inverse transform
//                               -> output
//
// V1 runs the unfused graphs, which split the fused stages into
// DualQuantStage + BitshuffleMarkStage and ScatterUnshuffleStage +
// InverseQuantStage (paper Fig. 1), and share the other stages.  They
// accept V2 too, and are the reference every fused pass is tested against.
//
// fz::Codec (core/codec.hpp) owns a pool plus the graphs and is the
// intended way to run them; fz_compress/fz_decompress are thin one-shot
// wrappers.  See docs/ARCHITECTURE.md.
#pragma once

#include <memory>
#include <vector>

#include "common/bits.hpp"
#include "common/pool.hpp"
#include "common/types.hpp"
#include "core/format.hpp"
#include "core/pipeline.hpp"
#include "core/quantizer.hpp"

namespace fz {

/// Shared state threaded through a stage graph for one compress or
/// decompress run.  Reused across runs by fz::Codec: the pooled leases are
/// released at the end of each run (back to the pool, to be re-leased as
/// hits), and the small dynamic members keep their capacity.
struct PipelineContext {
  BufferPool* pool = nullptr;
  /// Resolved telemetry sink for the run (set by fz::Codec; may be null).
  /// Stages that fan work out to worker threads record their per-worker
  /// spans here — e.g. the tile-parallel fused pass's "fused-strip" spans.
  telemetry::Sink* sink = nullptr;

  // ---- run inputs ----------------------------------------------------------
  FzParams params;
  Dims dims;
  size_t count = 0;
  u8 dtype = sizeof(f32);
  const void* input = nullptr;  ///< compression: count elements of dtype
  std::vector<u8>* out_bytes = nullptr;  ///< compression output stream
  ByteSpan stream;              ///< decompression input
  void* output = nullptr;       ///< decompression: count elements of dtype

  // ---- resolved by the front stages ---------------------------------------
  double abs_eb = 0;
  bool log_transform = false;
  StreamHeader header{};  ///< decompression: validated header
  ByteSpan sec_bit_flags, sec_blocks, sec_outliers;  ///< stream sections

  // ---- pooled scratch ------------------------------------------------------
  // Compression writes its blocks straight into *out_bytes, so no lease
  // holds a compacted block section.
  PooledBuffer values;      ///< dtype[count]: log-transformed input copy
  PooledBuffer pq;          ///< i64[count]: pre-quantized / residuals
  PooledBuffer codes;       ///< u16[padded_codes()]
  PooledBuffer shuffled;    ///< u32[total_words()]
  PooledBuffer bit_flags;   ///< u8[ceil(total_blocks()/8)]
  PooledBuffer flags32;     ///< u32[total_blocks()]: V1 decode scan input
  PooledBuffer offsets;     ///< u32[total_blocks()]: V1 decode scan output
  PooledBuffer scan_scratch;  ///< u32: V1 decode blocked-scan chunk totals
  PooledBuffer blocks;      ///< u32: V1 decode aligned copy of the blocks
  PooledBuffer row_scratch;  ///< i64: fused pass per-strip rolling rows
  PooledBuffer tile_bases;  ///< u64[tiles]: per-tile block bases (encode and
                            ///< fused decode)
  PooledBuffer carries;     ///< i64[decode_plan.carry_elems()]: strip carries

  // ---- data-dependent results ---------------------------------------------
  i64 anchor = 0;
  std::vector<Outlier> outliers;  ///< V1 only; capacity reused across runs
  size_t nonzero_blocks = 0;
  /// Fused decompress: the strips `pq` holds local prefix sums over, whose
  /// `carries` ReconstructStage adds.  One strip (no carries) otherwise.
  StripPlan decode_plan;
  FzStats stats;

  /// Codes are padded with zeros to a whole number of 4096-byte tiles: the
  /// padding bitshuffles to zero blocks and costs only flag bits.
  size_t padded_codes() const { return round_up(count, kCodesPerTile); }
  size_t total_words() const {
    return padded_codes() * sizeof(u16) / sizeof(u32);
  }
  size_t total_blocks() const { return total_words() / kBlockWords; }

  template <typename T>
  std::span<const T> input_as() const {
    return {static_cast<const T*>(input), count};
  }
  template <typename T>
  std::span<T> output_as() {
    return {static_cast<T*>(output), count};
  }

  /// Prepare the context for a compression run (clears per-run state).
  void begin_compress(BufferPool* p, const FzParams& run_params, Dims run_dims,
                      size_t n, u8 run_dtype, const void* data,
                      std::vector<u8>* out);
  /// Prepare the context for a decompression run.  `run_params` carries
  /// only the host execution knobs (simd, fused_workers);
  /// everything stream-related comes from the parsed header.
  void begin_decompress(BufferPool* p, const FzParams& run_params,
                        ByteSpan run_stream, size_t n, u8 run_dtype,
                        void* out);
  /// Return every pooled lease to the pool (end of a run).
  void release_scratch();
};

/// A single pipeline stage.  Stages are stateless: all run state lives in
/// the context, so one stage object can serve any number of codecs.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  virtual void run(PipelineContext& ctx) const = 0;
};

using StageGraph = std::vector<std::unique_ptr<Stage>>;

/// The unfused graphs: V1's production graphs and the V2 reference.
StageGraph make_compress_stages();
StageGraph make_decompress_stages();

/// The fused graphs, V2 only: compress never materializes the i64
/// pre-quant array (core/kernels_simd.hpp), decompress never the shuffled
/// words or the u16 codes and writes i64[count] once, scanned while each
/// row is in cache (core/kernels_decode.hpp).  Byte-identical to the
/// unfused graphs.
StageGraph make_compress_stages_fused();
StageGraph make_decompress_stages_fused();

/// Run `graph` over `ctx` (prepared by begin_compress/begin_decompress),
/// one telemetry span per stage into ctx.sink, then return every scratch
/// lease to the pool — also when a stage throws.  fz::Codec runs its graphs
/// through here, and so does any caller that drives the unfused reference
/// graph on V2 input directly.
void run_stages(const StageGraph& graph, PipelineContext& ctx);

}  // namespace fz
