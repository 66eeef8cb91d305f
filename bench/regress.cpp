// Performance regression bench: wall-clock GB/s of each vectorized
// pipeline stage at every SIMD dispatch level, end-to-end compression for
// the {unfused, fused-parallel} x {scalar, best-SIMD} configs on the tier-1
// benchmark suite, a fused-parallel thread-scaling sweep (1/2/4/auto
// workers, compress and decompress), a gap-array Huffman decode sweep
// (1/2/4/max workers table-driven, plus the bit-serial walk at one worker),
// fused vs classic (staged) decompression per dataset, and a 3-D z-carry
// chunked-scan thread sweep on a flat volume, and the fork/join latency of
// two-participant regions.  The unfused rows drive the
// reference graph (make_compress_stages / make_decompress_stages) over a
// PipelineContext directly; fz::Codec runs V2 through the fused graphs.
// "prequant-f32" times the unfused graph's exact f32 row,
// "prequant-f32fast" the float row every fused row and config uses, so the
// identity gates compare the two on every dataset.
//
// Tables go to stdout, then one line per within-run gate (bench/gates.hpp);
// the exit status is 1, naming each failed gate, when any gate fails:
//
//   stream-identity      every config's stream equals unfused-scalar's
//   fused-speedup        best fused-parallel-simd / unfused-scalar >= 1.5
//   huffman-identity     every decode path returns the encoded symbols
//   huffman-parallel     each dataset: max workers >= 0.95 x one worker
//   huffman-table        each dataset: table-driven >= 2 x bit-serial
//   decompress-identity  fused restores the classic graph's bytes
//   fused-decompress     each dataset: fused >= 0.95 x classic
//   zscan-identity       chunked z-scan bytes equal the serial scan's
//   zscan-scaling        z-scan max workers >= 0.95 x one worker
//   fork-latency         median two-participant region <= 4 x one
//                        participant (a helper stuck on its caller's CPU
//                        reads about 400 x)
//
// Usage: regress [--scale S] [--iters N]
#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "core/bitshuffle.hpp"
#include "core/codec.hpp"
#include "core/format.hpp"
#include "core/kernels_decode.hpp"
#include "core/kernels_simd.hpp"
#include "core/lorenzo.hpp"
#include "core/pipeline.hpp"
#include "core/quantizer.hpp"
#include "core/stages.hpp"
#include "datasets/generators.hpp"
#include "gates.hpp"
#include "harness/tables.hpp"
#include "substrate/histogram.hpp"
#include "substrate/huffman.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace fz;

using bench::gbps;
using bench::min_seconds;

std::string num(double v) { return bench::format("%.6g", v); }

std::vector<SimdLevel> levels_under_test() {
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (simd_supported() >= SimdLevel::AVX2) levels.push_back(SimdLevel::AVX2);
  return levels;
}

/// The smallest of a gate's per-dataset ratios, with its dataset.
struct Worst {
  std::string dataset;
  double ratio = std::numeric_limits<double>::infinity();

  void note(const std::string& d, double r) {
    if (r < ratio) *this = {d, r};
  }
};

/// The unfused reference graphs over one pooled context.  Spans go to the
/// active sink, as a Codec's would.
struct ReferenceGraphs {
  BufferPool pool;
  PipelineContext ctx;
  const StageGraph compress_graph = make_compress_stages();
  const StageGraph decompress_graph = make_decompress_stages();

  std::vector<u8> compress(const Field& f, const FzParams& params) {
    std::vector<u8> out;
    ctx.begin_compress(&pool, params, f.dims, f.count(), sizeof(f32),
                       f.values().data(), &out);
    ctx.sink = telemetry::active_sink();
    run_stages(compress_graph, ctx);
    return out;
  }
  void decompress(ByteSpan stream, std::span<f32> out) {
    ctx.begin_decompress(&pool, FzParams{}, stream, out.size(), sizeof(f32),
                         out.data());
    ctx.sink = telemetry::active_sink();
    run_stages(decompress_graph, ctx);
  }
};

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.12;
  int iters = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale" && i + 1 < argc) scale = std::stod(argv[++i]);
    else if (arg == "--iters" && i + 1 < argc) iters = std::stoi(argv[++i]);
    else {
      std::cerr << "usage: regress [--scale S] [--iters N]\n";
      return 2;
    }
  }

  const auto levels = levels_under_test();
  const SimdLevel best = resolve_simd(SimdDispatch::Auto);
  const size_t hw_threads = max_threads();
  std::cout << "regression bench: scale=" << scale << " iters=" << iters
            << " best SIMD level: " << simd_level_name(best)
            << " hw threads: " << hw_threads << "\n\n";

  // ---- per-stage throughput at every dispatch level ------------------------
  const Field stage_field = generate_field(
      Dataset::Hurricane, scaled_dims(Dataset::Hurricane, std::max(scale, 0.1)), 42);
  const size_t n = stage_field.count();
  const double abs_eb = 1e-3 * stage_field.value_range();
  const size_t padded = round_up(n, kCodesPerTile);
  const size_t words = padded / 2;

  std::vector<i64> pq(padded, 0);
  std::vector<u16> codes(padded, 0);
  std::vector<u32> shuffled(words), unshuffled(words);
  std::vector<u8> bit_flags(words / kBlockWords / 8);

  bench::Table stage_table({"stage", "level", "GB/s"});
  for (const SimdLevel level : levels) {
    const auto add = [&](const std::string& stage, size_t bytes,
                         const std::function<void()>& fn) {
      const double t = min_seconds(iters, fn);
      stage_table.add_row({stage, simd_level_name(level), num(gbps(bytes, t))});
    };
    add("prequant-f32", n * 4, [&] {
      prequantize_simd(stage_field.values(), abs_eb, std::span<i64>(pq).first(n),
                       level);
    });
    add("prequant-f32fast", n * 4, [&] {
      prequantize_f32fast(stage_field.values(), abs_eb,
                          std::span<i64>(pq).first(n), level);
    });
    lorenzo_forward(std::span<const i64>(pq).first(n), stage_field.dims,
                    std::span<i64>(pq).first(n));
    pq[0] = 0;
    add("encode-v2", n * 8, [&] {
      quant_encode_v2_simd(std::span<const i64>(pq).first(n),
                           std::span<u16>(codes).first(n), level);
    });
    const std::span<const u32> code_words{
        reinterpret_cast<const u32*>(codes.data()), words};
    add("bitshuffle", words * 4,
        [&] { bitshuffle_tiles_simd(code_words, shuffled, level); });
    add("mark", words * 4,
        [&] { mark_blocks_simd(shuffled, bit_flags, level); });
    add("bitunshuffle", words * 4,
        [&] { bitunshuffle_tiles_simd(shuffled, unshuffled, level); });
    const FusedParallelPlan plan =
        fused_parallel_plan(stage_field.dims, /*workers=*/0);
    std::vector<i64> strip_scratch(plan.scratch_elems);
    add("fused-parallel-pipeline", n * 4, [&] {
      fused_quant_shuffle_mark_parallel(
          stage_field.values(), stage_field.dims, abs_eb, shuffled, bit_flags,
          strip_scratch, plan, level);
    });
  }
  std::cout << "Stage throughput (" << stage_field.dataset << " "
            << stage_field.dims.to_string() << ", abs eb "
            << num(abs_eb) << "):\n";
  stage_table.print(std::cout);

  // ---- end-to-end compression: {unfused, fused-parallel} x {scalar, best}
  struct Config {
    const char* name;
    bool fused;
    SimdDispatch simd;
  };
  const Config configs[] = {
      {"unfused-scalar", false, SimdDispatch::Scalar},
      {"unfused-simd", false, SimdDispatch::Auto},
      {"fused-parallel-scalar", true, SimdDispatch::Scalar},
      {"fused-parallel-simd", true, SimdDispatch::Auto},
  };
  constexpr size_t kRef = 0, kParallelSimd = 3;

  double best_speedup = 0;
  std::string best_speedup_dataset;
  struct ScalingRow {
    std::string dataset;
    std::string workers;
    std::string strips;  ///< compress / decode
    double compress_gbps, decompress_gbps;
  };
  std::vector<ScalingRow> scaling_rows;

  bench::Table comp_table({"dataset", "unfused-scalar", "unfused-simd",
                           "fused-parallel-simd", "speedup"});
  bool identical = true;
  for (const Field& f : benchmark_suite(scale, 42)) {
    FzParams params;
    params.eb = ErrorBound::relative(1e-3);
    std::vector<u8> reference;
    std::vector<double> results;
    for (const Config& c : configs) {
      params.fused_workers = 0;  // one strip per hardware thread
      params.simd = c.simd;
      // A fresh pool per call on both paths, like fz_compress's throwaway
      // Codec.
      std::vector<u8> bytes;
      const double t = min_seconds(iters, [&] {
        bytes = c.fused ? fz_compress(f.values(), f.dims, params).bytes
                        : ReferenceGraphs{}.compress(f, params);
      });
      if (reference.empty()) reference = bytes;
      else if (bytes != reference) identical = false;
      results.push_back(gbps(f.bytes(), t));
    }
    const double speedup = results[kParallelSimd] / results[kRef];
    if (speedup > best_speedup) {
      best_speedup = speedup;
      best_speedup_dataset = f.dataset;
    }
    comp_table.add_row({f.dataset, num(results[0]), num(results[1]),
                        num(results[kParallelSimd]), num(speedup) + "x"});

    // Thread-scaling sweep (compress + decompress) at 1/2/4 workers and
    // auto (0: the strips the work floor gives within the budget).  The
    // stream is identical at every worker count (asserted above and in
    // tests); only the wall clock may change.
    for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
      FzParams p;
      p.eb = ErrorBound::relative(1e-3);
      p.fused_workers = workers;
      Codec codec(p);
      FzCompressed comp;
      const double tc = min_seconds(
          iters, [&] { comp = codec.compress(f.values(), f.dims); });
      std::vector<f32> out(f.count());
      const double td = min_seconds(
          iters, [&] { codec.decompress_into(comp.bytes, out); });
      scaling_rows.push_back(
          {f.dataset, workers == 0 ? "auto" : std::to_string(workers),
           std::to_string(fused_parallel_plan(f.dims, workers).strips) + "/" +
               std::to_string(fused_decode_plan(f.dims, workers).strips),
           gbps(f.bytes(), tc), gbps(f.bytes(), td)});
    }
  }
  std::cout << "\nCompression throughput (GB/s), rel eb 1e-3; speedup = "
               "fused-parallel-simd over unfused-scalar:\n";
  comp_table.print(std::cout);

  bench::Table scale_table(
      {"dataset", "workers", "strips c/d", "compress GB/s", "decompress GB/s"});
  for (const ScalingRow& r : scaling_rows)
    scale_table.add_row({r.dataset, r.workers, r.strips,
                         num(r.compress_gbps), num(r.decompress_gbps)});
  std::cout << "\nFused-parallel thread scaling:\n";
  scale_table.print(std::cout);

  // ---- gap-array Huffman decode thread scaling ------------------------------
  // Real per-dataset code distributions: v1 quantization codes (the cuSZ
  // baseline's Huffman input), encoded once per dataset with the default
  // gap layout.  Symbol identity is asserted on every timed decode.
  Worst huff_parallel, huff_table_speedup;
  bool huff_identical = true;

  bench::Table huff_table({"dataset", "w=1", "w=2", "w=4", "w=max",
                           "bit-serial", "table/bits", "par/serial"});
  for (const Field& f : benchmark_suite(scale, 42)) {
    const double eb = f.resolve_eb(ErrorBound::relative(1e-3));
    std::vector<i64> hpq(f.count());
    prequantize(f.values(), eb, hpq);
    lorenzo_forward(hpq, f.dims, hpq);
    hpq[0] = 0;
    const QuantV1Result q = quant_encode_v1(hpq, 512);
    const std::vector<u16>& hsyms = q.codes;
    const auto hist = histogram<u16>(hsyms, 1024);
    const HuffmanCodebook book = HuffmanCodebook::build(hist);
    const std::vector<u8> enc = huffman_encode(hsyms, book);
    const std::vector<u8> legacy =
        huffman_encode(hsyms, book, HuffmanEncodeOptions{kHuffDefaultChunk, 0});
    const size_t bytes = hsyms.size() * sizeof(u16);

    std::vector<double> per_worker;
    for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{0}}) {
      std::vector<u16> dec;
      const double t = min_seconds(iters, [&] {
        dec = huffman_decode(enc, book, {.workers = workers});
      });
      if (dec != hsyms) huff_identical = false;
      per_worker.push_back(gbps(bytes, t));
    }
    std::vector<u16> dec_bits;
    const double t_bits = min_seconds(iters, [&] {
      dec_bits = huffman_decode(enc, book, {.workers = 1, .table_fast = false});
    });
    if (dec_bits != hsyms) huff_identical = false;
    if (huffman_decode(legacy, book) != hsyms) huff_identical = false;
    const double bits_gbps = gbps(bytes, t_bits);
    const double table_over_bits = per_worker[0] / bits_gbps;
    const double par_over_serial = per_worker[3] / per_worker[0];
    huff_table_speedup.note(f.dataset, table_over_bits);
    huff_parallel.note(f.dataset, par_over_serial);
    huff_table.add_row({f.dataset, num(per_worker[0]), num(per_worker[1]),
                        num(per_worker[2]), num(per_worker[3]),
                        num(bits_gbps), num(table_over_bits) + "x",
                        num(par_over_serial) + "x"});
  }
  std::cout << "\nGap-array Huffman decode throughput (GB/s of decoded "
               "symbols); table/bits = table-driven over bit-serial at one "
               "worker, par/serial = max workers over one worker:\n";
  huff_table.print(std::cout);

  // ---- fused vs classic decompress + 3-D z-carry scan scaling ---------------
  Worst fused_decompress;
  bool decomp_identical = true;

  bench::Table fd_table({"dataset", "fused GB/s", "classic GB/s", "ratio"});
  for (const Field& f : benchmark_suite(scale, 42)) {
    FzParams cp;
    cp.eb = ErrorBound::relative(1e-3);
    Codec compressor(cp);
    const FzCompressed comp = compressor.compress(f.values(), f.dims);

    Codec codec_on(cp);
    ReferenceGraphs classic;
    std::vector<f32> a(f.count()), b(f.count());
    const double t_on = min_seconds(
        iters, [&] { codec_on.decompress_into(comp.bytes, a); });
    const double t_off =
        min_seconds(iters, [&] { classic.decompress(comp.bytes, b); });
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(f32)) != 0)
      decomp_identical = false;
    const double fused_gbps = gbps(f.bytes(), t_on);
    const double classic_gbps = gbps(f.bytes(), t_off);
    fused_decompress.note(f.dataset, fused_gbps / classic_gbps);
    fd_table.add_row({f.dataset, num(fused_gbps), num(classic_gbps),
                      num(fused_gbps / classic_gbps) + "x"});
  }
  std::cout << "\nFused vs classic decompression (GB/s of restored f32):\n";
  fd_table.print(std::cout);

  // Chunked z-carry sweep: a flat volume (y < workers) so scan_z takes the
  // plane-granular chunked path at workers > 1 and the serial column scan
  // at workers == 1.  Bytes asserted identical at every worker count.
  std::vector<double> zscan_gbps;
  bool zscan_identical = true;
  {
    // Fixed-size volume (16 MB of i64), independent of --scale: the scan is
    // a pure memory sweep, and sub-millisecond timings on small volumes are
    // too noisy to gate on.
    const Dims zdims{1024, 1, 2048};
    const int ziters = std::max(iters, 5);
    std::vector<i64> deltas(zdims.count());
    {
      u64 state = 0x9e3779b97f4a7c15ull;
      for (auto& v : deltas) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        v = static_cast<i64>(state >> 40) - (1 << 23);
      }
    }
    std::vector<i64> reference(deltas.size());
    lorenzo_inverse(deltas, zdims, reference, /*workers=*/1);
    const size_t zbytes = deltas.size() * sizeof(i64);
    // The worker counts take turns, one sweep each per round, so a spell
    // of load from elsewhere lands on every row, not just the one being
    // timed; each row keeps its best of `ziters` sweeps.
    constexpr size_t kZWorkers[] = {1, 2, 4, 0};
    std::vector<std::vector<i64>> outs(std::size(kZWorkers),
                                       std::vector<i64>(deltas.size()));
    std::vector<double> best(std::size(kZWorkers),
                             std::numeric_limits<double>::infinity());
    for (int round = 0; round < ziters; ++round) {
      for (size_t k = 0; k < std::size(kZWorkers); ++k) {
        best[k] = std::min(best[k], min_seconds(1, [&] {
          lorenzo_inverse(deltas, zdims, outs[k], kZWorkers[k]);
        }));
      }
    }
    bench::Table z_table({"workers", "GB/s"});
    for (size_t k = 0; k < std::size(kZWorkers); ++k) {
      if (outs[k] != reference) zscan_identical = false;
      zscan_gbps.push_back(gbps(zbytes, best[k]));
      z_table.add_row({std::to_string(kZWorkers[k] == 0 ? hw_threads
                                                        : kZWorkers[k]),
                       num(zscan_gbps.back())});
    }
    std::cout << "\n3-D z-carry inverse scan thread scaling ("
              << zdims.to_string() << " flat volume):\n";
    z_table.print(std::cout);
  }

  // ---- fork/join latency ----------------------------------------------------
  // Regions of two 16 KiB tasks forced onto two participants, against the
  // same regions at a budget of 1, taking turns; median of 200 each.
  double fork_us[2] = {0, 0};
  {
    constexpr size_t kTaskWords = 2048;
    std::vector<u64> words(2 * kTaskWords, 3);
    std::atomic<u64> total{0};
    std::vector<double> us[2];
    for (int k = 0; k < 200; ++k) {
      for (size_t budget : {size_t{1}, size_t{2}}) {
        set_max_threads(budget);
        us[budget - 1].push_back(1e6 * min_seconds(1, [&] {
          parallel_tasks(2, 2, [&](size_t t, size_t) {
            u64 sum = 0;
            for (size_t i = t * kTaskWords; i < (t + 1) * kTaskWords; ++i)
              sum += words[i] * i;
            total += sum;
          });
        }));
      }
    }
    set_max_threads(0);
    for (size_t k = 0; k < 2; ++k) {
      std::nth_element(us[k].begin(), us[k].begin() + 100, us[k].end());
      fork_us[k] = us[k][100];
    }
    std::cout << "\nFork/join latency (median of 200 regions of 2 x 16 KiB):"
              << " 1 participant " << num(fork_us[0]) << " us, 2 participants "
              << num(fork_us[1]) << " us\n";
  }

  // ---- within-run gates -----------------------------------------------------
  std::cout << "\n";
  bench::Gates gates("regress");
  gates.check("stream-identity", identical,
              "every config's stream equals unfused-scalar's");
  gates.at_least("fused-speedup",
                 "best fused / unfused (" + best_speedup_dataset + ")",
                 best_speedup, 1.5);
  gates.check("huffman-identity", huff_identical,
              "every decode path returns the encoded symbols");
  gates.at_least("huffman-parallel",
                 "min max-workers / one-worker (" + huff_parallel.dataset + ")",
                 huff_parallel.ratio, 0.95);
  gates.at_least("huffman-table",
                 "min table / bit-serial (" + huff_table_speedup.dataset + ")",
                 huff_table_speedup.ratio, 2.0);
  gates.check("decompress-identity", decomp_identical,
              "fused restores the classic graph's bytes");
  gates.at_least("fused-decompress",
                 "min fused / classic (" + fused_decompress.dataset + ")",
                 fused_decompress.ratio, 0.95);
  gates.check("zscan-identity", zscan_identical,
              "chunked z-scan bytes equal the serial scan's");
  gates.at_least("zscan-scaling", "max-workers / one-worker",
                 zscan_gbps.back() / zscan_gbps.front(), 0.95);
  gates.at_most("fork-latency", "median 2-participant / 1-participant region",
                fork_us[1] / fork_us[0], 4.0);
  return gates.exit_code();
}
