// Random-access regression bench: slice reads through fz::Reader vs.
// full-stream decompression, the cold/hot cache split, a many-reader
// concurrency sweep over one shared Reader, and the sequential-sweep
// prefetch hit rate.  Rows go to stdout, then one line per within-run gate
// (bench/gates.hpp); the exit status is 1, naming each failed gate, when
// any gate fails:
//
//   slice-identity   every slice equals the same region of the full decode
//   hot-hit-rate     re-reads on a warm Reader hit the cache every time
//   prefetch         the sequential sweep issues prefetches and hits them
//   hot-vs-cold      hot re-reads >= 2x cold reads (a lost gap means
//                    decodes are being repeated)
//
// Usage: random_access [--scale S] [--iters N]
#include <algorithm>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/chunked.hpp"
#include "datasets/generators.hpp"
#include "gates.hpp"
#include "reader/reader.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace fz;

using bench::gbps;
using bench::min_seconds;

/// A reproducible batch of random interior slices (each a y/z-slab window,
/// so every read touches a strict subset of the chunks).
std::vector<Slice> random_slices(Dims dims, size_t count, u64 seed) {
  Rng rng(seed);
  std::vector<Slice> slices;
  slices.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Slice s;
    s.nx = 1 + rng.below(dims.x);
    s.ny = 1 + rng.below(dims.y);
    s.nz = 1 + rng.below(std::max<size_t>(dims.z / 4, 1));
    s.x = rng.below(dims.x - s.nx + 1);
    s.y = rng.below(dims.y - s.ny + 1);
    s.z = rng.below(dims.z - s.nz + 1);
    slices.push_back(s);
  }
  return slices;
}

std::vector<f32> reference_slice(const std::vector<f32>& full, Dims d,
                                 const Slice& s) {
  std::vector<f32> out(s.count());
  for (size_t z = 0; z < s.nz; ++z)
    for (size_t y = 0; y < s.ny; ++y)
      for (size_t x = 0; x < s.nx; ++x)
        out[(z * s.ny + y) * s.nx + x] =
            full[d.linear(s.x + x, s.y + y, s.z + z)];
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.12;
  int iters = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--scale" && i + 1 < argc) scale = std::stod(argv[++i]);
    else if (arg == "--iters" && i + 1 < argc) iters = std::stoi(argv[++i]);
    else {
      std::cerr << "usage: random_access [--scale S] [--iters N]\n";
      return 2;
    }
  }

  const size_t hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const Field field = generate_field(
      Dataset::Hurricane, scaled_dims(Dataset::Hurricane, std::max(scale, 0.05)),
      42);
  const Dims dims = field.dims;

  ChunkedParams params;
  params.num_chunks = 16;
  const ChunkedCompressed comp = fz_compress_chunked(field.values(), dims, params);
  const std::vector<f32> full = fz_decompress_chunked(comp.bytes).data;
  const size_t chunks = fz_chunk_count(comp.bytes);

  std::cout << "random-access bench: scale=" << scale << " iters=" << iters
            << " dims=" << dims.to_string() << " chunks=" << chunks
            << " hw threads=" << hw_threads << "\n\n";

  // ---- baseline: full-stream decompression ---------------------------------
  const double full_secs =
      min_seconds(iters, [&] { (void)fz_decompress_chunked(comp.bytes); });
  const double full_gbps = gbps(full.size() * sizeof(f32), full_secs);
  std::printf("%-28s %8.3f GB/s\n", "full-stream decompress", full_gbps);

  // ---- correctness + cold/hot random slices --------------------------------
  const std::vector<Slice> slices = random_slices(dims, 24, 7);
  size_t slice_bytes = 0;
  for (const Slice& s : slices) slice_bytes += s.count() * sizeof(f32);

  bool byte_identical = true;
  {
    Reader reader(comp.bytes, ReaderOptions{});
    for (const Slice& s : slices) {
      const std::vector<f32> got = reader.read(s);
      const std::vector<f32> want = reference_slice(full, dims, s);
      byte_identical &= got.size() == want.size() &&
                        std::memcmp(got.data(), want.data(),
                                    want.size() * sizeof(f32)) == 0;
    }
  }

  // Cold: a fresh Reader per pass, so every slice decodes its chunks.
  std::vector<f32> out(dims.count());
  const double cold_secs = min_seconds(iters, [&] {
    Reader reader(comp.bytes, ReaderOptions{});
    for (const Slice& s : slices)
      reader.read(s, std::span<f32>(out.data(), s.count()));
  });
  const double cold_gbps = gbps(slice_bytes, cold_secs);

  // Hot: one warmed Reader, every chunk already decoded and resident.
  Reader hot_reader(comp.bytes, ReaderOptions{});
  for (const Slice& s : slices)
    hot_reader.read(s, std::span<f32>(out.data(), s.count()));
  const ReaderStats warm_base = hot_reader.stats();
  const double hot_secs = min_seconds(iters, [&] {
    for (const Slice& s : slices)
      hot_reader.read(s, std::span<f32>(out.data(), s.count()));
  });
  const double hot_gbps = gbps(slice_bytes, hot_secs);
  const ReaderStats warm_end = hot_reader.stats();
  const u64 hot_accesses = (warm_end.hits + warm_end.misses) -
                           (warm_base.hits + warm_base.misses);
  const double hot_hit_rate =
      hot_accesses == 0
          ? 0.0
          : static_cast<double>(warm_end.hits - warm_base.hits) /
                static_cast<double>(hot_accesses);
  std::printf("%-28s %8.3f GB/s\n", "random slices (cold cache)", cold_gbps);
  std::printf("%-28s %8.3f GB/s  (hit rate %.2f)\n",
              "random slices (hot cache)", hot_gbps, hot_hit_rate);

  // ---- many-reader concurrency sweep over one shared Reader ----------------
  std::vector<size_t> caller_counts{1, 2, 4};
  if (hw_threads > 4) caller_counts.push_back(hw_threads);
  for (const size_t callers : caller_counts) {
    Reader reader(comp.bytes, ReaderOptions{});
    // Warm once so the sweep measures concurrent cache service, not a
    // decode race (the cold path is covered above).
    for (const Slice& s : slices)
      reader.read(s, std::span<f32>(out.data(), s.count()));
    const double secs = min_seconds(iters, [&] {
      std::vector<std::thread> crew;
      crew.reserve(callers);
      for (size_t c = 0; c < callers; ++c) {
        crew.emplace_back([&, c] {
          std::vector<f32> mine(dims.count());
          const std::vector<Slice> batch = random_slices(dims, 24, 100 + c);
          for (const Slice& s : batch)
            reader.read(s, std::span<f32>(mine.data(), s.count()));
        });
      }
      for (auto& t : crew) t.join();
    });
    // Aggregate bytes: every caller reads its own 24-slice batch.
    size_t batch_bytes = 0;
    for (size_t c = 0; c < callers; ++c)
      for (const Slice& s : random_slices(dims, 24, 100 + c))
        batch_bytes += s.count() * sizeof(f32);
    std::printf("shared reader, %2zu callers  %8.3f GB/s\n", callers,
                gbps(batch_bytes, secs));
  }

  // ---- sequential sweep: prefetch effectiveness ----------------------------
  telemetry::Sink sink;
  ReaderOptions sweep_options;
  sweep_options.telemetry = &sink;
  Reader sweep_reader(comp.bytes, sweep_options);
  const size_t step = std::max<size_t>(dims.z / chunks, 1);
  for (size_t z = 0; z + step <= dims.z; z += step) {
    Slice s;
    s.z = z;
    s.nx = dims.x;
    s.ny = dims.y;
    s.nz = step;
    sweep_reader.read(s, std::span<f32>(out.data(), s.count()));
  }
  const ReaderStats sweep = sweep_reader.stats();
  std::printf("%-28s issued %llu, hits %llu\n", "sequential-sweep prefetch",
              static_cast<unsigned long long>(sweep.prefetch_issued),
              static_cast<unsigned long long>(sweep.prefetch_hits));

  std::cout << "\n";
  bench::Gates gates("random_access");
  gates.check("slice-identity", byte_identical,
              "every slice equals the full decompress");
  gates.check("hot-hit-rate", hot_hit_rate >= 1.0,
              bench::format("%.2f, need 1.00", hot_hit_rate));
  gates.check("prefetch", sweep.prefetch_issued > 0 && sweep.prefetch_hits > 0,
              bench::format("issued %llu, hits %llu, need both > 0",
                            static_cast<unsigned long long>(sweep.prefetch_issued),
                            static_cast<unsigned long long>(sweep.prefetch_hits)));
  gates.at_least("hot-vs-cold", "hot / cold",
                 hot_gbps / std::max(cold_gbps, 1e-12), 2.0);
  return gates.exit_code();
}
