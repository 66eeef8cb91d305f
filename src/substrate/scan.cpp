#include "substrate/scan.hpp"

#include <numeric>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"

namespace fz {

void scan_exclusive_sequential(std::span<const u32> in, std::span<u32> out) {
  FZ_REQUIRE(in.size() == out.size(), "scan size mismatch");
  u32 acc = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    out[i] = acc;
    acc += in[i];
  }
}

size_t scan_chunk_count(size_t n) {
  // The second pass reads an element and writes its offset.
  return n == 0 ? 0 : parts_for(n, 2 * sizeof(u32));
}

void scan_exclusive_parallel(std::span<const u32> in, std::span<u32> out,
                             std::span<u32> scratch) {
  FZ_REQUIRE(in.size() == out.size(), "scan size mismatch");
  const size_t n = in.size();
  if (n == 0) return;
  const size_t nchunks = scan_chunk_count(n);
  const size_t chunk = div_ceil(n, nchunks);
  FZ_REQUIRE(scratch.size() >= 2 * nchunks, "scan scratch too small");
  std::span<u32> totals = scratch.subspan(0, nchunks);
  std::span<u32> offsets = scratch.subspan(nchunks, nchunks);

  // Pass 1: per-chunk totals.
  parallel_tasks(nchunks, nchunks, [&](size_t c, size_t) {
    const size_t b = c * chunk;
    const size_t e = std::min(b + chunk, n);
    u32 t = 0;
    for (size_t i = b; i < e; ++i) t += in[i];
    totals[c] = t;
  });
  // Serial scan of chunk totals (tiny).
  scan_exclusive_sequential(totals, offsets);
  // Pass 2: local scans seeded by the chunk offset.
  parallel_tasks(nchunks, nchunks, [&](size_t c, size_t) {
    const size_t b = c * chunk;
    const size_t e = std::min(b + chunk, n);
    u32 acc = offsets[c];
    for (size_t i = b; i < e; ++i) {
      out[i] = acc;
      acc += in[i];
    }
  });
}

void scan_exclusive_parallel(std::span<const u32> in, std::span<u32> out) {
  std::vector<u32> scratch(2 * scan_chunk_count(in.size()), 0);
  scan_exclusive_parallel(in, out, scratch);
}

cudasim::CostSheet scan_exclusive_device_model(std::span<const u32> in,
                                               std::span<u32> out,
                                               std::span<u32> scratch,
                                               size_t tile_size) {
  scan_exclusive_parallel(in, out, scratch);

  cudasim::CostSheet cost;
  cost.name = "cub::ExclusiveSum";
  // Kernel 1 (tile reduce) + kernel 2 (tile downsweep): the decoupled
  // look-back formulation is a single pass in CUB, but the fz encoder uses
  // the two-kernel split described in the paper (global sync by kernel
  // exit), so charge two launches.
  cost.kernel_launches = 2;
  const u64 bytes = in.size() * sizeof(u32);
  cost.global_bytes_read = 2 * bytes;       // both kernels read the input
  cost.global_bytes_written = bytes;        // downsweep writes the result
  cost.thread_ops = in.size() * 2;          // add + store per element
  // The tile-prefix scan between the kernels is serial over tile count.
  cost.serial_ns = static_cast<double>(div_ceil(in.size(), tile_size)) * 2.0;
  return cost;
}

cudasim::CostSheet scan_exclusive_device_model(std::span<const u32> in,
                                               std::span<u32> out,
                                               size_t tile_size) {
  std::vector<u32> scratch(2 * scan_chunk_count(in.size()), 0);
  return scan_exclusive_device_model(in, out, scratch, tile_size);
}

}  // namespace fz
