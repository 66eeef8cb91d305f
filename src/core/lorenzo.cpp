#include "core/lorenzo.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"

namespace fz {

namespace {

// Forward residuals are the mixed differences:
//   1-D: d[x]     = p[x] - p[x-1]
//   2-D: d[x,y]   = p[x,y] - p[x-1,y] - p[x,y-1] + p[x-1,y-1]
//   3-D: d[x,y,z] = Σ over the 2^3 corner offsets with alternating signs.
// Out-of-range neighbours are 0 (the standard Lorenzo boundary handling).
// The sums are modulo 2^64 (see wrapping_add), the same as the fused
// kernel's: an eb tiny against the data sends llround to the ends of the
// i64 range.

void forward_1d(std::span<const i64> p, size_t nx, std::span<i64> d) {
  // Process backwards so the in-place case (d == p) stays correct.
  for (size_t x = nx; x-- > 1;) d[x] = wrapping_sub(p[x], p[x - 1]);
  d[0] = p[0];
}

void forward_2d(std::span<const i64> p, size_t nx, size_t ny, std::span<i64> d) {
  auto at = [&](size_t x, size_t y) -> i64 {
    return (x < nx && y < ny) ? p[x + nx * y] : 0;  // x,y wrap when "negative"
  };
  for (size_t y = ny; y-- > 0;) {
    for (size_t x = nx; x-- > 0;) {
      const i64 w = x > 0 ? at(x - 1, y) : 0;
      const i64 n = y > 0 ? at(x, y - 1) : 0;
      const i64 nw = (x > 0 && y > 0) ? at(x - 1, y - 1) : 0;
      d[x + nx * y] =
          wrapping_add(wrapping_sub(wrapping_sub(p[x + nx * y], w), n), nw);
    }
  }
}

void forward_3d(std::span<const i64> p, size_t nx, size_t ny, size_t nz,
                std::span<i64> d) {
  auto at = [&](size_t x, size_t y, size_t z) -> i64 {
    return p[x + nx * (y + ny * z)];
  };
  for (size_t z = nz; z-- > 0;) {
    for (size_t y = ny; y-- > 0;) {
      for (size_t x = nx; x-- > 0;) {
        i64 v = at(x, y, z);
        if (x > 0) v = wrapping_sub(v, at(x - 1, y, z));
        if (y > 0) v = wrapping_sub(v, at(x, y - 1, z));
        if (z > 0) v = wrapping_sub(v, at(x, y, z - 1));
        if (x > 0 && y > 0) v = wrapping_add(v, at(x - 1, y - 1, z));
        if (x > 0 && z > 0) v = wrapping_add(v, at(x - 1, y, z - 1));
        if (y > 0 && z > 0) v = wrapping_add(v, at(x, y - 1, z - 1));
        if (x > 0 && y > 0 && z > 0)
          v = wrapping_sub(v, at(x - 1, y - 1, z - 1));
        d[x + nx * (y + ny * z)] = v;
      }
    }
  }
}

/// An inverse scan reads and writes each i64 once.
constexpr size_t kScanBytes = 2 * sizeof(i64);

// The chunked scans below break the prefix dependence the way rapidgzip's
// inverse pass does: (1) every chunk computes its *chunk-local* scan in
// parallel, (2) one cheap serial pass globalizes each chunk's final
// line by adding the previous chunk's (already global) final line, and
// (3) a second parallel pass adds that boundary offset to every interior
// line.  Integer adds modulo 2^64 are associative, so the result is
// identical to the serial scan for every chunk count — decompression stays
// byte-exact.  Every inverse scan adds with wrapping_add: a corrupt
// stream's anchor can carry the sums past the i64 range.

/// Chunks for a chunked scan over `lines` lines of `w` elements each:
/// `workers` of them, at most one per line (0 = as many as parts_for gives).
size_t scan_chunks(size_t lines, size_t w, size_t workers) {
  return workers != 0 ? std::min(workers, lines)
                      : parts_for(lines, w * kScanBytes);
}

/// Chunked inclusive prefix sum over one 1-D array.
void scan_x_chunked_1d(std::span<i64> a, size_t nchunks) {
  const size_t n = a.size();
  const size_t per = div_ceil(n, nchunks);
  nchunks = div_ceil(n, per);
  parallel_tasks(nchunks, nchunks, [&](size_t c, size_t) {
    const size_t b = c * per;
    const size_t e = std::min(n, b + per);
    i64* p = a.data();
    for (size_t i = b + 1; i < e; ++i) p[i] = wrapping_add(p[i], p[i - 1]);
  });
  for (size_t c = 1; c < nchunks; ++c) {
    i64& last = a[std::min(n, c * per + per) - 1];
    last = wrapping_add(last, a[c * per - 1]);
  }
  parallel_tasks(nchunks - 1, nchunks - 1, [&](size_t t, size_t) {
    const size_t c = t + 1;
    const size_t b = c * per;
    const size_t e = std::min(n, b + per);
    const i64 carry = a[b - 1];
    i64* p = a.data();
    for (size_t i = b; i + 1 < e; ++i) p[i] = wrapping_add(p[i], carry);
  });
}

/// Chunked inclusive prefix sum over `lines` consecutive lines of `w`
/// elements each (line l += line l - 1): a single plane's y-scan (w = nx)
/// and a volume's z-scan (w = nx * ny), with line-granular boundaries.
void scan_lines_chunked(i64* a, size_t lines, size_t w, size_t nchunks) {
  const size_t per = div_ceil(lines, nchunks);
  nchunks = div_ceil(lines, per);
  const auto add_line = [w](i64* dst, const i64* src) {
    for (size_t i = 0; i < w; ++i) dst[i] = wrapping_add(dst[i], src[i]);
  };
  parallel_tasks(nchunks, nchunks, [&](size_t c, size_t) {
    const size_t e = std::min(lines, c * per + per);
    for (size_t l = c * per + 1; l < e; ++l)
      add_line(a + l * w, a + (l - 1) * w);
  });
  for (size_t c = 1; c < nchunks; ++c)
    add_line(a + (std::min(lines, c * per + per) - 1) * w,
             a + (c * per - 1) * w);
  parallel_tasks(nchunks - 1, nchunks - 1, [&](size_t t, size_t) {
    const size_t b = (t + 1) * per;
    const size_t e = std::min(lines, b + per);
    for (size_t l = b; l + 1 < e; ++l) add_line(a + l * w, a + (b - 1) * w);
  });
}

/// Inclusive prefix sum along x for every (y, z) line.
void scan_x(std::span<i64> a, Dims dims, size_t workers) {
  const size_t lines = dims.y * dims.z;
  // 1-D input: the whole array is one prefix chain — the only scan where
  // boundary propagation is needed to parallelize at all.
  const size_t nchunks = lines == 1 ? scan_chunks(dims.x, 1, workers) : 1;
  if (nchunks > 1) return scan_x_chunked_1d(a, nchunks);
  parallel_chunks(lines, dims.x * kScanBytes, [&](size_t b, size_t e) {
    for (size_t line = b; line < e; ++line) {
      i64* row = a.data() + line * dims.x;
      for (size_t x = 1; x < dims.x; ++x)
        row[x] = wrapping_add(row[x], row[x - 1]);
    }
  });
}

void scan_y(std::span<i64> a, Dims dims, size_t workers) {
  // Single plane (2-D input): without boundary propagation the y-scan
  // would be one serial chain of row adds.
  const size_t nchunks = dims.z == 1 ? scan_chunks(dims.y, dims.x, workers) : 1;
  if (nchunks > 1)
    return scan_lines_chunked(a.data(), dims.y, dims.x, nchunks);
  const size_t plane_bytes = dims.x * dims.y * kScanBytes;
  parallel_chunks(dims.z, plane_bytes, [&](size_t zb, size_t ze) {
    for (size_t z = zb; z < ze; ++z) {
      i64* plane = a.data() + z * dims.x * dims.y;
      for (size_t y = 1; y < dims.y; ++y)
        for (size_t x = 0; x < dims.x; ++x)
          plane[x + dims.x * y] =
              wrapping_add(plane[x + dims.x * y], plane[x + dims.x * (y - 1)]);
    }
  });
}

void scan_z(std::span<i64> a, Dims dims, size_t workers) {
  const size_t w = workers != 0 ? workers : max_threads();
  const size_t plane = dims.x * dims.y;
  // Too few y-rows to occupy the crew (flat or thin-slab volumes): chunk
  // the z-chain itself and propagate plane-granular boundary offsets.
  const size_t nchunks = dims.y < w ? scan_chunks(dims.z, plane, workers) : 1;
  if (nchunks > 1) return scan_lines_chunked(a.data(), dims.z, plane, nchunks);
  const size_t slab_bytes = dims.x * dims.z * kScanBytes;
  parallel_chunks(dims.y, slab_bytes, [&](size_t yb, size_t ye) {
    for (size_t y = yb; y < ye; ++y)
      for (size_t z = 1; z < dims.z; ++z)
        for (size_t x = 0; x < dims.x; ++x) {
          i64& v = a[x + dims.x * y + plane * z];
          v = wrapping_add(v, a[x + dims.x * y + plane * (z - 1)]);
        }
  });
}

}  // namespace

void lorenzo_forward(std::span<const i64> p, Dims dims, std::span<i64> delta) {
  FZ_REQUIRE(p.size() == dims.count() && delta.size() == p.size(),
             "lorenzo: size mismatch");
  switch (dims.rank()) {
    case 1:
      forward_1d(p, dims.x, delta);
      break;
    case 2:
      forward_2d(p, dims.x, dims.y, delta);
      break;
    default:
      forward_3d(p, dims.x, dims.y, dims.z, delta);
      break;
  }
}

void lorenzo_inverse(std::span<const i64> delta, Dims dims, std::span<i64> p,
                     size_t workers) {
  FZ_REQUIRE(delta.size() == dims.count() && p.size() == delta.size(),
             "lorenzo: size mismatch");
  if (p.data() != delta.data())
    std::copy(delta.begin(), delta.end(), p.begin());
  scan_x(p, dims, workers);
  if (dims.rank() >= 2) scan_y(p, dims, workers);
  if (dims.rank() >= 3) scan_z(p, dims, workers);
}

}  // namespace fz
