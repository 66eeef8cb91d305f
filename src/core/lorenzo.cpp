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

/// Chunk grain for line-parallel scans: enough lines per claim that the
/// task-crew fallback pays one atomic per ~16Ki elements, not per line.
size_t line_grain(size_t line_len) {
  return std::max<size_t>(1, (size_t{1} << 14) / std::max<size_t>(1, line_len));
}

/// Deterministic chunk count for the boundary-propagation scans: at most
/// one chunk per worker (0 = hardware threads), each covering at least
/// `min_per` lines so the two extra passes stay negligible.
size_t scan_chunk_split(size_t lines, size_t workers, size_t min_per) {
  size_t w = workers != 0 ? workers : static_cast<size_t>(max_threads());
  w = std::min(w, lines / std::max<size_t>(min_per, 1));
  return std::max<size_t>(w, 1);
}

// The axis scans below break the prefix dependence the way rapidgzip's
// inverse pass does: (1) every chunk computes its *chunk-local* scan in
// parallel, (2) one cheap serial pass globalizes each chunk's final
// line by adding the previous chunk's (already global) final line, and
// (3) a second parallel pass adds that boundary offset to every interior
// line.  Integer adds are associative, so the result is identical to the
// serial scan for every chunk count — decompression stays byte-exact.

/// Chunked inclusive prefix sum over one 1-D array.
void scan_x_chunked_1d(std::span<i64> a, size_t nchunks) {
  const size_t n = a.size();
  const size_t per = div_ceil(n, nchunks);
  nchunks = div_ceil(n, per);
  parallel_tasks(nchunks, nchunks, [&](size_t c, size_t) {
    const size_t b = c * per;
    const size_t e = std::min(n, b + per);
    i64* p = a.data();
    for (size_t i = b + 1; i < e; ++i) p[i] += p[i - 1];
  });
  for (size_t c = 1; c < nchunks; ++c)
    a[std::min(n, c * per + per) - 1] += a[c * per - 1];
  parallel_tasks(nchunks - 1, nchunks - 1, [&](size_t t, size_t) {
    const size_t c = t + 1;
    const size_t b = c * per;
    const size_t e = std::min(n, b + per);
    const i64 carry = a[b - 1];
    i64* p = a.data();
    for (size_t i = b; i + 1 < e; ++i) p[i] += carry;
  });
}

/// Chunked y-scan over a single plane (row-granular boundary offsets).
void scan_y_chunked_plane(i64* plane, size_t nx, size_t ny, size_t nchunks) {
  const size_t per = div_ceil(ny, nchunks);
  nchunks = div_ceil(ny, per);
  parallel_tasks(nchunks, nchunks, [&](size_t c, size_t) {
    const size_t yb = c * per;
    const size_t ye = std::min(ny, yb + per);
    for (size_t y = yb + 1; y < ye; ++y)
      for (size_t x = 0; x < nx; ++x)
        plane[x + nx * y] += plane[x + nx * (y - 1)];
  });
  for (size_t c = 1; c < nchunks; ++c) {
    i64* last = plane + (std::min(ny, c * per + per) - 1) * nx;
    const i64* prev = plane + (c * per - 1) * nx;
    for (size_t x = 0; x < nx; ++x) last[x] += prev[x];
  }
  parallel_tasks(nchunks - 1, nchunks - 1, [&](size_t t, size_t) {
    const size_t c = t + 1;
    const size_t yb = c * per;
    const size_t ye = std::min(ny, yb + per);
    const i64* carry = plane + (yb - 1) * nx;
    for (size_t y = yb; y + 1 < ye; ++y)
      for (size_t x = 0; x < nx; ++x) plane[x + nx * y] += carry[x];
  });
}

/// Inclusive prefix sum along x for every (y, z) line.
void scan_x(std::span<i64> a, Dims dims, size_t workers) {
  const size_t lines = dims.y * dims.z;
  if (lines == 1) {
    // 1-D input: the whole array is one prefix chain — the only scan where
    // boundary propagation is needed to parallelize at all.
    const size_t nchunks = scan_chunk_split(dims.x, workers, size_t{1} << 15);
    if (nchunks > 1) {
      scan_x_chunked_1d(a, nchunks);
      return;
    }
  }
  parallel_chunks(lines, line_grain(dims.x), [&](size_t b, size_t e) {
    for (size_t line = b; line < e; ++line) {
      i64* row = a.data() + line * dims.x;
      for (size_t x = 1; x < dims.x; ++x) row[x] += row[x - 1];
    }
  });
}

void scan_y(std::span<i64> a, Dims dims, size_t workers) {
  if (dims.z == 1) {
    // Single plane (2-D input): without boundary propagation the y-scan
    // would be one serial chain of row adds.
    const size_t nchunks = scan_chunk_split(dims.y, workers, 32);
    if (nchunks > 1) {
      scan_y_chunked_plane(a.data(), dims.x, dims.y, nchunks);
      return;
    }
  }
  parallel_chunks(dims.z, line_grain(dims.x * dims.y), [&](size_t zb, size_t ze) {
    for (size_t z = zb; z < ze; ++z) {
      i64* plane = a.data() + z * dims.x * dims.y;
      for (size_t y = 1; y < dims.y; ++y)
        for (size_t x = 0; x < dims.x; ++x)
          plane[x + dims.x * y] += plane[x + dims.x * (y - 1)];
    }
  });
}

/// Chunked z-scan with plane-granular boundary offsets — the 3-D analogue
/// of scan_y_chunked_plane: chunk-local z-scans in parallel, one serial
/// pass globalizing each chunk's final plane, then a parallel interior
/// carry-add of that plane.
void scan_z_chunked(std::span<i64> a, size_t nx, size_t ny, size_t nz,
                    size_t nchunks) {
  const size_t plane = nx * ny;
  const size_t per = div_ceil(nz, nchunks);
  nchunks = div_ceil(nz, per);
  parallel_tasks(nchunks, nchunks, [&](size_t c, size_t) {
    const size_t zb = c * per;
    const size_t ze = std::min(nz, zb + per);
    for (size_t z = zb + 1; z < ze; ++z)
      for (size_t i = 0; i < plane; ++i)
        a[i + plane * z] += a[i + plane * (z - 1)];
  });
  for (size_t c = 1; c < nchunks; ++c) {
    i64* last = a.data() + (std::min(nz, c * per + per) - 1) * plane;
    const i64* prev = a.data() + (c * per - 1) * plane;
    for (size_t i = 0; i < plane; ++i) last[i] += prev[i];
  }
  parallel_tasks(nchunks - 1, nchunks - 1, [&](size_t t, size_t) {
    const size_t c = t + 1;
    const size_t zb = c * per;
    const size_t ze = std::min(nz, zb + per);
    const i64* carry = a.data() + (zb - 1) * plane;
    for (size_t z = zb; z + 1 < ze; ++z)
      for (size_t i = 0; i < plane; ++i) a[i + plane * z] += carry[i];
  });
}

void scan_z(std::span<i64> a, Dims dims, size_t workers) {
  const size_t w = workers != 0 ? workers : static_cast<size_t>(max_threads());
  if (dims.y < w) {
    // Too few y-rows to occupy the crew (flat or thin-slab volumes): chunk
    // the z-chain itself and propagate plane-granular boundary offsets.
    const size_t nchunks = scan_chunk_split(dims.z, workers, 4);
    if (nchunks > 1) {
      scan_z_chunked(a, dims.x, dims.y, dims.z, nchunks);
      return;
    }
  }
  const size_t plane = dims.x * dims.y;
  parallel_chunks(dims.y, line_grain(dims.x * dims.z), [&](size_t yb, size_t ye) {
    for (size_t y = yb; y < ye; ++y)
      for (size_t z = 1; z < dims.z; ++z)
        for (size_t x = 0; x < dims.x; ++x)
          a[x + dims.x * y + plane * z] += a[x + dims.x * y + plane * (z - 1)];
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
