#include "metrics/ssim.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace fz {

namespace {

/// SSIM of one window pair given accumulated moments.
double ssim_from_moments(double sum_a, double sum_b, double sum_aa,
                         double sum_bb, double sum_ab, double n, double c1,
                         double c2) {
  const double mu_a = sum_a / n;
  const double mu_b = sum_b / n;
  const double var_a = std::max(sum_aa / n - mu_a * mu_a, 0.0);
  const double var_b = std::max(sum_bb / n - mu_b * mu_b, 0.0);
  const double cov = sum_ab / n - mu_a * mu_b;
  const double num = (2 * mu_a * mu_b + c1) * (2 * cov + c2);
  const double den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2);
  return den == 0 ? 1.0 : num / den;
}

double dynamic_range(FloatSpan a) {
  const auto [lo, hi] = std::minmax_element(a.begin(), a.end());
  return static_cast<double>(*hi) - static_cast<double>(*lo);
}

}  // namespace

double ssim_2d(FloatSpan a, FloatSpan b, size_t nx, size_t ny,
               const SsimParams& params) {
  FZ_REQUIRE(a.size() == b.size() && a.size() == nx * ny, "ssim: size mismatch");
  const int w = params.window;
  FZ_REQUIRE(w > 0 && static_cast<size_t>(w) <= nx && static_cast<size_t>(w) <= ny,
             "ssim: window larger than field");
  const double range = dynamic_range(a);
  const double c1 = (params.k1 * range) * (params.k1 * range);
  const double c2 = (params.k2 * range) * (params.k2 * range);
  const size_t stride = static_cast<size_t>(std::max(params.stride, 1));

  const size_t wy_count = (ny - static_cast<size_t>(w)) / stride + 1;
  std::vector<double> row_sums(wy_count, 0.0);
  std::vector<u64> row_counts(wy_count, 0);
  // A row of windows reads w rows of both fields.
  const size_t row_bytes = 2 * static_cast<size_t>(w) * nx * sizeof(f32);
  parallel_for(0, wy_count, row_bytes, [&](size_t wy_idx) {
    const size_t wy = wy_idx * stride;
    double acc = 0;
    u64 cnt = 0;
    for (size_t wx = 0; wx + static_cast<size_t>(w) <= nx; wx += stride) {
      double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
      for (int dy = 0; dy < w; ++dy) {
        const size_t base = wx + nx * (wy + static_cast<size_t>(dy));
        for (int dx = 0; dx < w; ++dx) {
          const double va = a[base + static_cast<size_t>(dx)];
          const double vb = b[base + static_cast<size_t>(dx)];
          sa += va;
          sb += vb;
          saa += va * va;
          sbb += vb * vb;
          sab += va * vb;
        }
      }
      acc += ssim_from_moments(sa, sb, saa, sbb, sab,
                               static_cast<double>(w) * w, c1, c2);
      ++cnt;
    }
    row_sums[wy_idx] = acc;
    row_counts[wy_idx] = cnt;
  });
  double total = 0;
  u64 count = 0;
  for (size_t i = 0; i < wy_count; ++i) {
    total += row_sums[i];
    count += row_counts[i];
  }
  return count == 0 ? 1.0 : total / static_cast<double>(count);
}

double ssim_field(FloatSpan a, FloatSpan b, Dims dims, const SsimParams& params) {
  FZ_REQUIRE(a.size() == b.size() && a.size() == dims.count(), "ssim: size mismatch");
  if (dims.rank() == 1) {
    // 1-D: windows along the only axis.
    const double range = dynamic_range(a);
    const double c1 = (params.k1 * range) * (params.k1 * range);
    const double c2 = (params.k2 * range) * (params.k2 * range);
    const size_t w = static_cast<size_t>(params.window) * params.window;
    if (a.size() < w) return 1.0;
    double total = 0;
    u64 count = 0;
    for (size_t off = 0; off + w <= a.size();
         off += static_cast<size_t>(std::max(params.stride, 1)) * 8) {
      double sa = 0, sb = 0, saa = 0, sbb = 0, sab = 0;
      for (size_t i = off; i < off + w; ++i) {
        const double va = a[i], vb = b[i];
        sa += va;
        sb += vb;
        saa += va * va;
        sbb += vb * vb;
        sab += va * vb;
      }
      total += ssim_from_moments(sa, sb, saa, sbb, sab, static_cast<double>(w),
                                 c1, c2);
      ++count;
    }
    return count == 0 ? 1.0 : total / static_cast<double>(count);
  }
  if (dims.rank() == 2) return ssim_2d(a, b, dims.x, dims.y, params);
  // 3-D: mean over z-slices (with a stride-sized step to bound cost on
  // large fields).
  double total = 0;
  u64 count = 0;
  const size_t plane = dims.x * dims.y;
  for (size_t iz = 0; iz < dims.z; ++iz) {
    total += ssim_2d(a.subspan(iz * plane, plane), b.subspan(iz * plane, plane),
                     dims.x, dims.y, params);
    ++count;
  }
  return total / static_cast<double>(count);
}

}  // namespace fz
