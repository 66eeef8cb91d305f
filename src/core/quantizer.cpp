#include "core/quantizer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"

namespace fz {

namespace {

// Chunked grain for the trivial per-element loops: one atomic claim per
// 32Ki elements instead of one per element in the task-crew fallback.
constexpr size_t kQuantGrain = size_t{1} << 15;

template <typename T>
void prequantize_impl(std::span<const T> data, double eb, std::span<i64> out) {
  FZ_REQUIRE(eb > 0, "error bound must be positive");
  FZ_REQUIRE(data.size() == out.size(), "prequantize: size mismatch");
  const double inv = 1.0 / (2.0 * eb);
  parallel_chunks(data.size(), kQuantGrain, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i)
      out[i] =
          static_cast<i64>(std::llround(static_cast<double>(data[i]) * inv));
  });
}

/// out[i] = p[i] · 2eb, plus the strip carry of i under a multi-strip plan
/// (see StripPlan).  One parallel pass either way.
template <typename T>
void dequantize_impl(std::span<const i64> p, double eb, std::span<T> out,
                     const StripPlan& plan, std::span<const i64> carries) {
  FZ_REQUIRE(p.size() == out.size(), "dequantize: size mismatch");
  const double scale = 2.0 * eb;
  const auto dq = [scale](i64 v) {
    return static_cast<T>(static_cast<double>(v) * scale);
  };
  if (plan.strips <= 1) {
    parallel_chunks(p.size(), kQuantGrain, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) out[i] = dq(p[i]);
    });
    return;
  }
  FZ_REQUIRE(plan.planes * plan.plane_elems == p.size() &&
                 carries.size() == plan.carry_elems(),
             "dequantize: strip plan mismatch");
  const size_t pe = plan.plane_elems;
  parallel_chunks(p.size(), kQuantGrain, [&](size_t b, size_t e) {
    size_t s = 0;
    for (size_t i = b; i < e;) {
      while (plan.first_plane(s + 1) * pe <= i) ++s;
      const size_t end = std::min(e, plan.first_plane(s + 1) * pe);
      if (s == 0) {
        for (; i < end; ++i) out[i] = dq(p[i]);
        continue;
      }
      const i64* carry = carries.data() + (s - 1) * pe;
      if (pe == 1) {  // 1-D: one carry value per strip
        for (; i < end; ++i) out[i] = dq(wrapping_add(p[i], carry[0]));
        continue;
      }
      // The carry hyperplane repeats every pe elements of the strip.
      for (size_t j = i % pe; i < end; j = 0) {
        const size_t n = std::min(end - i, pe - j);
        for (size_t k = 0; k < n; ++k)
          out[i + k] = dq(wrapping_add(p[i + k], carry[j + k]));
        i += n;
      }
    }
  });
}

}  // namespace

void prequantize(FloatSpan data, double eb, std::span<i64> out) {
  prequantize_impl(data, eb, out);
}
void prequantize(std::span<const f64> data, double eb, std::span<i64> out) {
  prequantize_impl(data, eb, out);
}

void dequantize(std::span<const i64> p, double eb, std::span<f32> out,
                const StripPlan& plan, std::span<const i64> carries) {
  dequantize_impl(p, eb, out, plan, carries);
}
void dequantize(std::span<const i64> p, double eb, std::span<f64> out,
                const StripPlan& plan, std::span<const i64> carries) {
  dequantize_impl(p, eb, out, plan, carries);
}

size_t quant_encode_v2(std::span<const i64> deltas, std::span<u16> codes) {
  FZ_REQUIRE(codes.size() == deltas.size(), "quant: size mismatch");
  std::atomic<size_t> saturated{0};
  parallel_chunks(deltas.size(), 1 << 16, [&](size_t b, size_t e) {
    size_t local_sat = 0;
    for (size_t i = b; i < e; ++i) {
      const i64 d = deltas[i];
      if (sign_magnitude_saturates(d)) ++local_sat;
      // Narrowing to i32 after saturation check keeps the helper simple.
      const i64 clipped =
          d > kMaxMagnitude16 ? kMaxMagnitude16
                              : (d < -kMaxMagnitude16 ? -kMaxMagnitude16 : d);
      codes[i] = sign_magnitude_encode(static_cast<i32>(clipped));
    }
    if (local_sat != 0) saturated.fetch_add(local_sat, std::memory_order_relaxed);
  });
  return saturated.load();
}

QuantV2Result quant_encode_v2(std::span<const i64> deltas) {
  QuantV2Result r;
  r.codes.resize(deltas.size());
  r.saturated = quant_encode_v2(deltas, r.codes);
  return r;
}

void quant_decode_v2(std::span<const u16> codes, std::span<i64> deltas) {
  FZ_REQUIRE(codes.size() == deltas.size(), "quant: size mismatch");
  parallel_chunks(codes.size(), size_t{1} << 16, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) deltas[i] = sign_magnitude_decode(codes[i]);
  });
}

void quant_encode_v1(std::span<const i64> deltas, u32 radius,
                     std::span<u16> codes, std::vector<Outlier>& outliers) {
  FZ_REQUIRE(radius >= 2 && radius <= 0x4000, "bad radius");
  FZ_REQUIRE(codes.size() == deltas.size(), "quant: size mismatch");
  outliers.clear();
  // Outlier collection is order-dependent; run sequentially per chunk and
  // merge (outliers are rare so the merge is cheap).
  std::vector<std::vector<Outlier>> partial(
      static_cast<size_t>(max_threads()) + 1);
  const size_t chunk = div_ceil(deltas.size(), partial.size());
  parallel_for(0, partial.size(), [&](size_t c) {
    const size_t b = c * chunk;
    const size_t e = std::min(b + chunk, deltas.size());
    for (size_t i = b; i < e; ++i) {
      const i64 d = deltas[i];
      if (d > -static_cast<i64>(radius) && d < static_cast<i64>(radius)) {
        codes[i] = static_cast<u16>(d + radius);
      } else {
        codes[i] = 0;
        partial[c].push_back({i, d});
      }
    }
  });
  for (const auto& p : partial)
    outliers.insert(outliers.end(), p.begin(), p.end());
}

QuantV1Result quant_encode_v1(std::span<const i64> deltas, u32 radius) {
  QuantV1Result r;
  r.radius = radius;
  r.codes.resize(deltas.size());
  quant_encode_v1(deltas, radius, r.codes, r.outliers);
  return r;
}

void quant_decode_v1(const QuantV1Result& q, std::span<i64> deltas) {
  FZ_REQUIRE(q.codes.size() == deltas.size(), "quant: size mismatch");
  const i64 radius = q.radius;
  parallel_for(0, q.codes.size(), [&](size_t i) {
    deltas[i] = static_cast<i64>(q.codes[i]) - radius;  // code 0 fixed up below
  });
  for (const Outlier& o : q.outliers) deltas[o.index] = o.delta;
  // Non-outlier zeros cannot occur: code 0 is reserved for outliers.
  return;
}

}  // namespace fz
