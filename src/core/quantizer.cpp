#include "core/quantizer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/pipeline.hpp"
#include "telemetry/telemetry.hpp"

namespace fz {

namespace {

/// |p| at or past this leaves too little of the i64 range for llround.
constexpr double kMaxPrequant = 0x1p62;

/// Throw ParamError on "eb"; `format` takes the bound and a magnitude.
[[noreturn]] void reject_eb(const char* format, double abs_eb,
                            double max_abs) {
  char message[192];
  std::snprintf(message, sizeof(message), format, abs_eb, max_abs);
  throw ParamError({{"eb", message}});
}

template <typename T>
double resolve_abs_eb_impl(std::span<const T> data, const ErrorBound& eb,
                           std::span<T> log_values, telemetry::Sink* sink) {
  const ValueRange<T> r = parallel_range(data);
  FZ_REQUIRE(r.finite,
             "input contains NaN/Inf; error-bounded compression requires "
             "finite data");
  const double lo = static_cast<double>(r.lo);
  const double hi = static_cast<double>(r.hi);
  const bool log_transform = eb.mode == ErrorBoundMode::PointwiseRelative;
  double abs_eb = eb.value;
  double max_abs = std::max(std::fabs(lo), std::fabs(hi));
  if (log_transform) {
    // Realized via the log transform: an absolute bound of log(1+rel) on
    // log-space data bounds each value's relative error by rel (Liang et
    // al., the paper's HACC protocol, §4.1).
    FZ_REQUIRE(eb.value > 0 && eb.value < 1,
               "point-wise relative bound must be in (0, 1)");
    FZ_REQUIRE(lo > 0,
               "point-wise relative bounds require strictly positive data "
               "(apply an offset or use an absolute bound)");
    FZ_REQUIRE(log_values.size() == data.size(),
               "resolve: log storage size mismatch");
    abs_eb = std::log1p(eb.value);
    // log is monotonic: the logs of lo and hi bound every log value.
    const auto log_abs = [](double x) {
      return std::fabs(static_cast<double>(static_cast<T>(std::log(x))));
    };
    max_abs = std::max(log_abs(lo), log_abs(hi));
  } else if (eb.mode == ErrorBoundMode::Relative) {
    double range = hi - lo;
    if (range <= 0) {
      // Degenerate constant field: scale the relative bound by the value
      // magnitude instead (any positive bound reproduces it exactly
      // anyway).
      range = std::max(std::fabs(hi), 1.0);
    }
    abs_eb = eb.resolve(range);
  }

  // Pre-quantization computes llround(x * (1 / (2 abs_eb))).
  const double inv = 1.0 / (2.0 * abs_eb);
  if (!(abs_eb > 0) || !std::isfinite(abs_eb) || !std::isfinite(inv))
    reject_eb("resolved error bound %g is not representable: it and "
              "1/(2*eb) must be positive and finite",
              abs_eb, max_abs);
  if (max_abs * inv >= kMaxPrequant)
    reject_eb("error bound %g is too tight for data of magnitude %g: "
              "|value| / (2*eb) reaches 2^62, past the pre-quantizer's "
              "integer range",
              abs_eb, max_abs);

  if (log_transform) {
    telemetry::Span span(sink, "log-transform");
    parallel_chunks(data.size(), 2 * sizeof(T), [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i)
        log_values[i] =
            static_cast<T>(std::log(static_cast<double>(data[i])));
    });
  }
  return abs_eb;
}

template <typename T>
void prequantize_impl(std::span<const T> data, double eb, std::span<i64> out) {
  FZ_REQUIRE(eb > 0, "error bound must be positive");
  FZ_REQUIRE(data.size() == out.size(), "prequantize: size mismatch");
  const double inv = 1.0 / (2.0 * eb);
  constexpr size_t kItemBytes = sizeof(T) + sizeof(i64);
  parallel_chunks(data.size(), kItemBytes, [&](size_t b, size_t e) {
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
  constexpr size_t kItemBytes = sizeof(i64) + sizeof(T);
  if (plan.strips <= 1) {
    parallel_chunks(p.size(), kItemBytes, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) out[i] = dq(p[i]);
    });
    return;
  }
  FZ_REQUIRE(plan.planes * plan.plane_elems == p.size() &&
                 carries.size() == plan.carry_elems(),
             "dequantize: strip plan mismatch");
  const size_t pe = plan.plane_elems;
  parallel_chunks(p.size(), kItemBytes, [&](size_t b, size_t e) {
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

double resolve_abs_eb(FloatSpan data, const ErrorBound& eb,
                      std::span<f32> log_values, telemetry::Sink* sink) {
  return resolve_abs_eb_impl(data, eb, log_values, sink);
}
double resolve_abs_eb(std::span<const f64> data, const ErrorBound& eb,
                      std::span<f64> log_values, telemetry::Sink* sink) {
  return resolve_abs_eb_impl(data, eb, log_values, sink);
}

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
  constexpr size_t kItemBytes = sizeof(i64) + sizeof(u16);
  parallel_chunks(deltas.size(), kItemBytes, [&](size_t b, size_t e) {
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
  constexpr size_t kItemBytes = sizeof(u16) + sizeof(i64);
  parallel_chunks(codes.size(), kItemBytes, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) deltas[i] = sign_magnitude_decode(codes[i]);
  });
}

void quant_encode_v1(std::span<const i64> deltas, u32 radius,
                     std::span<u16> codes, std::vector<Outlier>& outliers) {
  FZ_REQUIRE(radius >= 2 && radius <= 0x4000, "bad radius");
  FZ_REQUIRE(codes.size() == deltas.size(), "quant: size mismatch");
  outliers.clear();
  // Outlier collection is order-dependent; run sequentially per part and
  // merge in part order (outliers are rare so the merge is cheap).
  const size_t n = deltas.size();
  const size_t parts = parts_for(n, sizeof(i64) + sizeof(u16));
  std::vector<std::vector<Outlier>> partial(parts);
  parallel_tasks(parts, parts, [&](size_t c, size_t) {
    for (size_t i = n * c / parts; i < n * (c + 1) / parts; ++i) {
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
  parallel_for(0, q.codes.size(), sizeof(u16) + sizeof(i64), [&](size_t i) {
    deltas[i] = static_cast<i64>(q.codes[i]) - radius;  // code 0 fixed up below
  });
  for (const Outlier& o : q.outliers) deltas[o.index] = o.delta;
  // Non-outlier zeros cannot occur: code 0 is reserved for outliers.
  return;
}

}  // namespace fz
