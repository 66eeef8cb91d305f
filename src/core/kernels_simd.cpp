#include "core/kernels_simd.hpp"

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstring>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/bitshuffle.hpp"
#include "core/format.hpp"
#include "telemetry/telemetry.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FZ_SIMD_X86 1
#endif

namespace fz {

namespace {

// 1-D strips are fused in chunks of this many elements (one chunk of i64
// scratch stays far under L2 alongside the 4 KiB tile buffer).
constexpr size_t kFusedChunk1D = 4096;

// ---- scalar reference rows -------------------------------------------------
//
// These are the exact per-element expressions from quantizer.cpp; the SIMD
// tiers must reproduce them bit-for-bit and fall back to them for tails and
// out-of-range lane groups.

inline i64 prequant_one(double v, double inv) {
  return static_cast<i64>(std::llround(v * inv));
}

// The f32 fast path: one float multiply + lrintf, *guaranteed* to match
// the exact double path bit-for-bit.  x32 = fl32(v * fl32(inv)) differs
// from the double product by at most |x|*2^-23 (two f32 roundings), so the
// rounded integer can only disagree when x32 sits within that radius of a
// half-integer boundary — the margin test below sends exactly those lanes
// (and ties, which land inside the margin by construction) to the exact
// path.  The fast range is capped at 2^21, where the margin is still
// meaningfully below 0.5; beyond it every element takes the exact path.
// Callers must also verify fl32(inv) is a *normal* float (f32_fast_ok) —
// a subnormal/overflowed multiplier voids the relative-error bound.
constexpr float kF32FastLimit = 2097152.0f;  // 2^21

inline i64 prequant_one_f32fast(f32 v, double inv, float invf) {
  const float x = v * invf;
  const float ax = std::fabs(x);
  if (!(ax < kF32FastLimit)) return prequant_one(static_cast<double>(v), inv);
  const long r = std::lrintf(x);
  const float diff = std::fabs(x - static_cast<float>(r));
  const float margin = ax * 0x1p-22f + 0x1p-24f;
  if (!(diff < 0.5f - margin)) return prequant_one(static_cast<double>(v), inv);
  return r;
}

/// True when the fast path's error analysis holds: the f32-rounded
/// multiplier must be normal and finite.
inline bool f32_fast_ok(double inv) {
  return inv >= static_cast<double>(FLT_MIN) &&
         inv <= static_cast<double>(FLT_MAX);
}

template <typename T>
void prequant_row_scalar(const T* data, size_t n, double inv, i64* out) {
  for (size_t i = 0; i < n; ++i)
    out[i] = prequant_one(static_cast<double>(data[i]), inv);
}

void prequant_row_f32fast_scalar(const f32* data, size_t n, double inv,
                                 float invf, i64* out) {
  for (size_t i = 0; i < n; ++i)
    out[i] = prequant_one_f32fast(data[i], inv, invf);
}

inline u16 clip_encode_one(i64 v, size_t& sat) {
  if (sign_magnitude_saturates(v)) ++sat;
  const i64 clipped = v > kMaxMagnitude16
                          ? kMaxMagnitude16
                          : (v < -kMaxMagnitude16 ? -kMaxMagnitude16 : v);
  return sign_magnitude_encode(static_cast<i32>(clipped));
}

size_t encode_row_scalar(const i64* d, size_t n, u16* codes) {
  size_t sat = 0;
  for (size_t i = 0; i < n; ++i) codes[i] = clip_encode_one(d[i], sat);
  return sat;
}

// ---- fused Lorenzo delta + encode rows -------------------------------------
//
// The tile-parallel strip body computes the Lorenzo residual and the
// sign-magnitude code in one kernel, so no delta row is ever stored and
// reloaded.  Writing d[i] = s[i] - s[i-1] with
// s the rank-specific prediction sum (s = p in 1-D, cur - prev in 2-D,
// cur - prev - ppy + ppy1 in 3-D) makes the three ranks share one shape.
// `has_left` distinguishes a mid-row segment (element 0 has an in-row left
// neighbour) from a row start, whose delta drops every [i-1] term — exactly
// lorenzo_forward at x = 0.  1-D has no flag: the caller keeps a carry slot
// at p[-1] (zero at the very start).  All arithmetic is modulo 2^64
// (wrapping_add/wrapping_sub here, paddq/psubq in the vector tiers), so
// every tier is bit-identical by construction, also when an eb tiny against
// the data drives the pre-quantized values to the ends of the i64 range.

inline i64 sum2(const i64* cur, const i64* prev, size_t i) {
  return wrapping_sub(cur[i], prev[i]);
}

inline i64 sum3(const i64* cur, const i64* prev, const i64* ppy,
                const i64* ppy1, size_t i) {
  return wrapping_add(sum2(cur, prev, i), wrapping_sub(ppy1[i], ppy[i]));
}

size_t delta1_encode_scalar(const i64* p, size_t n, u16* out) {
  size_t sat = 0;
  for (size_t i = 0; i < n; ++i)
    out[i] = clip_encode_one(wrapping_sub(p[i], p[i - 1]), sat);
  return sat;
}

size_t delta2_encode_scalar(const i64* cur, const i64* prev, size_t n,
                            bool has_left, u16* out) {
  size_t sat = 0;
  size_t i = 0;
  if (!has_left && n != 0) out[i++] = clip_encode_one(sum2(cur, prev, 0), sat);
  for (; i < n; ++i)
    out[i] = clip_encode_one(
        wrapping_sub(sum2(cur, prev, i), sum2(cur, prev, i - 1)), sat);
  return sat;
}

size_t delta3_encode_scalar(const i64* cur, const i64* prev, const i64* ppy,
                            const i64* ppy1, size_t n, bool has_left,
                            u16* out) {
  size_t sat = 0;
  size_t i = 0;
  if (!has_left && n != 0)
    out[i++] = clip_encode_one(sum3(cur, prev, ppy, ppy1, 0), sat);
  for (; i < n; ++i)
    out[i] = clip_encode_one(wrapping_sub(sum3(cur, prev, ppy, ppy1, i),
                                          sum3(cur, prev, ppy, ppy1, i - 1)),
                             sat);
  return sat;
}

void transpose_unit_scalar(const u32* in, u32* out, size_t ostride) {
  u32 tmp[kUnitWords];
  std::memcpy(tmp, in, sizeof(tmp));
  transpose_bit_matrix_32(tmp);
  for (size_t j = 0; j < kUnitWords; ++j) out[j * ostride] = tmp[j];
}

// Marks `nblocks` 4-word blocks: byte_flags[blk] in {0,1}, bit_flags packed
// 8 blocks/byte (tail byte zero-padded) — exactly mark_blocks' output, but
// written unconditionally so no pre-zeroing pass is needed.
void mark_rows_scalar(const u32* words, size_t nblocks, u8* byte_flags,
                      u8* bit_flags) {
  for (size_t g = 0; g * 8 < nblocks; ++g) {
    const size_t lim = std::min<size_t>(8, nblocks - g * 8);
    u8 bits = 0;
    for (size_t h = 0; h < lim; ++h) {
      const u32* w = words + (g * 8 + h) * kBlockWords;
      const u32 nz = w[0] | w[1] | w[2] | w[3];
      byte_flags[g * 8 + h] = nz != 0 ? u8{1} : u8{0};
      if (nz != 0) bits |= static_cast<u8>(1u << h);
    }
    bit_flags[g] = bits;
  }
}

#ifdef FZ_SIMD_X86

// ---- AVX2 tier -------------------------------------------------------------

// Exact-llround limit for AVX2: roundpd keeps full double range, the magic
// conversion needs |r| < 2^51; 2^50 leaves slack for the +/-1 adjust.
constexpr double kAvx2ExactLimit = 1125899906842624.0;  // 2^50

__attribute__((target("avx2"))) inline __m256i llround_pd_avx2(__m256d x) {
  const __m256d t =
      _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d frac = _mm256_sub_pd(x, t);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d afrac = _mm256_andnot_pd(sign_mask, frac);
  const __m256d needs = _mm256_cmp_pd(afrac, _mm256_set1_pd(0.5), _CMP_GE_OQ);
  const __m256d one =
      _mm256_or_pd(_mm256_set1_pd(1.0), _mm256_and_pd(frac, sign_mask));
  const __m256d r = _mm256_add_pd(t, _mm256_and_pd(needs, one));
  const __m256d magic = _mm256_set1_pd(6755399441055744.0);  // 2^52 + 2^51
  return _mm256_sub_epi64(_mm256_castpd_si256(_mm256_add_pd(r, magic)),
                          _mm256_set1_epi64x(0x4338000000000000LL));
}

__attribute__((target("avx2"))) void prequant_row_f64_avx2(const f64* data,
                                                           size_t n, double inv,
                                                           i64* out) {
  const __m256d vinv = _mm256_set1_pd(inv);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d limit = _mm256_set1_pd(kAvx2ExactLimit);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_mul_pd(_mm256_loadu_pd(data + i), vinv);
    const __m256d ax = _mm256_andnot_pd(sign_mask, x);
    if (_mm256_movemask_pd(_mm256_cmp_pd(ax, limit, _CMP_NLT_UQ)) != 0) {
      for (size_t k = 0; k < 4; ++k) out[i + k] = prequant_one(data[i + k], inv);
      continue;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), llround_pd_avx2(x));
  }
  for (; i < n; ++i) out[i] = prequant_one(data[i], inv);
}

__attribute__((target("avx2"))) void prequant_row_f32_avx2(const f32* data,
                                                           size_t n, double inv,
                                                           i64* out) {
  const __m256d vinv = _mm256_set1_pd(inv);
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d limit = _mm256_set1_pd(kAvx2ExactLimit);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_mul_pd(
        _mm256_cvtps_pd(_mm_loadu_ps(data + i)), vinv);
    const __m256d ax = _mm256_andnot_pd(sign_mask, x);
    if (_mm256_movemask_pd(_mm256_cmp_pd(ax, limit, _CMP_NLT_UQ)) != 0) {
      for (size_t k = 0; k < 4; ++k)
        out[i + k] = prequant_one(static_cast<double>(data[i + k]), inv);
      continue;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), llround_pd_avx2(x));
  }
  for (; i < n; ++i) out[i] = prequant_one(static_cast<double>(data[i]), inv);
}

__attribute__((target("avx2"))) void prequant_row_f32fast_avx2(
    const f32* data, size_t n, double inv, float invf, i64* out) {
  const __m256 vinvf = _mm256_set1_ps(invf);
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 limitf = _mm256_set1_ps(kF32FastLimit);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 mslope = _mm256_set1_ps(0x1p-22f);
  const __m256 mfloor = _mm256_set1_ps(0x1p-24f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_mul_ps(_mm256_loadu_ps(data + i), vinvf);
    const __m256 ax = _mm256_and_ps(x, abs_mask);
    if (_mm256_movemask_ps(_mm256_cmp_ps(ax, limitf, _CMP_NLT_UQ)) != 0) {
      for (size_t k = 0; k < 8; ++k)
        out[i + k] = prequant_one_f32fast(data[i + k], inv, invf);
      continue;
    }
    const __m256i q = _mm256_cvtps_epi32(x);  // nearest-even == lrintf
    // Same margin test as prequant_one_f32fast, eight lanes at once.
    const __m256 diff =
        _mm256_and_ps(_mm256_sub_ps(x, _mm256_cvtepi32_ps(q)), abs_mask);
    const __m256 margin = _mm256_add_ps(_mm256_mul_ps(ax, mslope), mfloor);
    if (_mm256_movemask_ps(_mm256_cmp_ps(diff, _mm256_sub_ps(half, margin),
                                         _CMP_NLT_UQ)) != 0) {
      for (size_t k = 0; k < 8; ++k)
        out[i + k] = prequant_one_f32fast(data[i + k], inv, invf);
      continue;
    }
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(q)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i + 4),
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(q, 1)));
  }
  for (; i < n; ++i) out[i] = prequant_one_f32fast(data[i], inv, invf);
}

// Encodes four i64 residuals to sign-magnitude u16 codes (in the low 64
// bits of the result); bumps `sat` per saturated lane.  mag < 0 can only
// mean INT64_MIN — treated as saturated, like the scalar clip.
__attribute__((target("avx2"))) inline __m128i encode4_avx2(__m256i a,
                                                            size_t& sat) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i vmax = _mm256_set1_epi64x(kMaxMagnitude16);
  const __m256i neg = _mm256_cmpgt_epi64(zero, a);
  const __m256i mag = _mm256_sub_epi64(_mm256_xor_si256(a, neg), neg);
  const __m256i satm = _mm256_or_si256(_mm256_cmpgt_epi64(mag, vmax),
                                       _mm256_cmpgt_epi64(zero, mag));
  sat += static_cast<size_t>(__builtin_popcount(
      static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(satm)))));
  const __m256i clipped = _mm256_blendv_epi8(mag, vmax, satm);
  const __m256i code64 = _mm256_or_si256(
      clipped, _mm256_and_si256(neg, _mm256_set1_epi64x(0x8000)));
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      code64, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)));
}

__attribute__((target("avx2"))) size_t encode_row_avx2(const i64* d, size_t n,
                                                       u16* codes) {
  size_t sat = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i lo = encode4_avx2(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i)), sat);
    const __m128i hi = encode4_avx2(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d + i + 4)), sat);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(codes + i),
                     _mm_packus_epi32(lo, hi));
  }
  sat += encode_row_scalar(d + i, n - i, codes + i);
  return sat;
}

// Fused Lorenzo delta + encode, AVX2 tiers of the delta*_encode_scalar
// kernels.  The prediction sum s is evaluated at offsets i and i-1 with
// unaligned loads (both rows sit in L1 scratch), differenced with paddq —
// wraparound-exact, so bit-identical to the scalar rows.

__attribute__((target("avx2"))) inline __m256i delta1_vec_avx2(const i64* p,
                                                               size_t i) {
  const __m256i s = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(p + i));
  const __m256i s1 = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(p + i - 1));
  return _mm256_sub_epi64(s, s1);
}

__attribute__((target("avx2"))) size_t delta1_encode_avx2(const i64* p,
                                                          size_t n, u16* out) {
  size_t sat = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i lo = encode4_avx2(delta1_vec_avx2(p, i), sat);
    const __m128i hi = encode4_avx2(delta1_vec_avx2(p, i + 4), sat);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packus_epi32(lo, hi));
  }
  return sat + delta1_encode_scalar(p + i, n - i, out + i);
}

__attribute__((target("avx2"))) inline __m256i delta2_sum_avx2(const i64* cur,
                                                               const i64* prev,
                                                               size_t i) {
  return _mm256_sub_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + i)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + i)));
}

__attribute__((target("avx2"))) size_t delta2_encode_avx2(const i64* cur,
                                                          const i64* prev,
                                                          size_t n,
                                                          bool has_left,
                                                          u16* out) {
  size_t sat = 0;
  size_t i = 0;
  if (!has_left && n != 0) out[i++] = clip_encode_one(sum2(cur, prev, 0), sat);
  for (; i + 8 <= n; i += 8) {
    const __m128i lo =
        encode4_avx2(_mm256_sub_epi64(delta2_sum_avx2(cur, prev, i),
                                      delta2_sum_avx2(cur, prev, i - 1)),
                     sat);
    const __m128i hi =
        encode4_avx2(_mm256_sub_epi64(delta2_sum_avx2(cur, prev, i + 4),
                                      delta2_sum_avx2(cur, prev, i + 3)),
                     sat);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packus_epi32(lo, hi));
  }
  return sat + delta2_encode_scalar(cur + i, prev + i, n - i, true, out + i);
}

__attribute__((target("avx2"))) inline __m256i delta3_sum_avx2(
    const i64* cur, const i64* prev, const i64* ppy, const i64* ppy1,
    size_t i) {
  const __m256i a = _mm256_sub_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + i)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(prev + i)));
  const __m256i b = _mm256_sub_epi64(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ppy1 + i)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ppy + i)));
  return _mm256_add_epi64(a, b);
}

__attribute__((target("avx2"))) size_t delta3_encode_avx2(
    const i64* cur, const i64* prev, const i64* ppy, const i64* ppy1,
    size_t n, bool has_left, u16* out) {
  size_t sat = 0;
  size_t i = 0;
  if (!has_left && n != 0)
    out[i++] = clip_encode_one(sum3(cur, prev, ppy, ppy1, 0), sat);
  for (; i + 8 <= n; i += 8) {
    const __m128i lo = encode4_avx2(
        _mm256_sub_epi64(delta3_sum_avx2(cur, prev, ppy, ppy1, i),
                         delta3_sum_avx2(cur, prev, ppy, ppy1, i - 1)),
        sat);
    const __m128i hi = encode4_avx2(
        _mm256_sub_epi64(delta3_sum_avx2(cur, prev, ppy, ppy1, i + 4),
                         delta3_sum_avx2(cur, prev, ppy, ppy1, i + 3)),
        sat);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packus_epi32(lo, hi));
  }
  return sat + delta3_encode_scalar(cur + i, prev + i, ppy + i, ppy1 + i,
                                    n - i, true, out + i);
}

// 32x32 bit transpose via byte-plane extraction: gather byte k of every
// word into one YMM (pshufb + unpack + cross-lane permute), then peel its
// 8 bit planes with movemask_epi8, shifting left with add_epi8.  32 words
// in, 32 planes out, ~60 instructions.
__attribute__((target("avx2"))) void transpose_unit_avx2(const u32* in,
                                                         u32* out,
                                                         size_t ostride) {
  const __m256i gather = _mm256_setr_epi8(
      0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
      0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  __m256i s[4];
  for (size_t m = 0; m < 4; ++m)
    s[m] = _mm256_shuffle_epi8(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + 8 * m)),
        gather);
  const __m256i u01lo = _mm256_unpacklo_epi32(s[0], s[1]);
  const __m256i u01hi = _mm256_unpackhi_epi32(s[0], s[1]);
  const __m256i u23lo = _mm256_unpacklo_epi32(s[2], s[3]);
  const __m256i u23hi = _mm256_unpackhi_epi32(s[2], s[3]);
  const __m256i planes[4] = {
      _mm256_permutevar8x32_epi32(_mm256_unpacklo_epi64(u01lo, u23lo), order),
      _mm256_permutevar8x32_epi32(_mm256_unpackhi_epi64(u01lo, u23lo), order),
      _mm256_permutevar8x32_epi32(_mm256_unpacklo_epi64(u01hi, u23hi), order),
      _mm256_permutevar8x32_epi32(_mm256_unpackhi_epi64(u01hi, u23hi), order),
  };
  // planes[k] byte lane b == byte k of word b; movemask reads bit 8k+7 of
  // every word at once, add_epi8 moves the next bit into the sign position.
  for (int k = 3; k >= 0; --k) {
    __m256i r = planes[k];
    for (int bit = 7; bit >= 0; --bit) {
      out[(8 * static_cast<size_t>(k) + static_cast<size_t>(bit)) * ostride] =
          static_cast<u32>(_mm256_movemask_epi8(r));
      r = _mm256_add_epi8(r, r);
    }
  }
}

__attribute__((target("avx2"))) void mark_rows_avx2(const u32* words,
                                                    size_t nblocks,
                                                    u8* byte_flags,
                                                    u8* bit_flags) {
  const __m256i zero = _mm256_setzero_si256();
  size_t g = 0;
  for (; (g + 1) * 8 <= nblocks; ++g) {
    u8 bits = 0;
    for (size_t h = 0; h < 4; ++h) {  // two blocks per YMM
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(words + (g * 8 + h * 2) * kBlockWords));
      const int zm = _mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, zero)));
      const bool nz0 = (zm & 0x3) != 0x3;
      const bool nz1 = (zm & 0xc) != 0xc;
      byte_flags[g * 8 + h * 2] = nz0 ? u8{1} : u8{0};
      byte_flags[g * 8 + h * 2 + 1] = nz1 ? u8{1} : u8{0};
      if (nz0) bits |= static_cast<u8>(1u << (h * 2));
      if (nz1) bits |= static_cast<u8>(1u << (h * 2 + 1));
    }
    bit_flags[g] = bits;
  }
  if (g * 8 < nblocks)
    mark_rows_scalar(words + g * 8 * kBlockWords, nblocks - g * 8,
                     byte_flags + g * 8, bit_flags + g);
}

#endif  // FZ_SIMD_X86

// ---- dispatch table --------------------------------------------------------

struct KernelOps {
  void (*prequant_f32)(const f32*, size_t, double, i64*);
  void (*prequant_f64)(const f64*, size_t, double, i64*);
  void (*prequant_f32fast)(const f32*, size_t, double, float, i64*);
  size_t (*encode)(const i64*, size_t, u16*);
  void (*transpose)(const u32*, u32*, size_t);
  void (*mark)(const u32*, size_t, u8*, u8*);
  // Fused Lorenzo delta + encode rows (the tile-parallel strip body).
  size_t (*delta1_encode)(const i64*, size_t, u16*);
  size_t (*delta2_encode)(const i64*, const i64*, size_t, bool, u16*);
  size_t (*delta3_encode)(const i64*, const i64*, const i64*, const i64*,
                          size_t, bool, u16*);
};

constexpr KernelOps kScalarOps = {
    prequant_row_scalar<f32>, prequant_row_scalar<f64>,
    prequant_row_f32fast_scalar, encode_row_scalar,
    transpose_unit_scalar, mark_rows_scalar,
    delta1_encode_scalar, delta2_encode_scalar, delta3_encode_scalar,
};

KernelOps ops_for(SimdLevel level) {
#ifdef FZ_SIMD_X86
  switch (level) {
    case SimdLevel::AVX2:
      return {prequant_row_f32_avx2, prequant_row_f64_avx2,
              prequant_row_f32fast_avx2, encode_row_avx2,
              transpose_unit_avx2, mark_rows_avx2,
              delta1_encode_avx2, delta2_encode_avx2, delta3_encode_avx2};
    default:
      return kScalarOps;
  }
#else
  (void)level;
  return kScalarOps;
#endif
}

// ---- fused tile pipeline ---------------------------------------------------

// Accumulates codes into one cache-resident tile; a full tile is
// immediately transposed (plane-major scatter, as bitshuffle_tiles) and
// zero-block marked, so codes never exist outside this 4 KiB buffer.
class TileSink {
 public:
  TileSink(const KernelOps& ops, std::span<u32> shuffled,
           std::span<u8> byte_flags, std::span<u8> bit_flags)
      : ops_(ops),
        shuffled_(shuffled.data()),
        byte_flags_(byte_flags.data()),
        bit_flags_(bit_flags.data()) {}

  /// `fn(off, take, out)` writes `take` codes for logical offsets
  /// [off, off + take) directly into the tile buffer and returns its
  /// saturation count, so the fused delta+encode kernels emit codes
  /// without an intermediate delta row.
  template <typename Fn>
  void produce(size_t n, Fn&& fn) {
    size_t off = 0;
    while (n != 0) {
      const size_t take = std::min(kCodesPerTile - fill_, n);
      sat_ += fn(off, take, codes() + fill_);
      fill_ += take;
      off += take;
      n -= take;
      if (fill_ == kCodesPerTile) flush();
    }
  }

  /// Zero-pads the final partial tile (the unfused graph pads its code
  /// array to a tile boundary the same way) and flushes it.
  void finish() {
    if (fill_ == 0) return;
    std::memset(tile_ + fill_ * sizeof(u16), 0,
                (kCodesPerTile - fill_) * sizeof(u16));
    flush();
  }

  size_t saturated() const { return sat_; }

 private:
  u16* codes() { return reinterpret_cast<u16*>(tile_); }

  void flush() {
    const u32* words = reinterpret_cast<const u32*>(tile_);
    u32* tout = shuffled_ + tile_index_ * kTileWords;
    for (size_t u = 0; u < kUnitsPerTile; ++u)
      ops_.transpose(words + u * kUnitWords, tout + u, kUnitsPerTile);
    ops_.mark(tout, kBlocksPerTile, byte_flags_ + tile_index_ * kBlocksPerTile,
              bit_flags_ + tile_index_ * (kBlocksPerTile / 8));
    ++tile_index_;
    fill_ = 0;
  }

  const KernelOps& ops_;
  u32* shuffled_;
  u8* byte_flags_;
  u8* bit_flags_;
  size_t fill_ = 0;
  size_t tile_index_ = 0;
  size_t sat_ = 0;
  alignas(32) u8 tile_[kTileBytes];
};

// ---- tile-parallel strips --------------------------------------------------

// Rows per pre-quantization batch in the strip body: one kernel dispatch
// covers ~kFusedBatchElems contiguous elements instead of one row.
constexpr size_t kFusedBatchElems = 4096;

size_t fused_batch_rows(size_t nx) {
  return std::clamp<size_t>(div_ceil(kFusedBatchElems, nx), size_t{1},
                            size_t{64});
}

/// i64 scratch one strip needs: zero row + stashed previous row + the
/// multi-row pre-quantization batch (+ the previous-plane buffer in 3-D).
size_t fused_strip_scratch_elems(Dims dims) {
  switch (dims.rank()) {
    case 1:
      return kFusedChunk1D + 16;
    case 2:
      return (2 + fused_batch_rows(dims.x)) * dims.x + 8;
    default:
      return (2 + fused_batch_rows(dims.x)) * dims.x + dims.x * dims.y + 8;
  }
}

/// Upper bound on the halo a strip re-prequantizes: one value (1-D), the
/// previous row plus a partial row (2-D), the previous plane plus partial
/// rows (3-D).
size_t fused_halo_bound(Dims dims) {
  switch (dims.rank()) {
    case 1:
      return 8;
    case 2:
      return 2 * dims.x;
    default:
      return dims.x * dims.y + 2 * dims.x;
  }
}

struct StripExtent {
  size_t first_tile = 0;
  size_t tile_count = 0;
  size_t begin = 0;  ///< first element (tile-aligned)
  size_t end = 0;    ///< one past the strip's last real element
};

/// One strip of the tile-parallel fused pass.  Re-prequantizes the halo its
/// Lorenzo stencil reaches across the strip boundary (pointwise, so the
/// values match what the preceding strip computed bit-for-bit), then streams
/// its rows through batched prequantization and the fused delta+encode
/// kernels into a TileSink over the strip's own tiles.  `anchor` is written only by
/// the strip containing element 0.
template <typename T>
void run_fused_strip(std::span<const T> data, Dims dims, double inv,
                     const KernelOps& ops, const StripExtent& ext,
                     std::span<i64> scratch, std::span<u32> shuffled,
                     std::span<u8> byte_flags, std::span<u8> bit_flags,
                     i64* anchor, size_t* saturated, size_t* halo_out) {
  // f32 takes the margin-tested float row whenever its error analysis
  // holds, f64 the exact row; both are bit-identical to prequantize.
  const float invf = static_cast<float>(inv);
  const bool float_row = f32_fast_ok(inv);
  auto prequant_row = [&](const T* src, size_t n, i64* dst) {
    if constexpr (std::is_same_v<T, f32>) {
      if (float_row)
        ops.prequant_f32fast(src, n, inv, invf, dst);
      else
        ops.prequant_f32(src, n, inv, dst);
    } else {
      ops.prequant_f64(src, n, inv, dst);
    }
  };

  TileSink sink(
      ops, shuffled.subspan(ext.first_tile * kTileWords,
                            ext.tile_count * kTileWords),
      byte_flags.subspan(ext.first_tile * kBlocksPerTile,
                         ext.tile_count * kBlocksPerTile),
      bit_flags.subspan(ext.first_tile * (kBlocksPerTile / 8),
                        ext.tile_count * (kBlocksPerTile / 8)));
  size_t halo = 0;

  switch (dims.rank()) {
    case 1: {
      // p[0] is the carry slot: the pre-quantized element left of the
      // current chunk (re-prequantized across the strip boundary).
      i64* p = scratch.data();
      const size_t chunk = kFusedChunk1D;
      if (ext.begin > 0) {
        prequant_row(data.data() + ext.begin - 1, 1, p);
        halo += 1;
      } else {
        p[0] = 0;
      }
      for (size_t b = ext.begin; b < ext.end; b += chunk) {
        const size_t m = std::min(chunk, ext.end - b);
        prequant_row(data.data() + b, m, p + 1);
        if (b == 0) {
          *anchor = p[1];  // d[0] == p[1] - 0: residual of the first value
          sink.produce(1, [](size_t, size_t, u16* out) {
            out[0] = 0;
            return size_t{0};
          });
          sink.produce(m - 1, [&](size_t off, size_t take, u16* out) {
            return ops.delta1_encode(p + 2 + off, take, out);
          });
        } else {
          sink.produce(m, [&](size_t off, size_t take, u16* out) {
            return ops.delta1_encode(p + 1 + off, take, out);
          });
        }
        p[0] = p[m];
      }
      break;
    }
    case 2: {
      const size_t nx = dims.x;
      const size_t R = fused_batch_rows(nx);
      i64* zrow = scratch.data();
      i64* prevrow = zrow + nx;
      i64* batch = prevrow + nx;
      std::fill(zrow, zrow + nx, i64{0});
      const size_t y_first = ext.begin / nx;
      const size_t x_off = ext.begin % nx;
      const size_t y_last = (ext.end - 1) / nx;
      const i64* prev = zrow;
      if (y_first > 0) {
        prequant_row(data.data() + (y_first - 1) * nx, nx, prevrow);
        halo += nx;
        prev = prevrow;
      }
      halo += x_off;
      for (size_t y0 = y_first; y0 <= y_last; y0 += R) {
        const size_t rcount = std::min(R, y_last + 1 - y0);
        prequant_row(data.data() + y0 * nx, rcount * nx, batch);
        for (size_t r = 0; r < rcount; ++r) {
          const size_t y = y0 + r;
          const i64* cur = batch + r * nx;
          const size_t xb = y == y_first ? x_off : 0;
          const size_t xe = std::min(nx, ext.end - y * nx);
          if (y == 0 && xb == 0) {
            *anchor = cur[0] - prev[0];  // prev == zrow
            sink.produce(1, [](size_t, size_t, u16* out) {
              out[0] = 0;
              return size_t{0};
            });
            sink.produce(xe - 1, [&](size_t off, size_t take, u16* out) {
              return ops.delta2_encode(cur + 1 + off, prev + 1 + off, take,
                                       true, out);
            });
          } else {
            sink.produce(xe - xb, [&](size_t off, size_t take, u16* out) {
              return ops.delta2_encode(cur + xb + off, prev + xb + off, take,
                                       xb + off > 0, out);
            });
          }
          halo += nx - xe;
          prev = cur;
        }
        if (y0 + rcount <= y_last) {
          std::memcpy(prevrow, batch + (rcount - 1) * nx, nx * sizeof(i64));
          prev = prevrow;
        }
      }
      break;
    }
    default: {
      const size_t nx = dims.x, ny = dims.y;
      const size_t nxy = nx * ny;
      const size_t R = fused_batch_rows(nx);
      i64* zrow = scratch.data();
      i64* prevrow = zrow + nx;
      i64* batch = prevrow + nx;
      i64* plane = batch + R * nx;
      std::fill(zrow, zrow + nx, i64{0});
      const size_t z_first = ext.begin / nxy;
      const size_t y_first = (ext.begin % nxy) / nx;
      const size_t x_off = ext.begin % nx;
      const size_t z_last = (ext.end - 1) / nxy;

      // Halo init: rebuild the rolling plane state the loop below holds at
      // (z_first, y_first) by re-prequantizing it.  At that point the delayed copies
      // have replaced rows [0, y_first-1) with plane z_first; the rest
      // still holds plane z_first-1 (zeros when z_first == 0).
      const size_t lo = y_first == 0 ? 0 : y_first - 1;
      if (lo > 0) {
        prequant_row(data.data() + z_first * nxy, lo * nx, plane);
        halo += lo * nx;
      }
      if (z_first > 0) {
        prequant_row(data.data() + (z_first - 1) * nxy + lo * nx,
                     (ny - lo) * nx, plane + lo * nx);
        halo += (ny - lo) * nx;
      } else {
        std::fill(plane + lo * nx, plane + nxy, i64{0});
      }
      const i64* prev = zrow;
      if (y_first > 0) {
        prequant_row(data.data() + z_first * nxy + (y_first - 1) * nx, nx,
                     prevrow);
        halo += nx;
        prev = prevrow;
      }
      halo += x_off;

      for (size_t z = z_first; z <= z_last; ++z) {
        const size_t base = z * nxy;
        if (z != z_first) prev = zrow;
        const size_t yb = z == z_first ? y_first : 0;
        const size_t ye = z == z_last ? (ext.end - 1 - base) / nx + 1 : ny;
        for (size_t y0 = yb; y0 < ye; y0 += R) {
          const size_t rcount = std::min(R, ye - y0);
          prequant_row(data.data() + base + y0 * nx, rcount * nx, batch);
          const i64* batch_prev = prev;  // current row y0-1 (or the zero row)
          for (size_t r = 0; r < rcount; ++r) {
            const size_t y = y0 + r;
            const i64* cur = batch + r * nx;
            const i64* ppy = plane + y * nx;
            const i64* ppy1 = y > 0 ? plane + (y - 1) * nx : zrow;
            const size_t xb = (z == z_first && y == y_first) ? x_off : 0;
            const size_t xe = std::min(nx, ext.end - base - y * nx);
            if (z == 0 && y == 0 && xb == 0) {
              *anchor = cur[0] - prev[0] - ppy[0] + ppy1[0];
              sink.produce(1, [](size_t, size_t, u16* out) {
                out[0] = 0;
                return size_t{0};
              });
              sink.produce(xe - 1, [&](size_t off, size_t take, u16* out) {
                return ops.delta3_encode(cur + 1 + off, prev + 1 + off,
                                         ppy + 1 + off, ppy1 + 1 + off, take,
                                         true, out);
              });
            } else {
              sink.produce(xe - xb, [&](size_t off, size_t take, u16* out) {
                return ops.delta3_encode(cur + xb + off, prev + xb + off,
                                         ppy + xb + off, ppy1 + xb + off,
                                         take, xb + off > 0, out);
              });
            }
            halo += nx - xe;
            prev = cur;
          }
          // Delayed plane update, batched: current rows [y0-1, y0+rcount-1)
          // replace the previous plane's (every delta above read the old
          // values; the next batch only reads rows >= y0+rcount-1, still
          // untouched).  The batch's last row is stashed in prevrow.
          if (y0 > 0)
            std::memcpy(plane + (y0 - 1) * nx, batch_prev, nx * sizeof(i64));
          if (rcount > 1)
            std::memcpy(plane + y0 * nx, batch, (rcount - 1) * nx * sizeof(i64));
          std::memcpy(prevrow, batch + (rcount - 1) * nx, nx * sizeof(i64));
          prev = prevrow;
        }
        if (z != z_last)
          std::memcpy(plane + (ny - 1) * nx, prevrow, nx * sizeof(i64));
      }
      break;
    }
  }

  sink.finish();
  *saturated = sink.saturated();
  *halo_out = halo;
}

template <typename T>
FusedTileResult fused_parallel_impl(std::span<const T> data, Dims dims,
                                    double abs_eb, std::span<u32> shuffled,
                                    std::span<u8> byte_flags,
                                    std::span<u8> bit_flags,
                                    std::span<i64> scratch,
                                    const FusedParallelPlan& plan,
                                    SimdLevel level, telemetry::Sink* sink) {
  FZ_REQUIRE(abs_eb > 0, "fused: error bound must be positive");
  FZ_REQUIRE(data.size() == dims.count(), "fused: dims/size mismatch");
  FZ_REQUIRE(data.size() > 0, "fused: empty input");
  const size_t padded = round_up(data.size(), kCodesPerTile);
  const size_t words = padded * sizeof(u16) / sizeof(u32);
  FZ_REQUIRE(shuffled.size() == words, "fused: shuffled size mismatch");
  FZ_REQUIRE(byte_flags.size() == words / kBlockWords &&
                 bit_flags.size() == words / kBlockWords / 8,
             "fused: flag size mismatch");
  FZ_REQUIRE(plan.strips >= 1 && scratch.size() >= plan.scratch_elems,
             "fused: scratch smaller than the plan");

  const size_t tiles = padded / kCodesPerTile;
  const size_t tiles_per = div_ceil(tiles, plan.strips);
  const size_t strips = div_ceil(tiles, tiles_per);
  const size_t per_strip = scratch.size() / strips;

  const double inv = 1.0 / (2.0 * abs_eb);
  const KernelOps ops = ops_for(level);

  std::atomic<size_t> saturated{0};
  i64 anchor = 0;  // written only by the strip holding element 0

  parallel_tasks(strips, strips, [&](size_t t, size_t /*worker*/) {
    StripExtent ext;
    ext.first_tile = t * tiles_per;
    ext.tile_count = std::min(tiles_per, tiles - ext.first_tile);
    ext.begin = ext.first_tile * kCodesPerTile;
    ext.end = std::min(data.size(),
                       (ext.first_tile + ext.tile_count) * kCodesPerTile);
    telemetry::Span span(sink, "fused-strip");
    size_t sat = 0, halo = 0;
    run_fused_strip<T>(data, dims, inv, ops, ext,
                       scratch.subspan(t * per_strip, per_strip), shuffled,
                       byte_flags, bit_flags, &anchor, &sat, &halo);
    saturated.fetch_add(sat, std::memory_order_relaxed);
    if (span.enabled()) {
      span.arg("strip", static_cast<double>(t));
      span.arg("halo_elems", static_cast<double>(halo));
      span.arg("bytes",
               static_cast<double>((ext.end - ext.begin) * sizeof(T)));
    }
  });

  FusedTileResult res;
  res.saturated = saturated.load();
  res.anchor = anchor;
  return res;
}

}  // namespace

// ---- public entry points ---------------------------------------------------

FusedParallelPlan fused_parallel_plan(Dims dims, size_t workers) {
  const size_t n = dims.count();
  const size_t tiles = div_ceil(std::max<size_t>(n, 1), kCodesPerTile);
  size_t strips = std::min(workers != 0 ? workers : max_threads(), tiles);
  // Keep the halo recompute a small fraction of the real work: each extra
  // strip re-prequantizes at most `bound` elements.
  const size_t bound = fused_halo_bound(dims);
  strips = std::min(strips, std::max<size_t>(1, n / (4 * bound)));
  strips = std::max<size_t>(strips, 1);
  // Even tile split; trailing strips may be empty — fold them away.
  const size_t tiles_per = div_ceil(tiles, strips);
  strips = div_ceil(tiles, tiles_per);

  FusedParallelPlan plan;
  plan.strips = strips;
  plan.scratch_elems = strips * round_up(fused_strip_scratch_elems(dims), 8);
  plan.halo_elems = (strips - 1) * bound;
  return plan;
}

FusedTileResult fused_quant_shuffle_mark_parallel(
    FloatSpan data, Dims dims, double abs_eb, std::span<u32> shuffled,
    std::span<u8> byte_flags, std::span<u8> bit_flags,
    std::span<i64> scratch, const FusedParallelPlan& plan, SimdLevel level,
    telemetry::Sink* sink) {
  return fused_parallel_impl(data, dims, abs_eb, shuffled, byte_flags,
                             bit_flags, scratch, plan, level, sink);
}

FusedTileResult fused_quant_shuffle_mark_parallel(
    std::span<const f64> data, Dims dims, double abs_eb,
    std::span<u32> shuffled, std::span<u8> byte_flags,
    std::span<u8> bit_flags, std::span<i64> scratch,
    const FusedParallelPlan& plan, SimdLevel level, telemetry::Sink* sink) {
  return fused_parallel_impl(data, dims, abs_eb, shuffled, byte_flags,
                             bit_flags, scratch, plan, level, sink);
}

void prequantize_simd(FloatSpan data, double eb, std::span<i64> out,
                      SimdLevel level) {
  FZ_REQUIRE(eb > 0, "error bound must be positive");
  FZ_REQUIRE(data.size() == out.size(), "prequantize: size mismatch");
  const double inv = 1.0 / (2.0 * eb);
  const KernelOps ops = ops_for(level);
  parallel_chunks(data.size(), size_t{1} << 15, [&](size_t b, size_t e) {
    ops.prequant_f32(data.data() + b, e - b, inv, out.data() + b);
  });
}

void prequantize_simd(std::span<const f64> data, double eb, std::span<i64> out,
                      SimdLevel level) {
  FZ_REQUIRE(eb > 0, "error bound must be positive");
  FZ_REQUIRE(data.size() == out.size(), "prequantize: size mismatch");
  const double inv = 1.0 / (2.0 * eb);
  const KernelOps ops = ops_for(level);
  parallel_chunks(data.size(), size_t{1} << 15, [&](size_t b, size_t e) {
    ops.prequant_f64(data.data() + b, e - b, inv, out.data() + b);
  });
}

void prequantize_f32fast(FloatSpan data, double eb, std::span<i64> out,
                         SimdLevel level) {
  FZ_REQUIRE(eb > 0, "error bound must be positive");
  FZ_REQUIRE(data.size() == out.size(), "prequantize: size mismatch");
  const double inv = 1.0 / (2.0 * eb);
  const float invf = static_cast<float>(inv);
  const KernelOps ops = ops_for(level);
  if (!f32_fast_ok(inv)) {
    // fl32(inv) is subnormal, zero, or infinite — the fast path's error
    // bound does not hold, so every element takes the exact kernel.
    parallel_chunks(data.size(), size_t{1} << 15, [&](size_t b, size_t e) {
      ops.prequant_f32(data.data() + b, e - b, inv, out.data() + b);
    });
    return;
  }
  parallel_chunks(data.size(), size_t{1} << 15, [&](size_t b, size_t e) {
    ops.prequant_f32fast(data.data() + b, e - b, inv, invf, out.data() + b);
  });
}

size_t quant_encode_v2_simd(std::span<const i64> deltas, std::span<u16> codes,
                            SimdLevel level) {
  FZ_REQUIRE(codes.size() == deltas.size(), "quant: size mismatch");
  const KernelOps ops = ops_for(level);
  std::atomic<size_t> saturated{0};
  parallel_chunks(deltas.size(), size_t{1} << 16, [&](size_t b, size_t e) {
    const size_t local = ops.encode(deltas.data() + b, e - b, codes.data() + b);
    if (local != 0) saturated.fetch_add(local, std::memory_order_relaxed);
  });
  return saturated.load();
}

void bitshuffle_tiles_simd(std::span<const u32> in, std::span<u32> out,
                           SimdLevel level) {
  FZ_REQUIRE(in.size() % kTileWords == 0,
             "bitshuffle: size must be a multiple of one tile (1024 words)");
  FZ_REQUIRE(in.size() == out.size(), "bitshuffle: size mismatch");
  FZ_REQUIRE(in.data() != out.data(), "bitshuffle: must not alias");
  const KernelOps ops = ops_for(level);
  const size_t tiles = in.size() / kTileWords;
  parallel_chunks(tiles, 16, [&](size_t tb, size_t te) {
    for (size_t t = tb; t < te; ++t) {
      const u32* tin = in.data() + t * kTileWords;
      u32* tout = out.data() + t * kTileWords;
      for (size_t u = 0; u < kUnitsPerTile; ++u)
        ops.transpose(tin + u * kUnitWords, tout + u, kUnitsPerTile);
    }
  });
}

void bitunshuffle_tiles_simd(std::span<const u32> in, std::span<u32> out,
                             SimdLevel level) {
  FZ_REQUIRE(in.size() % kTileWords == 0,
             "bitshuffle: size must be a multiple of one tile (1024 words)");
  FZ_REQUIRE(in.size() == out.size(), "bitshuffle: size mismatch");
  FZ_REQUIRE(in.data() != out.data(), "bitshuffle: must not alias");
  const KernelOps ops = ops_for(level);
  const size_t tiles = in.size() / kTileWords;
  parallel_chunks(tiles, 16, [&](size_t tb, size_t te) {
    for (size_t t = tb; t < te; ++t) {
      const u32* tin = in.data() + t * kTileWords;
      u32* tout = out.data() + t * kTileWords;
      for (size_t u = 0; u < kUnitsPerTile; ++u) {
        alignas(32) u32 tmp[kUnitWords];
        // Gather unit u's planes, then the same transpose (an involution)
        // written contiguously inverts the shuffle.
        for (size_t j = 0; j < kUnitWords; ++j)
          tmp[j] = tin[j * kUnitsPerTile + u];
        ops.transpose(tmp, tout + u * kUnitWords, 1);
      }
    }
  });
}

void mark_blocks_simd(std::span<const u32> words, std::span<u8> byte_flags,
                      std::span<u8> bit_flags, SimdLevel level) {
  FZ_REQUIRE(words.size() % kBlockWords == 0,
             "encoder: word count must be a multiple of the block size");
  const size_t nblocks = words.size() / kBlockWords;
  FZ_REQUIRE(byte_flags.size() == nblocks &&
                 bit_flags.size() == div_ceil(nblocks, 8),
             "encoder: flag array size mismatch");
  const KernelOps ops = ops_for(level);
  // 4096-block chunks start on a flag-byte boundary (4096 % 8 == 0), so
  // each chunk owns disjoint bit_flags bytes.
  parallel_chunks(nblocks, 4096, [&](size_t b, size_t e) {
    ops.mark(words.data() + b * kBlockWords, e - b, byte_flags.data() + b,
             bit_flags.data() + b / 8);
  });
}

void transpose_unit_simd(const u32* in, u32* out, size_t out_stride,
                         SimdLevel level) {
  ops_for(level).transpose(in, out, out_stride);
}

TransposeUnitFn transpose_unit_fn(SimdLevel level) {
  return ops_for(level).transpose;
}

}  // namespace fz
